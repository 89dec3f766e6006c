//! The `grepair-server` binary with failpoints armed from the environment
//! (`GREPAIR_FAILPOINTS`, DESIGN.md §10.1). With the `fail` feature the
//! process sheds every batch with `busy`, recovers over the wire
//! byte-identically to an in-process twin once `FAULTS CLEAR` lands, and
//! drains on `SHUTDOWN`; without it, arming the env is a startup error and
//! `FAULTS` reports the failpoints compiled out.

mod common;

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use common::{g2g, temp_path, LineClient};

/// The server binary on an ephemeral port.
fn server_command(container: &std::path::Path) -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_grepair-server"));
    command.arg(container).args(["--addr", "127.0.0.1:0"]);
    command
}

/// The server binary, started with `pool.submit` armed to fail every call.
fn armed_server(container: &std::path::Path) -> Command {
    let mut command = server_command(container);
    command.env("GREPAIR_FAILPOINTS", "pool.submit=always:err");
    command
}

/// A running server, killed and reaped when dropped (also when an
/// assertion unwinds).
struct Running {
    child: std::process::Child,
    /// What its `listening` line announced.
    addr: SocketAddr,
}

impl Running {
    fn spawn(command: &mut Command) -> Self {
        let mut child = command.stdout(Stdio::piped()).stderr(Stdio::null()).spawn().unwrap();
        let mut banner = String::new();
        BufReader::new(child.stdout.take().unwrap()).read_line(&mut banner).unwrap();
        let addr = banner
            .strip_prefix("listening ")
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("no listening line: {banner:?}"))
            .parse()
            .unwrap();
        Running { child, addr }
    }

    /// `SHUTDOWN` drains: the process exits 0 inside the default 5 s drain
    /// deadline.
    fn shutdown(mut self) {
        let mut admin = LineClient::new(TcpStream::connect(self.addr).unwrap());
        assert_eq!(admin.roundtrip("SHUTDOWN"), "draining");
        let deadline = Instant::now() + Duration::from_secs(5);
        let status = loop {
            if let Some(status) = self.child.try_wait().unwrap() {
                break status;
            }
            assert!(Instant::now() < deadline, "no exit within the drain deadline");
            std::thread::sleep(Duration::from_millis(20));
        };
        assert!(status.success(), "drained server exited with {status}");
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[cfg(feature = "fail")]
#[test]
fn env_armed_server_sheds_then_recovers_byte_identically_and_drains() {
    use common::send_and_drain;
    use grepair_server::{serve_session, SessionOpts, WorkerPool};
    use grepair_store::{GraphStore, StoreRegistry};

    let bytes = g2g(100);
    let path = temp_path("failpoint_env");
    std::fs::write(&path, &bytes).unwrap();
    let server = Running::spawn(armed_server(&path).env("GREPAIR_FAIL_SEED", "7"));

    // Every id is in range (201 nodes), so a healthy server answers no
    // line with an error.
    let queries: String =
        (0..200).map(|i| format!("out {i}\nin {i}\nreach 0 {i}\nneighbors {i}\n")).collect();
    let shed = send_and_drain(server.addr, queries.as_bytes());
    assert_eq!(shed.lines().count(), 800, "one reply per request");
    assert!(shed.lines().all(|l| l == "busy"), "every batch is shed:\n{shed}");

    let mut admin = LineClient::new(TcpStream::connect(server.addr).unwrap());
    let faults = admin.roundtrip("FAULTS");
    assert!(faults.starts_with("faults compiled=on points=1 pool.submit="), "{faults}");
    assert_eq!(admin.roundtrip("FAULTS CLEAR"), "faults cleared");

    // The twin: the same container and requests through an in-process
    // session that never saw a fault.
    let registry = StoreRegistry::new(GraphStore::from_bytes(&bytes).unwrap());
    let mut twin = Vec::new();
    serve_session(
        &registry,
        &WorkerPool::new(2),
        &mut queries.as_bytes(),
        &mut twin,
        &SessionOpts::default(),
    )
    .unwrap();
    let twin = String::from_utf8(twin).unwrap();
    assert!(!twin.contains("busy") && !twin.contains("error:"), "{twin}");
    let recovered = send_and_drain(server.addr, queries.as_bytes());
    assert_eq!(recovered, twin, "recovery ≡ the no-fault twin");

    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[cfg(not(feature = "fail"))]
#[test]
fn env_armed_failpoints_are_a_startup_error_in_a_default_build() {
    // The env is read before the container, so no file is needed.
    let out = armed_server(std::path::Path::new("/nonexistent/x.g2g")).output().unwrap();
    assert!(!out.status.success(), "an armed env must not start a server");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("GREPAIR_FAILPOINTS set but"), "{stderr}");
    assert!(stderr.contains("compiled out"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[cfg(not(feature = "fail"))]
#[test]
fn a_default_build_reports_faults_compiled_off_over_the_wire() {
    let path = temp_path("failpoint_env_off");
    std::fs::write(&path, g2g(8)).unwrap();
    let server = Running::spawn(&mut server_command(&path));
    let mut client = LineClient::new(TcpStream::connect(server.addr).unwrap());
    assert_eq!(client.roundtrip("FAULTS"), "faults compiled=off points=0");
    assert_eq!(client.roundtrip("out 0"), "1");
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}
