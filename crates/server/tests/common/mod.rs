//! Shared loopback-test scaffolding: a real server on an ephemeral port,
//! plus blunt little TCP clients.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use grepair_core::{compress, GRePairConfig};
use grepair_grammar::Grammar;
use grepair_hypergraph::Hypergraph;
use grepair_server::{IoMode, Server, ServerConfig, ServerHandle};
use grepair_store::{write_container, GraphStore, StoreRegistry};

/// The front ends this platform has: both on Linux, thread mode elsewhere
/// (epoll is Linux only). Suites run their bodies once per mode.
#[allow(dead_code)] // not every test binary including this module loops over modes
pub fn io_modes() -> &'static [IoMode] {
    if cfg!(target_os = "linux") {
        &[IoMode::Threads, IoMode::Epoll]
    } else {
        &[IoMode::Threads]
    }
}

/// A compressed two-label path graph with `2 * reps + 1` nodes.
pub fn g2g(reps: u32) -> Vec<u8> {
    let (g, _) = Hypergraph::from_simple_edges(
        (2 * reps + 1) as usize,
        (0..reps).flat_map(|i| [(2 * i, 0u32, 2 * i + 1), (2 * i + 1, 1u32, 2 * i + 2)]),
    );
    let out = compress(&g, &GRePairConfig::default());
    let enc = grepair_codec::encode(&out.grammar);
    write_container(&enc.bytes, enc.bit_len)
}

/// An unlabeled `n`-node path as a rule-free grammar container: nothing is
/// compressed, so every node keeps its input id.
#[allow(dead_code)] // not every test binary including this module names node ids
pub fn path_file(n: u32) -> Vec<u8> {
    let g = Hypergraph::from_simple_edges(n as usize, (0..n - 1).map(|i| (i, 0u32, i + 1))).0;
    let enc = grepair_codec::encode(&Grammar::new(g, 1));
    write_container(&enc.bytes, enc.bit_len)
}

pub fn store(reps: u32) -> GraphStore {
    GraphStore::from_bytes(&g2g(reps)).unwrap()
}

/// A scratch container path no other test can collide with: the pid keeps
/// concurrently running test binaries apart, the process-wide counter keeps
/// tests (and repeated fixtures) inside one binary apart — two fixtures
/// sharing a pid-only name delete each other's file on drop.
#[allow(dead_code)] // not every test binary including this module writes containers
pub fn temp_path(stem: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("grepair_{stem}_{}_{n}.g2g", std::process::id()))
}

/// A serving loopback server that stops and joins on drop.
pub struct TestServer {
    pub addr: SocketAddr,
    #[allow(dead_code)] // not every test binary including this module touches the registry
    pub registry: Arc<StoreRegistry>,
    handle: ServerHandle,
    thread: Option<JoinHandle<()>>,
}

#[allow(dead_code)] // not every test binary including this module uses every helper
impl TestServer {
    pub fn start(reps: u32, reload_path: Option<String>) -> Self {
        Self::start_with(reps, reload_path, ServerConfig::default())
    }

    /// [`TestServer::start`] on the given front end.
    pub fn start_in(io: IoMode, reps: u32, reload_path: Option<String>) -> Self {
        Self::start_with(reps, reload_path, ServerConfig { io, ..ServerConfig::default() })
    }

    pub fn start_with(reps: u32, reload_path: Option<String>, config: ServerConfig) -> Self {
        let registry = Arc::new(StoreRegistry::new(store(reps)));
        let server = Server::bind(&config, Arc::clone(&registry), reload_path)
            .expect("bind ephemeral loopback port");
        let addr = server.local_addr().unwrap();
        let handle = server.handle().unwrap();
        let thread = std::thread::spawn(move || {
            server.run().expect("accept loop must exit cleanly");
        });
        Self { addr, registry, handle, thread: Some(thread) }
    }

    pub fn connect(&self) -> TcpStream {
        TcpStream::connect(self.addr).expect("connect to test server")
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.handle.stop();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Fire-and-drain client: send everything, half-close, read every reply
/// byte until the server is done. This is the shape a pipelined batch
/// client has. (Not every test binary including this module uses it.)
#[allow(dead_code)]
pub fn send_and_drain(addr: SocketAddr, input: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(input).expect("send");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("drain replies");
    out
}

/// Interactive client: one line out, one reply line back — the `nc` shape.
/// (Not every test binary including this module uses every method.)
#[allow(dead_code)]
pub struct LineClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

#[allow(dead_code)]
impl LineClient {
    pub fn new(stream: TcpStream) -> Self {
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Self { reader, writer: stream }
    }

    pub fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).expect("send line");
        self.writer.write_all(b"\n").expect("send newline");
    }

    pub fn recv(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read reply");
        assert!(line.ends_with('\n'), "truncated reply {line:?}");
        line.pop();
        line
    }

    pub fn roundtrip(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }
}
