//! The load generator: one client thread, one connection, closed loop — a
//! client of this line protocol waits for its replies. A window of `w`
//! means: write `w` request lines in one call, read `w` reply lines.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::plan::Lines;

pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    window: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Self {
            reader: BufReader::with_capacity(1 << 16, writer.try_clone()?),
            writer,
            window: Vec::new(),
        })
    }

    /// Send `lines` in windows of `window`. Each window is timed on its
    /// own — write to last reply byte — and handed to `check` (first line
    /// index, latency, reply bytes) outside that time, so verifying costs
    /// the run wall time but not the measurement. Returns the busy time.
    pub fn exchange(
        &mut self,
        lines: &Lines,
        window: usize,
        mut check: impl FnMut(usize, Duration, &[u8]),
    ) -> io::Result<Duration> {
        let mut busy = Duration::ZERO;
        let mut from = 0;
        while from < lines.len() {
            let to = (from + window).min(lines.len());
            self.window.clear();
            let t = Instant::now();
            self.writer.write_all(lines.span(from, to))?;
            for _ in from..to {
                if self.reader.read_until(b'\n', &mut self.window)? == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ));
                }
            }
            let took = t.elapsed();
            busy += took;
            check(from, took, &self.window);
            from = to;
        }
        Ok(busy)
    }

    /// One untimed admin round trip (`USE`, `VERSIONS`, `QUIT`).
    pub fn ask(&mut self, line: &str) -> io::Result<String> {
        let mut one = Lines::default();
        one.push(line);
        let mut reply = String::new();
        self.exchange(&one, 1, |_, _, bytes| {
            reply = String::from_utf8_lossy(bytes).trim_end().to_string()
        })?;
        Ok(reply)
    }
}
