//! The one connection engine (DESIGN.md §11.2): bytes in, the §6.1
//! framing rules, the [`SessionState`] protocol engine, reply bytes out.
//!
//! A [`Conn`] owns no socket: its driver hands it each read
//! ([`Conn::read_from`]) and writes out the replies it queued
//! ([`Conn::write_to`]). The drivers are
//! [`serve_session`](crate::serve_session) — `store serve-file` and every
//! thread-mode session — and the epoll reactor, so the framing is written
//! once for all three, which is what makes them byte-identical:
//!
//! * a line is the bytes before a `\n`, at most `max_line` of them counting
//!   a trailing `\r`, which is then stripped (CRLF clients are tolerated);
//! * a longer line is one `error: bad request: line exceeds N bytes` reply,
//!   and everything up to the next newline is discarded;
//! * a partial line at EOF is dropped silently (it was never a request);
//! * nothing after `QUIT` / `SHUTDOWN` is served.
//!
//! Lines are answered straight out of the bytes read (one split across
//! reads is reassembled in `inbuf`), with no allocation per line; the
//! pending batch is evaluated at `--batch` lines and at the end of every
//! read, once the client's already-sent bytes are used up (DESIGN.md §6.5).

use std::io::{self, Read, Write};

use grepair_store::StoreRegistry;

use crate::pool::WorkerPool;
use crate::session::{SessionOpts, SessionState, SessionSummary, Step};

/// Bytes one `read` asks for: the size of a session's read buffer and of
/// the reactor's one shared buffer.
pub(crate) const READ_CHUNK: usize = 64 * 1024;

/// Stop reading from a connection whose unsent replies exceed this many
/// bytes; reading resumes once the client drains its side. Bounds memory
/// per slow-reader connection (DESIGN.md §11.3).
pub(crate) const OUTBUF_BACKPRESSURE: usize = 1 << 20;

/// One client connection's protocol state, whoever owns the socket.
#[derive(Debug)]
pub(crate) struct Conn<'a> {
    registry: &'a StoreRegistry,
    pool: &'a WorkerPool,
    opts: &'a SessionOpts,
    session: SessionState,
    /// The start of a line whose newline has not arrived yet; never more
    /// than `max_line` bytes (past that the line is oversized and its
    /// bytes are discarded instead).
    inbuf: Vec<u8>,
    /// Replies not yet written. `outpos` marks how far the writes got; the
    /// buffer is cleared whenever it drains.
    outbuf: Vec<u8>,
    outpos: usize,
    /// Inside an oversized line: swallow bytes up to the next newline
    /// (its error reply was queued when it crossed `max_line`).
    discarding: bool,
    /// Set by EOF, `QUIT` / `SHUTDOWN`, or a drain: nothing more is read;
    /// the connection is finished once `outbuf` drains.
    closing: bool,
}

impl<'a> Conn<'a> {
    pub(crate) fn new(
        registry: &'a StoreRegistry,
        pool: &'a WorkerPool,
        opts: &'a SessionOpts,
    ) -> Self {
        Self {
            registry,
            pool,
            opts,
            session: SessionState::new(),
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            outpos: 0,
            discarding: false,
            closing: false,
        }
    }

    /// What the session has done so far.
    pub(crate) fn summary(&self) -> SessionSummary {
        self.session.summary
    }

    /// No more input will be read.
    pub(crate) fn closing(&self) -> bool {
        self.closing
    }

    /// The reactor should read: not closing, and not holding too many
    /// unsent replies.
    pub(crate) fn wants_read(&self) -> bool {
        !self.closing && self.outbuf.len() - self.outpos <= OUTBUF_BACKPRESSURE
    }

    /// Unsent reply bytes exist.
    pub(crate) fn wants_write(&self) -> bool {
        self.outpos < self.outbuf.len()
    }

    /// Everything said and sent — the driver can drop the connection.
    pub(crate) fn finished(&self) -> bool {
        self.closing && !self.wants_write()
    }

    /// One `read` from `reader` into `buf` (retried if interrupted),
    /// framed and answered. `Ok(0)` is EOF, after which the connection is
    /// closing; errors are the reader's, or a write into the reply buffer
    /// refused by the `session.write` failpoint.
    pub(crate) fn read_from(
        &mut self,
        reader: &mut impl Read,
        buf: &mut [u8],
    ) -> io::Result<usize> {
        let n = loop {
            match reader.read(buf) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                read => break read?,
            }
        };
        match buf.get(..n).unwrap_or_default() {
            [] => self.close()?,
            bytes => self.feed(bytes)?,
        }
        Ok(n)
    }

    /// End of input — EOF or a drain: answer everything pending, drop a
    /// partial line, stop reading.
    pub(crate) fn close(&mut self) -> io::Result<()> {
        if !self.closing {
            self.closing = true;
            self.inbuf.clear();
            self.evaluate()?;
        }
        Ok(())
    }

    /// Write queued replies into `writer` until they are all out or it
    /// would block; returns the bytes written.
    pub(crate) fn write_to(&mut self, writer: &mut impl Write) -> io::Result<usize> {
        let mut written = 0;
        while let Some(rest) = self.outbuf.get(self.outpos..).filter(|rest| !rest.is_empty()) {
            match writer.write(rest) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.outpos += n;
                    written += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if !self.wants_write() {
            self.outbuf.clear();
            self.outpos = 0;
        }
        Ok(written)
    }

    /// Frame the next bytes of the stream into lines and answer them.
    fn feed(&mut self, bytes: &[u8]) -> io::Result<()> {
        let max = self.opts.max_line;
        for piece in bytes.split_inclusive(|&b| b == b'\n') {
            if self.closing {
                break;
            }
            match piece.strip_suffix(b"\n") {
                // The tail of an oversized line: swallowed.
                Some(_) if self.discarding => self.discarding = false,
                Some(rest) if self.inbuf.len() + rest.len() > max => {
                    self.session.push_oversized(max);
                    self.inbuf.clear();
                }
                Some(line) if self.inbuf.is_empty() => self.answer(line)?,
                Some(rest) => {
                    // A line split across reads: reassembled in `inbuf`,
                    // whose allocation is kept for the next one.
                    let mut line = std::mem::take(&mut self.inbuf);
                    line.extend_from_slice(rest);
                    self.answer(&line)?;
                    line.clear();
                    self.inbuf = line;
                }
                // No newline yet: keep the start of the line, or — once it
                // is longer than `max` — answer the error now and discard
                // to the newline (no reply can come in between, so this
                // is the same reply stream as answering at the newline).
                None if self.discarding => {}
                None => {
                    self.inbuf.extend_from_slice(piece);
                    if self.inbuf.len() > max {
                        self.session.push_oversized(max);
                        self.inbuf.clear();
                        self.discarding = true;
                    }
                }
            }
            if self.session.pending_len() >= self.opts.batch {
                self.evaluate()?;
            }
        }
        self.evaluate()
    }

    /// Answer the pending batch into the reply buffer.
    fn evaluate(&mut self) -> io::Result<()> {
        self.session.flush(self.registry, self.pool, &mut self.outbuf)
    }

    /// Answer (or buffer) one complete line, its `\n` already cut.
    fn answer(&mut self, line: &[u8]) -> io::Result<()> {
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        let (registry, pool, opts) = (self.registry, self.pool, self.opts);
        if self.session.on_line(registry, pool, line, &mut self.outbuf, opts)? == Step::Quit {
            // Replies already queued still go out; input after QUIT is
            // never served.
            self.closing = true;
            self.inbuf.clear();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grepair_core::{compress, GRePairConfig};
    use grepair_hypergraph::Hypergraph;
    use grepair_store::{write_container, GraphStore};
    use std::io::BufRead;

    fn fixture() -> (StoreRegistry, WorkerPool, SessionOpts) {
        let (g, _) = Hypergraph::from_simple_edges(
            17,
            (0..8u32).flat_map(|i| [(2 * i, 0u32, 2 * i + 1), (2 * i + 1, 1u32, 2 * i + 2)]),
        );
        let out = compress(&g, &GRePairConfig::default());
        let enc = grepair_codec::encode(&out.grammar);
        let bytes = write_container(&enc.bytes, enc.bit_len);
        let registry = StoreRegistry::new(GraphStore::from_bytes(&bytes).expect("container"));
        let pool = WorkerPool::new(2);
        let opts = SessionOpts { max_line: 64, ..SessionOpts::default() };
        (registry, pool, opts)
    }

    /// Feed `input` through a Conn in the given read sizes (then the rest,
    /// then EOF) and return its reply bytes.
    fn conn_replies(input: &[u8], chunks: &[usize], opts: &SessionOpts) -> Vec<u8> {
        let (registry, pool, _) = fixture();
        let mut conn = Conn::new(&registry, &pool, opts);
        let mut rest = input;
        let mut buf = [0u8; 512];
        for &len in chunks.iter().chain(std::iter::repeat(&usize::MAX)) {
            if conn.closing() {
                break;
            }
            let mut reader = rest.take(len as u64);
            conn.read_from(&mut reader, &mut buf).expect("read");
            rest = reader.into_inner();
        }
        let mut out = Vec::new();
        conn.write_to(&mut out).expect("write");
        out
    }

    /// One outcome of the reference framer.
    enum Event {
        /// Clean EOF at a line boundary.
        Eof,
        /// A complete line (without its terminator) is in the buffer.
        Line,
        /// The line exceeded `max`; its remainder was consumed.
        Oversized,
        /// EOF in the middle of a line — the partial line is discarded.
        MidLineEof,
    }

    /// The reference framer: the blocking line reader thread mode and
    /// serve-file used before they shared `Conn`. Reads one
    /// `\n`-terminated line of at most `max` bytes into `buf`, never past
    /// the newline.
    fn read_limited_line(
        reader: &mut impl BufRead,
        buf: &mut Vec<u8>,
        max: usize,
    ) -> io::Result<Event> {
        buf.clear();
        // The extra byte tells "exactly max bytes, then a newline" from
        // "longer than max".
        let read = reader
            .take((max as u64).saturating_add(1))
            .read_until(b'\n', buf)?;
        if read == 0 {
            return Ok(Event::Eof);
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
            return Ok(Event::Line);
        }
        if read <= max {
            return Ok(Event::MidLineEof);
        }
        let mut rest = Vec::new();
        loop {
            rest.clear();
            let n = reader.take(8192).read_until(b'\n', &mut rest)?;
            if n == 0 || rest.last() == Some(&b'\n') {
                return Ok(Event::Oversized);
            }
        }
    }

    /// Ground truth: the reference framer over the whole input, feeding the
    /// same protocol engine.
    fn reference_replies(input: &[u8], opts: &SessionOpts) -> Vec<u8> {
        let (registry, pool, _) = fixture();
        let mut reader = input;
        let mut state = SessionState::new();
        let mut line = Vec::new();
        let mut out = Vec::new();
        loop {
            match read_limited_line(&mut reader, &mut line, opts.max_line).expect("read") {
                Event::Eof | Event::MidLineEof => break,
                Event::Oversized => state.push_oversized(opts.max_line),
                Event::Line => {
                    if state
                        .on_line(&registry, &pool, &line, &mut out, opts)
                        .expect("line")
                        == Step::Quit
                    {
                        return out;
                    }
                }
            }
            if state.pending_len() >= opts.batch {
                state.flush(&registry, &pool, &mut out).expect("flush");
            }
        }
        state.flush(&registry, &pool, &mut out).expect("flush");
        out
    }

    fn assert_identical(input: &[u8], chunks: &[usize]) {
        let (_, _, opts) = fixture();
        let framed = conn_replies(input, chunks, &opts);
        let reference = reference_replies(input, &opts);
        assert_eq!(
            String::from_utf8_lossy(&framed),
            String::from_utf8_lossy(&reference),
            "chunking {chunks:?} of {:?} diverged from the reference framer",
            String::from_utf8_lossy(input),
        );
    }

    #[test]
    fn whole_lines_match_blocking_mode() {
        let input = b"out 0\nPING\ndegrees\nreach 0 4\nbogus 9\nout 3\n";
        assert_identical(input, &[input.len()]);
    }

    #[test]
    fn one_byte_dribble_matches_blocking_mode() {
        let input = b"out 0\ndegrees\nt9:out 0\nreach 0 2\n";
        let chunks: Vec<usize> = input.iter().map(|_| 1).collect();
        assert_identical(input, &chunks);
    }

    #[test]
    fn oversized_line_is_one_error_and_next_line_parses() {
        let long = vec![b'x'; 200];
        let mut input = long.clone();
        input.push(b'\n');
        input.extend_from_slice(b"out 0\n");
        // Split mid-oversized-line so discard mode spans reads.
        assert_identical(&input, &[50, 100, input.len() - 150]);
    }

    #[test]
    fn oversized_line_without_newline_still_errors_at_eof() {
        let input = vec![b'y'; 300];
        assert_identical(&input, &[128, 128, 44]);
    }

    #[test]
    fn partial_line_at_eof_is_discarded_silently() {
        let input = b"out 0\ndegre"; // no trailing newline
        assert_identical(input, &[6, 5]);
    }

    #[test]
    fn mid_utf8_split_matches_blocking_mode() {
        // A multi-byte char split across reads must reassemble (valid line
        // that fails to parse) — and a torn one must yield the UTF-8 error.
        let input = "caf\u{e9} out\nout 0\n".as_bytes();
        for split in 1..input.len() {
            assert_identical(input, &[split, input.len() - split]);
        }
    }

    #[test]
    fn crlf_lines_match_blocking_mode() {
        let input = b"out 0\r\nPING\r\ndegrees\r\n";
        assert_identical(input, &[3, 3, 3, 3, 3, 8]);
    }

    #[test]
    fn input_after_quit_is_never_served() {
        let input = b"out 0\nQUIT\nout 1\ndegrees\n";
        assert_identical(input, &[input.len()]);
        let (_, _, opts) = fixture();
        let framed = conn_replies(input, &[input.len()], &opts);
        let text = String::from_utf8(framed).expect("utf8");
        assert_eq!(text.lines().count(), 2, "replies after QUIT leaked: {text}");
    }

    #[test]
    fn exact_max_line_is_served_and_one_more_byte_is_oversized() {
        let (_, _, opts) = fixture();
        let at_limit = vec![b'z'; opts.max_line];
        let mut input = at_limit.clone();
        input.push(b'\n');
        input.extend_from_slice(&vec![b'z'; opts.max_line + 1]);
        input.push(b'\n');
        input.extend_from_slice(b"out 0\n");
        assert_identical(&input, &[1; 4]);
        assert_identical(&input, &[input.len()]);
    }

    #[test]
    fn backpressure_flag_tracks_outbuf() {
        let (registry, pool, opts) = fixture();
        let mut conn = Conn::new(&registry, &pool, &opts);
        assert!(conn.wants_read());
        conn.outbuf = vec![0u8; OUTBUF_BACKPRESSURE + 1];
        assert!(!conn.wants_read(), "too many unsent replies stop the reads");
        assert!(conn.wants_write());
    }
}
