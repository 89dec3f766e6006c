//! The epoll front end: one readiness loop owning every client socket
//! (DESIGN.md §11).
//!
//! Bound via raw `epoll_create1`/`epoll_ctl`/`epoll_wait` syscalls in the
//! same no-libc-crate spirit as `signal.rs`: the C library is already
//! linked (std links it), so `extern "C"` declarations are all the binding
//! needs — no new dependency, which matters in this offline build.
//!
//! What is the reactor's own is *who waits on the sockets*: the epoll set,
//! a slot per connection (socket, peer, epoll mask, idle clock, ledger
//! entry) and one read buffer. Everything else it shares with thread mode:
//! admission is `Server::accept_one`, the connection engine is `conn.rs`'s
//! `Conn` (framing, protocol, reply buffer), the drain deadline and its log
//! lines are the server's, and a connection leaves the ledger when its
//! slot drops.
//!
//! The loop is level-triggered. Each wakeup: admit a burst of new
//! connections (token 0), then for each ready connection read a bounded
//! burst into its `Conn` and opportunistically flush its replies. Query
//! evaluation itself still runs on the shared
//! [`WorkerPool`](crate::pool::WorkerPool) — the reactor thread only moves
//! bytes, so the process thread count stays flat no matter how many clients
//! connect (`tests/connections.rs` holds 2 048 on it).
//!
//! Drain (`SHUTDOWN`/`SIGTERM`, DESIGN.md §10.4) deregisters the listener,
//! closes every connection's input — what it read is answered — and drops
//! each connection as its replies reach the socket; at the drain deadline
//! the stragglers drop with the slot map.

use crate::server::Server;

/// Run the reactor until stop or drain completes. On non-Linux targets the
/// epoll syscalls do not exist; `--io epoll` is rejected at flag-parse
/// time, and this stub keeps the crate compiling there.
pub(crate) fn run(server: &Server) -> std::io::Result<()> {
    imp::run(server)
}

#[cfg(target_os = "linux")]
mod imp {
    use std::collections::HashMap;
    use std::io;
    use std::net::{SocketAddr, TcpStream};
    use std::os::fd::{AsRawFd, RawFd};
    use std::sync::atomic::Ordering;
    use std::time::{Duration, Instant};

    use grepair_util::fail;

    use crate::conn::{Conn, READ_CHUNK};
    use crate::server::{accept_backoff, log_session_end, Entry, Server};

    // epoll_ctl ops (uapi/linux/eventpoll.h).
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    // Event bits.
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    /// Peer shut down its write side — drain what it already sent.
    const EPOLLRDHUP: u32 = 0x2000;
    /// `EPOLL_CLOEXEC`: same value as `O_CLOEXEC`.
    const EPOLL_CLOEXEC: i32 = 0o2000000;

    /// Kernel event record. x86-64 declares it packed (the 32-bit layout,
    /// kept for binary compatibility); other architectures use natural
    /// alignment. Fields are only ever read by copy, never borrowed, so
    /// the unaligned layout is safe to use from Rust.
    #[derive(Clone, Copy)]
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    /// Owned epoll instance; closed on drop.
    struct Epoll(RawFd);

    impl Epoll {
        fn new() -> io::Result<Self> {
            // SAFETY: epoll_create1 takes no pointers; it returns a new fd
            // or -1, and we check for -1 before using the result.
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd == -1 {
                return Err(io::Error::last_os_error());
            }
            Ok(Self(fd))
        }

        fn ctl(&self, op: i32, fd: RawFd, mask: u32, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent { events: mask, data: token };
            // SAFETY: `ev` is a live stack value for the duration of the
            // call; the kernel copies it (ADD/MOD) or ignores it (DEL) and
            // never retains the pointer past the syscall.
            let rc = unsafe { epoll_ctl(self.0, op, fd, &mut ev) };
            if rc == -1 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        fn add(&self, fd: RawFd, mask: u32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, mask, token)
        }

        fn modify(&self, fd: RawFd, mask: u32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, mask, token)
        }

        /// Best-effort deregistration (the listener, at a drain; closing a
        /// connection's fd deregisters it by itself), so errors are
        /// ignored.
        fn del(&self, fd: RawFd) {
            let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, 0);
        }

        /// Wait up to `timeout_ms` for ready fds; `Ok(n)` events filled.
        fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
            // SAFETY: `events` is a live, writable slice; `maxevents` is
            // its exact length, so the kernel writes only within bounds.
            let n = unsafe {
                epoll_wait(self.0, events.as_mut_ptr(), events.len() as i32, timeout_ms)
            };
            if n == -1 {
                return Err(io::Error::last_os_error());
            }
            Ok(n as usize)
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            // SAFETY: self.0 is the fd epoll_create1 returned and nothing
            // else closes it; double-close is impossible because Drop runs
            // once.
            unsafe {
                close(self.0);
            }
        }
    }

    /// The listener's token; connection tokens start above it.
    const LISTENER: u64 = 0;
    /// Events fetched per `epoll_wait` call.
    const MAX_EVENTS: usize = 256;
    /// Idle tick: bounds how stale a stop/drain check can get when no
    /// socket is ready (the stop self-connect also wakes the listener).
    const TICK_MS: i32 = 100;
    /// How often the idle sweep checks `read_timeout` expiries.
    const SWEEP_EVERY: Duration = Duration::from_millis(250);
    /// Read at most this many chunks per readiness wakeup. The loop is
    /// level-triggered, so a client with more buffered data just gets
    /// another wakeup; capping the burst keeps one firehose client from
    /// starving the rest of the event batch.
    const MAX_CHUNKS_PER_WAKEUP: usize = 4;

    /// A registered connection: the socket and what only the reactor needs
    /// about it, beside the shared engine. Dropping a slot closes the
    /// socket — which also takes it out of the epoll set, since the
    /// reactor never duplicates a connection's fd — and leaves the ledger.
    struct Slot<'s> {
        stream: TcpStream,
        peer: SocketAddr,
        conn: Conn<'s>,
        _entry: Entry,
        /// The event mask epoll currently has (re-registered only when
        /// interest changes).
        mask: u32,
        /// Last byte moved either way; the idle sweep's clock.
        last_activity: Instant,
    }

    impl Slot<'_> {
        fn desired_mask(&self) -> u32 {
            let mut mask = EPOLLRDHUP;
            if self.conn.wants_read() {
                mask |= EPOLLIN;
            }
            if self.conn.wants_write() {
                mask |= EPOLLOUT;
            }
            mask
        }

        /// Re-register the connection with epoll if its interest changed.
        fn rearm(&mut self, epoll: &Epoll, token: u64) -> io::Result<()> {
            let want = self.desired_mask();
            if want != self.mask {
                epoll.modify(self.stream.as_raw_fd(), want, token)?;
                self.mask = want;
            }
            Ok(())
        }

        /// Read a bounded burst into the engine (one `read` per chunk of
        /// the reactor's buffer).
        fn read_burst(&mut self, buf: &mut [u8]) -> io::Result<()> {
            // A fired `conn.read` fault is a transport error on this one
            // connection, exactly like `session.read` in thread mode.
            fail::point("conn.read").map_err(io::Error::other)?;
            for _ in 0..MAX_CHUNKS_PER_WAKEUP {
                match self.conn.read_from(&mut self.stream, buf) {
                    Ok(n) => {
                        self.last_activity = Instant::now();
                        if n < buf.len() || !self.conn.wants_read() {
                            break; // socket buffer drained, or stop reading
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) => return Err(e),
                }
            }
            Ok(())
        }

        /// Push as much of the queued replies as the kernel takes.
        fn write_out(&mut self) -> io::Result<()> {
            if !self.conn.wants_write() {
                return Ok(());
            }
            // A fired `conn.write` fault is a transport error on this one
            // connection, like `session.write` in thread mode.
            fail::point("conn.write").map_err(io::Error::other)?;
            if self.conn.write_to(&mut self.stream)? > 0 {
                self.last_activity = Instant::now();
            }
            Ok(())
        }
    }

    pub(crate) fn run(server: &Server) -> io::Result<()> {
        server.listener.set_nonblocking(true)?;
        let epoll = Epoll::new()?;
        epoll.add(server.listener.as_raw_fd(), EPOLLIN, LISTENER)?;
        let mut conns: HashMap<u64, Slot<'_>> = HashMap::new();
        let mut next_token: u64 = LISTENER + 1;
        let mut events = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        // One read buffer for every connection: a read is framed into
        // lines (and a partial line into its `Conn`) before the next.
        let mut buf = vec![0u8; READ_CHUNK];
        let mut failures = 0u32;
        let mut drain_deadline: Option<Instant> = None;
        let mut last_sweep = Instant::now();
        loop {
            // A drain takes precedence over the plain stop the drain
            // watcher also sets: stop accepting, answer what every
            // connection has read, then let each close as its replies
            // reach the socket. A connection left with unsent replies is
            // re-armed for what it now waits on — writable, no longer
            // readable — or it would sit out the drain deadline.
            if server.drain.load(Ordering::Relaxed) && drain_deadline.is_none() {
                drain_deadline = Some(server.begin_drain());
                epoll.del(server.listener.as_raw_fd());
                conns.retain(|&token, slot| {
                    let alive = slot.conn.close().and_then(|()| slot.write_out()).is_ok();
                    let keep = alive && !slot.conn.finished();
                    if keep {
                        let _ = slot.rearm(&epoll, token);
                    }
                    keep
                });
            }
            match drain_deadline {
                // Whatever is left in `conns` drops with it (and leaves
                // the ledger) on return.
                Some(deadline) => {
                    if conns.is_empty() || server.drain_overdue(deadline) {
                        return Ok(());
                    }
                }
                None => {
                    if server.stop.load(Ordering::Relaxed) {
                        return Ok(());
                    }
                }
            }
            // A fired `reactor.wait` fault is a transient readiness-loop
            // failure: log, back off, keep serving — the same
            // degrade-don't-die contract as the accept loop.
            #[expect(
                clippy::print_stderr,
                reason = "operator log from the reactor; stderr is the server's log surface"
            )]
            if let Err(e) = fail::point("reactor.wait") {
                eprintln!("reactor wait failed: {e}");
                std::thread::sleep(accept_backoff(1));
                continue;
            }
            let n = match epoll.wait(&mut events, TICK_MS) {
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            for ev in events.iter().take(n) {
                // Copy out of the (possibly packed) kernel record; packed
                // fields must not be borrowed.
                let token = ev.data;
                let bits = ev.events;
                if token == LISTENER {
                    if drain_deadline.is_none() {
                        accept_burst(server, &epoll, &mut conns, &mut next_token, &mut failures);
                    }
                    continue;
                }
                let Some(slot) = conns.get_mut(&token) else {
                    continue; // already dropped this wakeup
                };
                match handle_event(slot, bits, &mut buf) {
                    Err(e) => {
                        log_session_end(slot.peer, Err(e));
                        conns.remove(&token);
                    }
                    Ok(()) if slot.conn.finished() => {
                        conns.remove(&token);
                    }
                    Ok(()) => {
                        // A failed re-registration keeps the old mask; the
                        // next event retries.
                        let _ = slot.rearm(&epoll, token);
                    }
                }
            }
            // Idle sweep: enforce read_timeout on parked connections, the
            // reactor's analogue of thread mode's SO_RCVTIMEO cutoff
            // (silent there, silent here). Also reaps draining stragglers
            // whose replies flushed between wakeups.
            if last_sweep.elapsed() >= SWEEP_EVERY {
                last_sweep = Instant::now();
                let timeout = server.read_timeout;
                conns.retain(|_, slot| {
                    let idle = timeout
                        .is_some_and(|t| !slot.conn.closing() && slot.last_activity.elapsed() >= t);
                    !(slot.conn.finished() || idle)
                });
            }
        }
    }

    /// Admit connections until the backlog is empty or an accept fails,
    /// through the admission path thread mode uses too.
    fn accept_burst<'s>(
        server: &'s Server,
        epoll: &Epoll,
        conns: &mut HashMap<u64, Slot<'s>>,
        next_token: &mut u64,
        failures: &mut u32,
    ) {
        while let Ok(admitted) = server.accept_one(failures) {
            let Some((stream, peer, entry)) = admitted else { continue };
            let conn = Conn::new(&server.registry, &server.pool, &server.opts);
            let mut slot =
                Slot { stream, peer, conn, _entry: entry, mask: 0, last_activity: Instant::now() };
            slot.mask = slot.desired_mask();
            let token = *next_token;
            *next_token += 1;
            // A socket that cannot be made non-blocking or watched is
            // dropped, and leaves the ledger with its slot.
            if slot.stream.set_nonblocking(true).is_ok()
                && epoll.add(slot.stream.as_raw_fd(), slot.mask, token).is_ok()
            {
                conns.insert(token, slot);
            }
        }
    }

    /// Drive one connection through its ready events. `Err` means the
    /// connection died and must be dropped; a socket error (`EPOLLERR`)
    /// surfaces from the read, or from the write when it is not reading.
    fn handle_event(slot: &mut Slot<'_>, bits: u32, buf: &mut [u8]) -> io::Result<()> {
        if bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0 && slot.conn.wants_read() {
            slot.read_burst(buf)?;
        }
        // Optimistic flush: the kernel send buffer almost always has room,
        // so replies usually leave without waiting for an EPOLLOUT round
        // trip.
        slot.write_out()
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use crate::server::Server;

    pub(crate) fn run(_server: &Server) -> std::io::Result<()> {
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "epoll io mode requires linux",
        ))
    }
}
