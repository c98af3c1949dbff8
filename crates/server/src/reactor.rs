//! Readiness polling for the connection reactor — std-only.
//!
//! The daemon serves every connection from **one** reactor thread (plus
//! the worker pool), so it needs a way to sleep until any of thousands
//! of sockets becomes readable. Two backends provide it:
//!
//! - [`Epoll`] (Linux): hand-declared FFI over `epoll_create1` /
//!   `epoll_ctl` / `epoll_wait` — no crates, keeping the hermetic guard
//!   intact. Level-triggered, so the reactor never misses bytes that
//!   arrived while it was busy.
//! - [`Scan`] (everywhere): a portable fallback that reports *every*
//!   registered token as ready and sleeps ~1 ms when the previous sweep
//!   found nothing. The reactor then try-reads each non-blocking socket
//!   and treats `WouldBlock` as "not ready" — O(connections) per sweep,
//!   but correct, and the 1 ms idle sleep bounds the busy-wait.
//!
//! Both backends speak the same [`Poller`] API keyed by opaque `u64`
//! tokens, so the reactor proper is backend-agnostic. Worker threads
//! wake a sleeping reactor through [`Waker`]: a Unix socket pair whose
//! read end is registered like any connection, with an `armed` flag so
//! an idle reactor costs one wake byte, not one per reply.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Which readiness backend a server uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PollerKind {
    /// Epoll where the platform has it (Linux), [`PollerKind::Scan`]
    /// elsewhere.
    #[default]
    Auto,
    /// Force the portable non-blocking scan fallback (used by tests to
    /// cover the fallback path on any platform).
    Scan,
}

/// One readiness poller instance. Tokens are caller-chosen `u64`s; a
/// poll returns the ready tokens (or, for the scan backend, all of
/// them — spurious readiness is allowed by contract, missed readiness
/// is not).
pub enum Poller {
    /// Linux epoll backend.
    #[cfg(target_os = "linux")]
    Epoll(Epoll),
    /// Portable scan backend.
    Scan(Scan),
}

impl Poller {
    /// Opens the preferred backend for `kind` (Auto picks epoll on
    /// Linux, falling back to scan if the syscall fails).
    pub fn new(kind: PollerKind) -> Poller {
        match kind {
            PollerKind::Scan => Poller::Scan(Scan::default()),
            PollerKind::Auto => {
                #[cfg(target_os = "linux")]
                {
                    match Epoll::new() {
                        Ok(ep) => return Poller::Epoll(ep),
                        Err(e) => eprintln!("warning: epoll unavailable ({e}), using scan poller"),
                    }
                }
                Poller::Scan(Scan::default())
            }
        }
    }

    /// Registers a socket for read-readiness under `token`.
    pub fn register(&mut self, fd: RawFd, token: u64) {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(ep) => ep.register(fd, token),
            Poller::Scan(s) => s.register(token),
        }
    }

    /// Adjusts interest for an already registered socket: `read` is
    /// dropped while a non-streaming job is in flight (the connection
    /// must not decode further frames, and level-triggered readiness
    /// would spin otherwise), `write` is held while the outbound buffer
    /// is nonempty. Interest is a wakeup hint only — the reactor checks
    /// connection state before acting, which is what keeps the scan
    /// backend (where this is a no-op) correct.
    pub fn set_interest(&mut self, fd: RawFd, token: u64, read: bool, write: bool) {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(ep) => ep.set_interest(fd, token, read, write),
            Poller::Scan(_) => {}
        }
    }

    /// Deregisters a socket.
    pub fn deregister(&mut self, fd: RawFd, token: u64) {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(ep) => ep.deregister(fd),
            Poller::Scan(s) => s.deregister(token),
        }
    }

    /// Blocks until at least one token is ready or `timeout` elapses,
    /// appending ready tokens to `out` (cleared first). The scan
    /// backend appends every registered token and sleeps only when the
    /// caller reported the previous sweep idle via [`Poller::set_idle`].
    pub fn wait(&mut self, out: &mut Vec<u64>, timeout: Duration) {
        out.clear();
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(ep) => ep.wait(out, timeout),
            Poller::Scan(s) => s.wait(out, timeout),
        }
    }

    /// Scan backend only: tells the poller whether the last sweep did
    /// any work. An idle sweep makes the next wait sleep (bounded by
    /// its timeout, capped at ~1 ms) instead of spinning.
    pub fn set_idle(&mut self, idle: bool) {
        if let Poller::Scan(s) = self {
            s.idle = idle;
        }
    }
}

/// Raw file descriptor alias (std's `RawFd` is Unix-only; the daemon
/// only builds on Unix-likes today, but the alias keeps one spelling).
pub type RawFd = i32;

/// Extracts the raw fd from any socket type we register.
pub fn raw_fd(sock: &impl std::os::fd::AsRawFd) -> RawFd {
    sock.as_raw_fd()
}

// ---------------------------------------------------------------------
// Linux epoll backend: hand-declared FFI, no crates.
// ---------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod epoll_sys {
    use super::RawFd;

    pub const EPOLL_CLOEXEC: i32 = 0x80000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLRDHUP: u32 = 0x2000;

    /// Kernel `struct epoll_event`. Packed on x86-64 (the kernel ABI),
    /// natural alignment elsewhere.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: i32) -> RawFd;
        pub fn epoll_ctl(epfd: RawFd, op: i32, fd: RawFd, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(
            epfd: RawFd,
            events: *mut EpollEvent,
            maxevents: i32,
            timeout_ms: i32,
        ) -> i32;
        pub fn close(fd: RawFd) -> i32;
    }
}

/// The Linux epoll backend (level-triggered).
#[cfg(target_os = "linux")]
pub struct Epoll {
    epfd: RawFd,
    events: Vec<epoll_sys::EpollEvent>,
}

#[cfg(target_os = "linux")]
impl Epoll {
    fn new() -> std::io::Result<Epoll> {
        let epfd = unsafe { epoll_sys::epoll_create1(epoll_sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Epoll { epfd, events: vec![epoll_sys::EpollEvent { events: 0, data: 0 }; 1024] })
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) {
        let mut ev = epoll_sys::EpollEvent { events, data: token };
        let rc = unsafe { epoll_sys::epoll_ctl(self.epfd, op, fd, &mut ev) };
        debug_assert!(rc == 0, "epoll_ctl failed: {}", std::io::Error::last_os_error());
    }

    fn register(&mut self, fd: RawFd, token: u64) {
        self.ctl(epoll_sys::EPOLL_CTL_ADD, fd, epoll_sys::EPOLLIN | epoll_sys::EPOLLRDHUP, token);
    }

    fn set_interest(&mut self, fd: RawFd, token: u64, read: bool, write: bool) {
        let mut events = 0;
        if read {
            events |= epoll_sys::EPOLLIN | epoll_sys::EPOLLRDHUP;
        }
        if write {
            events |= epoll_sys::EPOLLOUT;
        }
        self.ctl(epoll_sys::EPOLL_CTL_MOD, fd, events, token);
    }

    fn deregister(&mut self, fd: RawFd) {
        let rc = unsafe {
            epoll_sys::epoll_ctl(self.epfd, epoll_sys::EPOLL_CTL_DEL, fd, std::ptr::null_mut())
        };
        let _ = rc; // a racing close already removed it — fine either way
    }

    fn wait(&mut self, out: &mut Vec<u64>, timeout: Duration) {
        let timeout_ms = timeout.as_millis().min(i32::MAX as u128) as i32;
        let n = unsafe {
            epoll_sys::epoll_wait(
                self.epfd,
                self.events.as_mut_ptr(),
                self.events.len() as i32,
                timeout_ms,
            )
        };
        for ev in self.events.iter().take(n.max(0) as usize) {
            // A packed-field read copies by value, which is all we need.
            out.push(ev.data);
        }
    }
}

#[cfg(target_os = "linux")]
impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe { epoll_sys::close(self.epfd) };
    }
}

// ---------------------------------------------------------------------
// Portable scan backend.
// ---------------------------------------------------------------------

/// The portable fallback: reports every registered token as ready and
/// sleeps briefly between idle sweeps. Spurious readiness is absorbed
/// by the reactor's non-blocking reads.
#[derive(Default)]
pub struct Scan {
    tokens: Vec<u64>,
    idle: bool,
}

impl Scan {
    fn register(&mut self, token: u64) {
        self.tokens.push(token);
    }

    fn deregister(&mut self, token: u64) {
        self.tokens.retain(|&t| t != token);
    }

    fn wait(&mut self, out: &mut Vec<u64>, timeout: Duration) {
        if self.idle {
            std::thread::sleep(timeout.min(Duration::from_millis(1)));
        }
        out.extend_from_slice(&self.tokens);
    }
}

// ---------------------------------------------------------------------
// Waker: a Unix socket pair.
// ---------------------------------------------------------------------

/// Wakes a sleeping reactor from worker threads. Implemented as a
/// Unix socket pair — the read end registers with the poller like any
/// connection; [`Waker::wake`] writes one byte, and only when the
/// reactor has armed it (so a streaming worker emitting thousands of
/// partials costs one byte per reactor sleep, not one per frame).
pub struct Waker {
    tx: UnixStream,
    rx: UnixStream,
    armed: AtomicBool,
}

impl Waker {
    /// Builds the pair: no address, so no other process can reach it.
    pub fn new() -> std::io::Result<Waker> {
        let (tx, rx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        Ok(Waker { tx, rx, armed: AtomicBool::new(false) })
    }

    /// The read end's fd, for poller registration.
    pub fn fd(&self) -> RawFd {
        raw_fd(&self.rx)
    }

    /// Arms the waker: the next [`Waker::wake`] will write a byte.
    /// Called by the reactor just before it sleeps.
    pub fn arm(&self) {
        self.armed.store(true, Ordering::Release);
    }

    /// Wakes the reactor if armed; a no-op otherwise.
    pub fn wake(&self) {
        if self.armed.swap(false, Ordering::AcqRel) {
            let _ = (&self.tx).write(&[1]);
        }
    }

    /// Drains any pending wake bytes (reactor side, after a poll).
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waker_wakes_only_when_armed() {
        let waker = Waker::new().unwrap();
        // Unarmed wake: no byte crosses.
        waker.wake();
        let mut buf = [0u8; 8];
        assert!(matches!(
            (&waker.rx).read(&mut buf),
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock
        ));
        // Armed wake: exactly one byte, and the arm is consumed.
        waker.arm();
        waker.wake();
        waker.wake(); // second is a no-op until re-armed
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!((&waker.rx).read(&mut buf).unwrap(), 1);
        waker.drain();
    }

    #[test]
    fn scan_poller_reports_all_registered_tokens() {
        let mut p = Poller::new(PollerKind::Scan);
        assert!(matches!(p, Poller::Scan(_)));
        p.register(3, 10);
        p.register(4, 11);
        let mut out = Vec::new();
        p.wait(&mut out, Duration::from_millis(1));
        assert_eq!(out, vec![10, 11]);
        p.deregister(3, 10);
        p.wait(&mut out, Duration::from_millis(1));
        assert_eq!(out, vec![11]);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_sees_readable_socket() {
        use std::net::{TcpListener, TcpStream};
        let mut p = Poller::new(PollerKind::Auto);
        assert!(matches!(p, Poller::Epoll(_)), "auto must pick epoll on linux");
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (rx, _) = listener.accept().unwrap();
        rx.set_nonblocking(true).unwrap();
        p.register(raw_fd(&rx), 7);
        let mut out = Vec::new();
        p.wait(&mut out, Duration::from_millis(0));
        assert!(out.is_empty(), "no bytes yet");
        (&tx).write_all(&[9]).unwrap();
        p.wait(&mut out, Duration::from_millis(1000));
        assert_eq!(out, vec![7]);
        // Level-triggered: still ready until drained.
        p.wait(&mut out, Duration::from_millis(1000));
        assert_eq!(out, vec![7]);
        let mut buf = [0u8; 4];
        assert_eq!((&rx).read(&mut buf).unwrap(), 1);
        p.deregister(raw_fd(&rx), 7);
        p.wait(&mut out, Duration::from_millis(0));
        assert!(out.is_empty());
    }
}
