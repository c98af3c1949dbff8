//! The reactor thread: a thin epoll (or scan) driver that moves bytes and
//! worker frames to connection machines ([`crate::conn`]), bytes back to
//! sockets, and keeps the poller's interest in step with what each machine
//! wants. What a request means is decided elsewhere.

use crate::conn::Conn;
use crate::dispatch::Dispatch;
use crate::reactor::{raw_fd, Poller};
use crate::server::{Completion, Job, Server};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, Sender};
use std::time::{Duration, Instant};

/// Poller tokens: the listening socket, the waker's read end, and the
/// first one handed to an accepted connection.
const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const TOKEN_FIRST_CONN: u64 = 2;
/// The longest the reactor sleeps with nothing to do: worker frames and
/// shutdown arrive through the waker, so this only bounds how long a lost
/// wakeup could last.
const IDLE_TICK: Duration = Duration::from_millis(50);
/// How long shutdown keeps flushing already-buffered final frames to
/// slow readers before dropping them.
const SHUTDOWN_FLUSH_GRACE: Duration = Duration::from_secs(5);

/// One accepted connection: its socket, its machine, and the interest
/// (read, write) currently registered with the poller.
struct Slot {
    stream: TcpStream,
    conn: Conn,
    interest: (bool, bool),
}

/// The event loop that owns every connection. The only cross-thread
/// traffic is the job queue out, the completion queue in, and wake bytes.
pub(crate) struct Driver<'a> {
    srv: &'a Server,
    dispatch: Dispatch<'a>,
    /// Every worker's frames, under their connection's token.
    done: Receiver<Completion>,
    poller: Poller,
    conns: HashMap<u64, Slot>,
    next_token: u64,
    /// Scratch token lists, reused so a loop iteration does not allocate.
    ready: Vec<u64>,
    tokens: Vec<u64>,
    /// When the shutdown drain began (bounds the flush grace).
    shutdown_seen: Option<Instant>,
}

impl<'a> Driver<'a> {
    pub fn new(srv: &'a Server, jobs: Sender<Job>, done: Receiver<Completion>) -> Driver<'a> {
        Driver {
            srv,
            dispatch: Dispatch::new(srv, jobs, Instant::now),
            done,
            poller: Poller::new(srv.config.poller),
            conns: HashMap::new(),
            next_token: TOKEN_FIRST_CONN,
            ready: Vec::new(),
            tokens: Vec::new(),
            shutdown_seen: None,
        }
    }

    pub fn run(mut self) {
        self.srv.listener.set_nonblocking(true).expect("nonblocking listener");
        self.poller.register(raw_fd(&self.srv.listener), TOKEN_LISTENER);
        self.poller.register(self.srv.waker.fd(), TOKEN_WAKER);
        let mut did_work = true;
        loop {
            // Arm before draining: a frame a worker queues between this
            // drain and the wait leaves a wake byte the wait will see —
            // never a lost wakeup.
            self.srv.waker.arm();
            did_work |= self.complete();
            self.poller.set_idle(!did_work);
            // Level-triggered: a socket that is already ready ends the
            // wait at once, so the tick only bounds an idle sleep.
            let mut ready = std::mem::take(&mut self.ready);
            self.poller.wait(&mut ready, IDLE_TICK);
            did_work = false;
            for &token in &ready {
                match token {
                    TOKEN_LISTENER => did_work |= self.accept_ready(),
                    TOKEN_WAKER => self.srv.waker.drain(),
                    token => did_work |= self.conn_ready(token),
                }
            }
            self.ready = ready;
            did_work |= self.complete();
            if self.srv.shutdown.load(Ordering::Acquire) && self.drain_shutdown() {
                return;
            }
        }
    }

    /// Accepts every pending connection (level-triggered: drain until
    /// `WouldBlock`). Under shutdown, late connectors are accepted and
    /// dropped.
    fn accept_ready(&mut self) -> bool {
        let mut any = false;
        loop {
            match self.srv.listener.accept() {
                Ok((stream, _)) => {
                    any = true;
                    if self.srv.shutdown.load(Ordering::Acquire) {
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    self.poller.register(raw_fd(&stream), token);
                    self.srv.obs.connections_open.add(1);
                    let slot = Slot { stream, conn: Conn::new(token), interest: (true, false) };
                    self.conns.insert(token, slot);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        any
    }

    /// One connection's socket reported ready (or the scan backend is
    /// probing it): flush, read, settle.
    fn conn_ready(&mut self, token: u64) -> bool {
        let Some(slot) = self.conns.get_mut(&token) else { return false };
        let work = flush(slot) | read(slot, Instant::now(), &mut self.dispatch);
        work | self.settle(token)
    }

    /// Hands every frame the workers queued to its connection, then
    /// settles each connection that got one, once: a burst of partials is
    /// one write. Returns whether any frame arrived.
    fn complete(&mut self) -> bool {
        let mut tokens = std::mem::take(&mut self.tokens);
        tokens.clear();
        let now = Instant::now();
        while let Ok((token, response)) = self.done.try_recv() {
            // A connection is never removed with a job in flight, so
            // every frame finds the connection its job came from.
            let slot = self.conns.get_mut(&token).expect("a job's connection outlives it");
            slot.conn.deliver(response, now, &mut self.dispatch);
            tokens.push(token);
        }
        tokens.sort_unstable();
        tokens.dedup();
        for &token in &tokens {
            self.settle(token);
        }
        let work = !tokens.is_empty();
        self.tokens = tokens;
        work
    }

    /// Flushes, then closes a finished connection or brings the poller's
    /// interest in line with what its machine waits for (a wakeup hint,
    /// not a correctness gate: the scan backend reports every token).
    /// Returns whether the socket took any bytes.
    fn settle(&mut self, token: u64) -> bool {
        let Some(slot) = self.conns.get_mut(&token) else { return false };
        let work = flush(slot);
        if slot.conn.done() {
            let slot = self.conns.remove(&token).expect("present");
            let (frames, errors) = slot.conn.tally();
            let obs = &self.srv.obs;
            obs.registry.journal().record(obs.conn_close, frames, errors, 0.0, 0.0);
            obs.connections_open.add(-1);
            self.poller.deregister(raw_fd(&slot.stream), token);
            return work;
        }
        let interest = (slot.conn.wants_read(), !slot.conn.pending().is_empty());
        if interest != slot.interest {
            self.poller.set_interest(raw_fd(&slot.stream), token, interest.0, interest.1);
            slot.interest = interest;
        }
        work
    }

    /// Runs every loop iteration once the shutdown flag is up — the one
    /// visit to every connection: refuse late connectors, stop serving,
    /// cancel drives, retire idle connections, and keep flushing until
    /// every admitted job has answered with its final frame; slow readers
    /// get [`SHUTDOWN_FLUSH_GRACE`]. True once no connections remain.
    fn drain_shutdown(&mut self) -> bool {
        self.accept_ready();
        let now = Instant::now();
        let grace_expired = now - *self.shutdown_seen.get_or_insert(now) > SHUTDOWN_FLUSH_GRACE;
        for token in self.conns.keys().copied().collect::<Vec<_>>() {
            self.conns.get_mut(&token).expect("present").conn.shutdown(grace_expired);
            self.settle(token);
        }
        self.conns.is_empty()
    }
}

/// Reads whatever the socket has into the machine, for as long as the
/// machine wants to read: once it serves a plain job, the rest of the
/// client's bytes wait in the kernel buffer until the job answers.
fn read(slot: &mut Slot, now: Instant, dispatch: &mut Dispatch) -> bool {
    let mut work = false;
    let mut scratch = [0u8; 4096];
    while slot.conn.wants_read() {
        match (&slot.stream).read(&mut scratch) {
            Ok(0) => {
                slot.conn.eof(dispatch);
                return true;
            }
            Ok(n) => {
                work = true;
                slot.conn.received(&scratch[..n], now, dispatch);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                slot.conn.broken();
                return true;
            }
        }
    }
    work
}

/// Writes as much of the machine's pending bytes as the socket takes.
fn flush(slot: &mut Slot) -> bool {
    let mut work = false;
    while !slot.conn.pending().is_empty() {
        match (&slot.stream).write(slot.conn.pending()) {
            Ok(n) if n > 0 => {
                slot.conn.wrote(n);
                work = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            _ => {
                slot.conn.broken();
                break;
            }
        }
    }
    work
}
