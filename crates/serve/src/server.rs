//! The nonblocking, event-loop HTTP front end.
//!
//! The host serving this daemon is small (often 1 core), so concurrency
//! comes from **I/O multiplexing, not threads**: a single event-loop
//! thread owns the listener and every connection through an epoll
//! readiness loop (the offline [`mio`] shim), and a small pool of
//! compute workers runs the [`Handler`]. The two sides meet at a
//! **bounded** job queue — the admission-control point.
//!
//! ## Connection lifecycle
//!
//! `accept` → nonblocking reads accumulate into a per-connection input
//! buffer → the incremental parser ([`crate::http::parse_request`])
//! peels off complete requests — **keep-alive with pipelining**, so one
//! buffer fill can yield several. Each request gets a sequence number
//! and is pushed to the job queue; finished responses come back on a
//! completion queue (the loop is woken through a self-pipe) and are
//! serialized **strictly in sequence order**, so pipelined responses
//! can never reorder no matter how the compute pool interleaves.
//! Writes are nonblocking with a per-connection output buffer;
//! `WRITABLE` interest exists only while that buffer is non-empty.
//!
//! ## Backpressure
//!
//! * **Admission**: when the job queue is full, the request is answered
//!   `429 Too Many Requests` + `Retry-After` *in its pipeline slot* —
//!   overflow costs a queue probe, never unbounded memory.
//! * **Pipelining cap**: a connection with `MAX_PIPELINE` (32) requests in
//!   flight stops being parsed (and, past a buffer soft cap, read — its
//!   readiness interest is dropped) until responses drain.
//! * **Idle deadline**: connections with no in-flight work and no
//!   activity for [`ServerConfig::idle_timeout`] are reaped by the
//!   event loop — the old blocking per-socket `set_read_timeout` has no
//!   meaning in a readiness loop, so the deadline lives here instead.
//!
//! A handler panic is caught in the worker and answered as a 500; the
//! worker, the loop, and the connection all survive it.

use crate::http::{parse_request, Handler, Parsed, Request, Response};
use crate::unpoisoned;
use mio::{Events, Interest, Poll, Token};
use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

const LISTENER: Token = Token(0);
const WAKER: Token = Token(1);
/// Connection slot `s` registers as token `s + CONN_BASE`.
const CONN_BASE: usize = 2;
/// Read chunk size.
const READ_CHUNK: usize = 16 * 1024;
/// Stop reading a connection whose *unparsed* input exceeds this (a
/// pipelining flood past the in-flight cap); reads resume as responses
/// drain. One max-sized request always fits.
const INBUF_SOFT_CAP: usize = crate::http::MAX_HEAD_BYTES + crate::http::MAX_BODY_BYTES + 64 * 1024;
/// `Retry-After` seconds suggested with a 429.
const RETRY_AFTER_SECS: &str = "1";
/// Most requests one connection may have in flight before the loop
/// stops parsing (then reading) it.
const MAX_PIPELINE: usize = 32;

/// Tunables for [`serve_with`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Compute worker threads running the [`Handler`].
    pub workers: usize,
    /// Bounded job-queue capacity (waiting requests, not counting the
    /// ones workers are executing); overflow answers 429.
    pub queue_depth: usize,
    /// Reap a connection with no in-flight work after this much
    /// inactivity.
    pub idle_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 4,
            queue_depth: 64,
            idle_timeout: Duration::from_secs(10),
        }
    }
}

/// Live serving counters, shared with whoever wants to report them
/// (`suud` feeds these into `GET /v1/stats`).
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Connections accepted.
    pub accepted: AtomicU64,
    /// Requests parsed off connections (including ones answered 429).
    pub requests: AtomicU64,
    /// Requests rejected with 429 because the job queue was full.
    pub rejected_429: AtomicU64,
    /// Current job-queue length (gauge, waiting jobs only).
    pub queue_depth: AtomicU64,
    /// Connections closed by the idle deadline.
    pub reaped_idle: AtomicU64,
}

struct Job {
    slot: usize,
    gen: u64,
    seq: u64,
    request: Request,
}

struct Done {
    slot: usize,
    gen: u64,
    seq: u64,
    response: Response,
}

/// The bounded compute queue: `try_push` from the event loop (never
/// blocks — full means 429), blocking `pop` from the workers.
struct JobQueue {
    cap: usize,
    state: Mutex<QueueState>,
    ready: Condvar,
    metrics: Arc<ServerMetrics>,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl JobQueue {
    fn new(cap: usize, metrics: Arc<ServerMetrics>) -> JobQueue {
        JobQueue {
            cap,
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            metrics,
        }
    }

    fn try_push(&self, job: Job) -> bool {
        let mut st = unpoisoned(self.state.lock());
        if st.closed || st.jobs.len() >= self.cap {
            return false;
        }
        st.jobs.push_back(job);
        self.metrics
            .queue_depth
            .store(st.jobs.len() as u64, Ordering::Relaxed);
        drop(st);
        self.ready.notify_one();
        true
    }

    fn pop(&self) -> Option<Job> {
        let mut st = unpoisoned(self.state.lock());
        loop {
            if let Some(job) = st.jobs.pop_front() {
                self.metrics
                    .queue_depth
                    .store(st.jobs.len() as u64, Ordering::Relaxed);
                return Some(job);
            }
            if st.closed {
                return None;
            }
            st = unpoisoned(self.ready.wait(st));
        }
    }

    fn close(&self) {
        unpoisoned(self.state.lock()).closed = true;
        self.ready.notify_all();
    }
}

/// Wakes the event loop out of `poll` (self-pipe). Writes are
/// nonblocking: a full pipe already means a wakeup is pending.
struct Waker {
    tx: UnixStream,
}

impl Waker {
    fn wake(&self) {
        let _ = (&self.tx).write(&[1]);
    }
}

struct Completions {
    done: Mutex<Vec<Done>>,
    waker: Arc<Waker>,
}

impl Completions {
    fn push(&self, done: Done) {
        unpoisoned(self.done.lock()).push(done);
        self.waker.wake();
    }
}

/// One live connection's state machine.
struct Conn {
    stream: TcpStream,
    /// Distinguishes this tenancy of the slot from earlier ones, so a
    /// completion for a dead connection can never reach its successor.
    gen: u64,
    /// Unparsed input.
    inbuf: Vec<u8>,
    /// Serialized-but-unsent output.
    outbuf: Vec<u8>,
    /// Sequence number the next parsed request gets.
    next_seq: u64,
    /// Sequence number whose response must be serialized next.
    write_seq: u64,
    /// Finished responses that arrived out of order.
    done: BTreeMap<u64, Response>,
    /// Requests parsed but not yet serialized into `outbuf`.
    inflight: usize,
    /// Close once the response with this sequence number is flushed
    /// (`Connection: close` or a parse error).
    close_after: Option<u64>,
    /// Peer EOF seen, or input poisoned — stop reading/parsing.
    read_closed: bool,
    /// Current epoll registration (`None` = deregistered while stalled).
    interest: Option<Interest>,
    last_activity: Instant,
}

/// A running event-loop server. Dropping the handle does *not* stop it;
/// call [`ServerHandle::shutdown`].
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    waker: Arc<Waker>,
    queue: Arc<JobQueue>,
    metrics: Arc<ServerMetrics>,
    loop_thread: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live serving counters.
    pub fn metrics(&self) -> Arc<ServerMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Stop the event loop, drain the worker pool, and join everything.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(handle) = self.loop_thread.take() {
            let _ = handle.join();
        }
        self.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Bind `addr` and serve it until [`ServerHandle::shutdown`]. `metrics`
/// is caller-supplied so the application can report the counters (pass
/// a fresh `Default` if unwanted).
pub fn serve_with(
    addr: impl ToSocketAddrs,
    cfg: ServerConfig,
    handler: Arc<Handler>,
    metrics: Arc<ServerMetrics>,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let poll = Poll::new()?;
    let (wake_tx, wake_rx) = UnixStream::pair()?;
    wake_tx.set_nonblocking(true)?;
    wake_rx.set_nonblocking(true)?;
    poll.registry()
        .register(&listener, LISTENER, Interest::READABLE)?;
    poll.registry()
        .register(&wake_rx, WAKER, Interest::READABLE)?;

    let shutdown = Arc::new(AtomicBool::new(false));
    let waker = Arc::new(Waker { tx: wake_tx });
    let queue = Arc::new(JobQueue::new(cfg.queue_depth.max(1), Arc::clone(&metrics)));
    let completions = Arc::new(Completions {
        done: Mutex::new(Vec::new()),
        waker: Arc::clone(&waker),
    });

    // Spawn failures (thread exhaustion) surface as the io::Error they
    // are; any workers already running are drained via the closed queue
    // so a failed startup leaks nothing.
    let mut workers = Vec::with_capacity(cfg.workers.max(1));
    for worker in 0..cfg.workers.max(1) {
        let spawned = {
            let queue = Arc::clone(&queue);
            let completions = Arc::clone(&completions);
            let handler = Arc::clone(&handler);
            std::thread::Builder::new()
                .name(format!("suud-worker-{worker}"))
                .spawn(move || worker_loop(queue, completions, handler))
        };
        match spawned {
            Ok(handle) => workers.push(handle),
            Err(e) => {
                queue.close();
                for handle in workers {
                    let _ = handle.join();
                }
                return Err(e);
            }
        }
    }

    let event_loop = EventLoop {
        poll,
        listener,
        wake_rx,
        conns: Vec::new(),
        free: Vec::new(),
        next_gen: 0,
        queue: Arc::clone(&queue),
        completions,
        metrics: Arc::clone(&metrics),
        cfg,
        shutdown: Arc::clone(&shutdown),
    };
    let loop_thread = match std::thread::Builder::new()
        .name("suud-event-loop".to_string())
        .spawn(move || event_loop.run())
    {
        Ok(handle) => handle,
        Err(e) => {
            queue.close();
            for handle in workers {
                let _ = handle.join();
            }
            return Err(e);
        }
    };

    Ok(ServerHandle {
        addr,
        shutdown,
        waker,
        queue,
        metrics,
        loop_thread: Some(loop_thread),
        workers,
    })
}

fn worker_loop(queue: Arc<JobQueue>, completions: Arc<Completions>, handler: Arc<Handler>) {
    while let Some(job) = queue.pop() {
        let Job {
            slot,
            gen,
            seq,
            request,
        } = job;
        // A panicking handler answers 500 and the worker lives on — one
        // poisoned request must not shrink the pool forever.
        let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handler(&request)))
            .unwrap_or_else(|_| Response::text(500, "internal error: handler panicked"));
        completions.push(Done {
            slot,
            gen,
            seq,
            response,
        });
    }
}

struct EventLoop {
    poll: Poll,
    listener: TcpListener,
    wake_rx: UnixStream,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_gen: u64,
    queue: Arc<JobQueue>,
    completions: Arc<Completions>,
    metrics: Arc<ServerMetrics>,
    cfg: ServerConfig,
    shutdown: Arc<AtomicBool>,
}

impl EventLoop {
    fn run(mut self) {
        let mut events = Events::with_capacity(256);
        loop {
            let timeout = self.poll_timeout();
            if self.poll.poll(&mut events, timeout).is_err() {
                // Only non-EINTR errors surface here; treat as transient
                // rather than killing the daemon's only front end.
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            for event in events.iter() {
                match event.token() {
                    LISTENER => self.accept_ready(),
                    WAKER => self.drain_waker(),
                    Token(t) => {
                        let slot = t - CONN_BASE;
                        if event.is_readable() || event.is_read_closed() || event.is_error() {
                            self.read_conn(slot);
                        }
                        self.progress(slot);
                    }
                }
            }
            self.drain_completions();
            self.reap_idle();
        }
    }

    /// Sleep until the next idle deadline could fire (connections with
    /// work in flight will produce completions, which wake the loop via
    /// the self-pipe instead).
    fn poll_timeout(&self) -> Option<Duration> {
        let now = Instant::now();
        self.conns
            .iter()
            .flatten()
            .filter(|c| c.inflight == 0)
            .map(|c| (c.last_activity + self.cfg.idle_timeout).saturating_duration_since(now))
            .min()
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.metrics.accepted.fetch_add(1, Ordering::Relaxed);
                    let slot = self.free.pop().unwrap_or_else(|| {
                        self.conns.push(None);
                        self.conns.len() - 1
                    });
                    self.next_gen += 1;
                    let conn = Conn {
                        stream,
                        gen: self.next_gen,
                        inbuf: Vec::new(),
                        outbuf: Vec::new(),
                        next_seq: 0,
                        write_seq: 0,
                        done: BTreeMap::new(),
                        inflight: 0,
                        close_after: None,
                        read_closed: false,
                        interest: Some(Interest::READABLE),
                        last_activity: Instant::now(),
                    };
                    if self
                        .poll
                        .registry()
                        .register(&conn.stream, Token(slot + CONN_BASE), Interest::READABLE)
                        .is_err()
                    {
                        self.free.push(slot);
                        continue;
                    }
                    self.conns[slot] = Some(conn);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Persistent accept failures (fd exhaustion) must not
                    // busy-spin the loop at 100% CPU; back off briefly —
                    // level-triggered epoll will re-report the backlog.
                    std::thread::sleep(Duration::from_millis(10));
                    break;
                }
            }
        }
    }

    fn drain_waker(&mut self) {
        let mut scratch = [0u8; 64];
        while matches!((&self.wake_rx).read(&mut scratch), Ok(n) if n > 0) {}
    }

    fn read_conn(&mut self, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let mut chunk = [0u8; READ_CHUNK];
        while !conn.read_closed && conn.inbuf.len() < INBUF_SOFT_CAP {
            match conn.stream.read(&mut chunk) {
                Ok(0) => conn.read_closed = true,
                Ok(n) => {
                    conn.inbuf.extend_from_slice(&chunk[..n]);
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => conn.read_closed = true,
            }
        }
    }

    /// Parse what the buffer affords, pump completed responses out in
    /// order, flush, and update registration — the one entry point after
    /// any activity on a connection. Safe on already-closed slots.
    fn progress(&mut self, slot: usize) {
        self.parse_conn(slot);
        self.pump_and_flush(slot);
    }

    fn parse_conn(&mut self, slot: usize) {
        let queue = Arc::clone(&self.queue);
        let metrics = Arc::clone(&self.metrics);
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        while conn.close_after.is_none() && conn.inflight < MAX_PIPELINE && !conn.inbuf.is_empty() {
            match parse_request(&conn.inbuf) {
                Parsed::Incomplete => break,
                Parsed::Bad(bad) => {
                    // The byte stream is poisoned: answer in this
                    // request's pipeline slot, then close.
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    conn.inflight += 1;
                    metrics.requests.fetch_add(1, Ordering::Relaxed);
                    conn.done
                        .insert(seq, Response::text(bad.status(), bad.message()));
                    conn.close_after = Some(seq);
                    conn.read_closed = true;
                    conn.inbuf.clear();
                }
                Parsed::Complete { request, consumed } => {
                    conn.inbuf.drain(..consumed);
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    conn.inflight += 1;
                    metrics.requests.fetch_add(1, Ordering::Relaxed);
                    if request.wants_close() {
                        conn.close_after = Some(seq);
                        conn.read_closed = true;
                        conn.inbuf.clear();
                    }
                    let job = Job {
                        slot,
                        gen: conn.gen,
                        seq,
                        request,
                    };
                    if !queue.try_push(job) {
                        // Admission control: full queue means an instant
                        // 429 in order, not unbounded buffered work.
                        metrics.rejected_429.fetch_add(1, Ordering::Relaxed);
                        conn.done.insert(
                            seq,
                            Response::text(429, "server busy: compute queue is full")
                                .with_header("Retry-After", RETRY_AFTER_SECS),
                        );
                    }
                }
            }
        }
    }

    fn pump_and_flush(&mut self, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        // Serialize finished responses strictly in sequence order.
        while let Some(response) = conn.done.remove(&conn.write_seq) {
            let keep_alive = conn.close_after != Some(conn.write_seq);
            conn.outbuf
                .extend_from_slice(&response.to_bytes(keep_alive));
            conn.write_seq += 1;
            conn.inflight -= 1;
        }
        // Nonblocking flush.
        let mut dead = false;
        while !conn.outbuf.is_empty() {
            match conn.stream.write(&conn.outbuf) {
                Ok(0) => {
                    dead = true;
                    break;
                }
                Ok(n) => {
                    conn.outbuf.drain(..n);
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    dead = true;
                    break;
                }
            }
        }
        let answered_last = conn.close_after.is_some_and(|last| conn.write_seq > last);
        let drained = conn.outbuf.is_empty() && conn.inflight == 0;
        if dead || (drained && (answered_last || conn.read_closed)) {
            self.close_conn(slot);
            return;
        }
        self.update_interest(slot);
    }

    fn update_interest(&mut self, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let want_read =
            !conn.read_closed && conn.inflight < MAX_PIPELINE && conn.inbuf.len() < INBUF_SOFT_CAP;
        let want_write = !conn.outbuf.is_empty();
        let want = match (want_read, want_write) {
            (true, true) => Some(Interest::READABLE | Interest::WRITABLE),
            (true, false) => Some(Interest::READABLE),
            (false, true) => Some(Interest::WRITABLE),
            // Fully stalled (awaiting compute): deregister — with
            // level-triggered epoll an unconsumed condition would
            // otherwise busy-loop the poll.
            (false, false) => None,
        };
        if want == conn.interest {
            return;
        }
        let registry = self.poll.registry();
        let token = Token(slot + CONN_BASE);
        let ok = match (conn.interest, want) {
            (Some(_), Some(interest)) => registry.reregister(&conn.stream, token, interest).is_ok(),
            (None, Some(interest)) => registry.register(&conn.stream, token, interest).is_ok(),
            (Some(_), None) => registry.deregister(&conn.stream).is_ok(),
            (None, None) => true,
        };
        if ok {
            conn.interest = want;
        } else {
            self.close_conn(slot);
        }
    }

    fn drain_completions(&mut self) {
        let done: Vec<Done> = {
            let mut guard = unpoisoned(self.completions.done.lock());
            std::mem::take(&mut *guard)
        };
        let mut touched: Vec<usize> = Vec::with_capacity(done.len());
        for d in done {
            let Some(conn) = self.conns.get_mut(d.slot).and_then(Option::as_mut) else {
                continue; // connection died while computing
            };
            if conn.gen != d.gen {
                continue; // slot was reused; response belongs to the past
            }
            conn.done.insert(d.seq, d.response);
            touched.push(d.slot);
        }
        touched.sort_unstable();
        touched.dedup();
        for slot in touched {
            // Draining responses may free pipeline room: pump first,
            // then parse what the buffer still holds.
            self.pump_and_flush(slot);
            self.progress(slot);
        }
    }

    fn reap_idle(&mut self) {
        let now = Instant::now();
        let idle = self.cfg.idle_timeout;
        let stale: Vec<usize> = self
            .conns
            .iter()
            .enumerate()
            .filter(|(_, c)| {
                c.as_ref()
                    .is_some_and(|c| c.inflight == 0 && now.duration_since(c.last_activity) >= idle)
            })
            .map(|(slot, _)| slot)
            .collect();
        for slot in stale {
            self.metrics.reaped_idle.fetch_add(1, Ordering::Relaxed);
            self.close_conn(slot);
        }
    }

    fn close_conn(&mut self, slot: usize) {
        if let Some(conn) = self.conns.get_mut(slot).and_then(Option::take) {
            if conn.interest.is_some() {
                let _ = self.poll.registry().deregister(&conn.stream);
            }
            drop(conn);
            self.free.push(slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, Reply};
    use std::io;

    /// A keep-alive connection: the crate's client for framed requests
    /// and replies, and a clone of its stream for raw bytes.
    fn connect(addr: SocketAddr) -> (Client, TcpStream) {
        let stream = TcpStream::connect(addr).unwrap();
        let raw = stream.try_clone().unwrap();
        (
            Client::from_stream(stream, Duration::from_secs(30)).unwrap(),
            raw,
        )
    }

    fn text(reply: &Reply) -> &str {
        std::str::from_utf8(&reply.body).unwrap()
    }

    /// The server closed the connection: the next read finds no reply.
    fn closed(client: &mut Client) -> bool {
        matches!(client.read_reply(), Err(e) if e.kind() == io::ErrorKind::UnexpectedEof)
    }

    fn echo_handler() -> Arc<Handler> {
        Arc::new(|req: &Request| {
            Response::json(
                200,
                format!(
                    "{{\"method\":\"{}\",\"path\":\"{}\",\"body_len\":{}}}",
                    req.method,
                    req.path,
                    req.body.len()
                ),
            )
            .with_header("X-Echo", "yes")
        })
    }

    fn echo_server(workers: usize) -> ServerHandle {
        serve_with(
            "127.0.0.1:0",
            ServerConfig {
                workers,
                ..ServerConfig::default()
            },
            echo_handler(),
            Arc::new(ServerMetrics::default()),
        )
        .unwrap()
    }

    #[test]
    fn keep_alive_serves_many_requests_on_one_connection() {
        let server = echo_server(2);
        let (mut client, _) = connect(server.addr());
        for i in 0..5 {
            let reply = client.request("GET", &format!("/req/{i}"), None).unwrap();
            assert_eq!(reply.status, 200);
            assert_eq!(reply.header("connection"), Some("keep-alive"));
            assert!(
                text(&reply).contains(&format!("/req/{i}")),
                "{}",
                text(&reply)
            );
        }
        let reply = client.request("POST", "/v1/x", Some(b"hello")).unwrap();
        assert!(text(&reply).contains("\"body_len\":5"));
        assert_eq!(server.metrics().accepted.load(Ordering::Relaxed), 1);
        assert_eq!(server.metrics().requests.load(Ordering::Relaxed), 6);
        server.shutdown();
    }

    #[test]
    fn pipelined_requests_answer_in_order() {
        let server = echo_server(3);
        let (mut client, mut raw) = connect(server.addr());
        // All six at once; compute order is up to the pool, response
        // order must be request order.
        let mut burst = Vec::new();
        for i in 0..6 {
            burst
                .extend_from_slice(format!("GET /pipe/{i} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes());
        }
        raw.write_all(&burst).unwrap();
        for i in 0..6 {
            let reply = client.read_reply().unwrap();
            assert_eq!(reply.status, 200);
            assert!(
                text(&reply).contains(&format!("/pipe/{i}")),
                "response {i} out of order: {}",
                text(&reply)
            );
        }
        server.shutdown();
    }

    #[test]
    fn connection_close_is_honored() {
        let server = echo_server(1);
        let (mut client, mut raw) = connect(server.addr());
        raw.write_all(b"GET /last HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let reply = client.read_reply().unwrap();
        assert_eq!(reply.status, 200);
        assert_eq!(reply.header("connection"), Some("close"));
        assert!(closed(&mut client), "server must close");
        server.shutdown();
    }

    #[test]
    fn malformed_requests_get_4xx_then_close() {
        let server = echo_server(1);
        let (mut client, mut raw) = connect(server.addr());
        raw.write_all(b"garbage\r\n\r\n").unwrap();
        assert_eq!(client.read_reply().unwrap().status, 400);
        assert!(closed(&mut client));

        let (mut client, mut raw) = connect(server.addr());
        let mut head = b"GET /".to_vec();
        head.resize(crate::http::MAX_HEAD_BYTES + 512, b'a');
        raw.write_all(&head).unwrap();
        assert_eq!(client.read_reply().unwrap().status, 413);
        server.shutdown();
    }

    #[test]
    fn saturated_queue_returns_429_with_retry_after_in_order() {
        let handler: Arc<Handler> = Arc::new(|req: &Request| {
            if req.path == "/slow" {
                std::thread::sleep(Duration::from_millis(400));
            }
            Response::text(200, "done")
        });
        let metrics = Arc::new(ServerMetrics::default());
        let server = serve_with(
            "127.0.0.1:0",
            ServerConfig {
                workers: 1,
                queue_depth: 1,
                ..ServerConfig::default()
            },
            handler,
            Arc::clone(&metrics),
        )
        .unwrap();
        let (mut client, _) = connect(server.addr());
        // Occupy the single worker…
        client.send("GET", "/slow", None).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        // …then fill the queue (1 slot) and overflow it.
        client.send("GET", "/slow", None).unwrap();
        client.send("GET", "/q3", None).unwrap();
        client.send("GET", "/q4", None).unwrap();
        let statuses: Vec<u16> = (0..4)
            .map(|_| client.read_reply().unwrap().status)
            .collect();
        assert_eq!(statuses, vec![200, 200, 429, 429]);
        // Re-read the last two for their headers.
        let reply = client.request("GET", "/q5", None).unwrap();
        assert_eq!(reply.status, 200, "the pool must recover after a 429");
        assert_eq!(metrics.rejected_429.load(Ordering::Relaxed), 2);
        server.shutdown();
    }

    #[test]
    fn rejected_requests_carry_retry_after() {
        let handler: Arc<Handler> = Arc::new(|_: &Request| {
            std::thread::sleep(Duration::from_millis(300));
            Response::text(200, "done")
        });
        let server = serve_with(
            "127.0.0.1:0",
            ServerConfig {
                workers: 1,
                queue_depth: 1,
                ..ServerConfig::default()
            },
            handler,
            Arc::new(ServerMetrics::default()),
        )
        .unwrap();
        let (mut client, _) = connect(server.addr());
        client.send("GET", "/a", None).unwrap();
        std::thread::sleep(Duration::from_millis(80));
        client.send("GET", "/b", None).unwrap();
        client.send("GET", "/c", None).unwrap();
        let mut saw_429 = false;
        for _ in 0..3 {
            let reply = client.read_reply().unwrap();
            if reply.status == 429 {
                saw_429 = true;
                assert_eq!(reply.header("retry-after"), Some(RETRY_AFTER_SECS));
            }
        }
        assert!(saw_429, "overflow must be answered 429");
        server.shutdown();
    }

    #[test]
    fn idle_connections_are_reaped_by_the_event_loop() {
        let metrics = Arc::new(ServerMetrics::default());
        let server = serve_with(
            "127.0.0.1:0",
            ServerConfig {
                workers: 1,
                idle_timeout: Duration::from_millis(150),
                ..ServerConfig::default()
            },
            echo_handler(),
            Arc::clone(&metrics),
        )
        .unwrap();
        let (mut client, _) = connect(server.addr());
        // A request keeps it alive…
        assert_eq!(client.request("GET", "/alive", None).unwrap().status, 200);
        // …then silence: the deadline closes it from the server side.
        let start = Instant::now();
        assert!(closed(&mut client));
        assert!(
            start.elapsed() >= Duration::from_millis(100),
            "reaped too early"
        );
        assert!(metrics.reaped_idle.load(Ordering::Relaxed) >= 1);
        server.shutdown();
    }

    #[test]
    fn panicking_handler_answers_500_and_the_pool_survives() {
        let server = serve_with(
            "127.0.0.1:0",
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
            Arc::new(|req: &Request| {
                if req.path == "/boom" {
                    panic!("handler bug");
                }
                Response::text(200, "fine")
            }),
            Arc::new(ServerMetrics::default()),
        )
        .unwrap();
        let (mut client, _) = connect(server.addr());
        assert_eq!(client.request("GET", "/boom", None).unwrap().status, 500);
        assert_eq!(client.request("GET", "/ok", None).unwrap().status, 200);
        server.shutdown();
    }

    #[test]
    fn concurrent_connections_are_served() {
        let server = echo_server(2);
        let addr = server.addr();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..6)
                .map(|i| {
                    scope.spawn(move || {
                        let (mut client, _) = connect(addr);
                        let path = format!("/conn/{i}");
                        let reply = client.request("GET", &path, None).unwrap();
                        assert_eq!(reply.status, 200);
                        assert!(text(&reply).contains(&path));
                    })
                })
                .collect();
            for handle in handles {
                handle.join().unwrap();
            }
        });
        server.shutdown();
    }

    #[test]
    fn serves_and_shuts_down() {
        let server = echo_server(2);
        let addr = server.addr();
        let (mut client, _) = connect(addr);
        let reply = client.request("GET", "/v1/healthz", None).unwrap();
        assert_eq!(reply.status, 200);
        assert_eq!(reply.header("x-echo"), Some("yes"));
        server.shutdown();
        // The port stops answering (connect may still succeed briefly on
        // a lingering backlog entry, but a request gets no response).
        std::thread::sleep(Duration::from_millis(30));
        if let Ok(mut s) = TcpStream::connect(addr) {
            let _ = s.set_read_timeout(Some(Duration::from_millis(200)));
            let _ = s.write_all(b"GET / HTTP/1.1\r\n\r\n");
            let mut buf = String::new();
            let _ = s.read_to_string(&mut buf);
            assert!(buf.is_empty(), "served after shutdown: {buf}");
        }
    }
}
