//! The TCP server: acceptor, per-connection framing, worker pool, graceful
//! shutdown.
//!
//! Thread model (all `std::thread`, no async runtime):
//!
//! * one **acceptor** polls a non-blocking listener and spawns one thread
//!   per connection;
//! * **connection threads** read frames with a short socket timeout so they
//!   can notice the shutdown flag and mid-frame stalls, decode requests,
//!   and push RUN jobs onto the bounded admission queue — a full queue is an
//!   immediate `Busy` reply, never backpressure-by-latency;
//! * **worker threads** own the per-algorithm [`WorkerStates`] pools, pop
//!   jobs, enforce the per-request deadline (requests that expired while
//!   queued are answered `Timeout` without running), execute, and send the
//!   encoded reply back over a per-connection channel. The reply buffer
//!   travels with the job and returns with the reply, so the steady state
//!   recycles both the vertex states and the response buffers.
//!
//! Graceful shutdown ([`ServerHandle::shutdown`] or the wire `SHUTDOWN`
//! opcode): the accept loop stops, the queue closes (workers drain what was
//! admitted), connection threads answer late arrivals with `ShuttingDown`
//! and exit, and every thread is joined before the handle returns.

use crate::metrics::Metrics;
use crate::protocol::{self, Request, Status};
use crate::queue::{BoundedQueue, PushError};
use crate::service::{self, GraphService, WorkerStates};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Tick length for every polling loop (accept, reads, shutdown checks).
const TICK: Duration = Duration::from_millis(20);

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads executing runs (each owns its own state pools).
    pub workers: usize,
    /// Admission queue depth; pushes beyond it are rejected `Busy`.
    pub queue_depth: usize,
    /// Deadline applied to requests that don't carry their own
    /// (`timeout_ms == 0`). `None` = unbounded.
    pub default_timeout: Option<Duration>,
    /// Close a connection that stalls mid-frame for this long — the
    /// protection against truncated frames and slow-loris peers.
    pub read_stall_timeout: Duration,
    /// Close a connection whose peer stops draining responses for this
    /// long — the protection against half-open peers that send a request
    /// and then stall forever mid-response-read. Applied as the socket
    /// write timeout; a blocked `write` past it drops the connection and
    /// reclaims its thread.
    pub write_stall_timeout: Duration,
    /// Emit a metrics log line to stderr at this interval.
    pub stats_log_interval: Option<Duration>,
    /// Artificial per-request service delay, applied after a job is popped
    /// and **before** its deadline check. A test/bench aid: it makes
    /// overload (`Busy`) and queued-expiry (`Timeout`) outcomes
    /// deterministic. `None` in production.
    pub service_delay: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            queue_depth: 64,
            default_timeout: None,
            read_stall_timeout: Duration::from_secs(10),
            write_stall_timeout: Duration::from_secs(10),
            stats_log_interval: None,
            service_delay: None,
        }
    }
}

/// State shared by every server thread.
struct Shared {
    service: GraphService,
    metrics: Metrics,
    queue: BoundedQueue<Job>,
    shutdown: AtomicBool,
    config: ServerConfig,
}

impl Shared {
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Relaxed);
        self.queue.close();
    }
}

/// One admitted RUN, carrying the connection's reusable reply buffer.
struct Job {
    request: protocol::RunRequest,
    deadline: Option<Instant>,
    reply: mpsc::Sender<Vec<u8>>,
    buf: Vec<u8>,
}

/// A running server; dropping it without calling [`ServerHandle::shutdown`]
/// or [`ServerHandle::wait`] leaves threads running.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
    logger: Option<JoinHandle<()>>,
}

/// Alias kept for readability at call sites: `bind` returns a handle you
/// later `shutdown()` or `wait()` on.
pub type ServerHandle = Server;

impl Server {
    /// Bind and start serving. Use port 0 to let the OS pick (read it back
    /// with [`Server::local_addr`]).
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: GraphService,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            service,
            metrics: Metrics::default(),
            queue: BoundedQueue::new(config.queue_depth),
            shutdown: AtomicBool::new(false),
            config,
        });

        let workers: Vec<JoinHandle<()>> = (0..shared.config.workers.max(1))
            .map(|i| spawn_worker(&shared, i, 0))
            .collect();

        // The supervisor owns the worker lanes: it respawns any lane that
        // dies outside the per-run panic guard and joins them all at
        // shutdown, so a single runaway panic can never silently shrink the
        // pool.
        let supervisor = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("graphmat-supervisor".into())
                .spawn(move || supervisor_loop(&shared, workers))
                // audit:allow(no-unwrap): server startup; without the
                // supervisor the worker pool has no owner to join it.
                .expect("spawn supervisor thread")
        };

        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("graphmat-acceptor".into())
                .spawn(move || acceptor_loop(listener, &shared))
                // audit:allow(no-unwrap): server startup; no acceptor means
                // no server.
                .expect("spawn acceptor thread")
        };

        let logger = shared.config.stats_log_interval.map(|interval| {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("graphmat-stats-log".into())
                .spawn(move || logger_loop(&shared, interval))
                // audit:allow(no-unwrap): server startup; failing to spawn
                // the requested stats logger should be loud, not silent.
                .expect("spawn stats logger thread")
        });

        Ok(Server {
            shared,
            local_addr,
            acceptor: Some(acceptor),
            supervisor: Some(supervisor),
            logger: Some(logger).flatten(),
        })
    }

    /// The bound address (with the OS-assigned port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The live metrics registry (for in-process assertions).
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Whether shutdown has been requested (locally or via the wire).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Relaxed)
    }

    /// Request graceful shutdown and join every thread: stops accepting,
    /// drains admitted runs, answers stragglers with `ShuttingDown`.
    pub fn shutdown(mut self) {
        self.shared.begin_shutdown();
        self.join_all();
    }

    /// Block until something requests shutdown (e.g. the wire `SHUTDOWN`
    /// opcode), then drain and join like [`Server::shutdown`].
    pub fn wait(mut self) {
        while !self.shared.shutdown.load(Relaxed) {
            thread::sleep(TICK);
        }
        // The opcode path already closed the queue; closing twice is fine.
        self.shared.begin_shutdown();
        self.join_all();
    }

    fn join_all(&mut self) {
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.supervisor.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.logger.take() {
            let _ = handle.join();
        }
    }
}

fn logger_loop(shared: &Shared, interval: Duration) {
    let mut last = Instant::now();
    while !shared.shutdown.load(Relaxed) {
        thread::sleep(TICK);
        if last.elapsed() >= interval {
            // audit:allow(no-println): this IS the opt-in stats logger —
            // periodic operational lines on stderr are its whole job.
            eprintln!("[graphmat-serve] {}", shared.metrics.log_line());
            last = Instant::now();
        }
    }
}

fn acceptor_loop(listener: TcpListener, shared: &Arc<Shared>) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let shared = Arc::clone(shared);
                let handle = thread::Builder::new()
                    .name("graphmat-conn".into())
                    .spawn(move || connection_loop(stream, &shared))
                    // audit:allow(no-unwrap): per-connection thread — if the
                    // host is out of threads the accept loop cannot serve
                    // the socket anyway; crashing the acceptor is the
                    // honest failure.
                    .expect("spawn connection thread");
                connections.push(handle);
            }
            Err(err) if err.kind() == io::ErrorKind::WouldBlock => thread::sleep(TICK),
            Err(_) => thread::sleep(TICK),
        }
        // Reap finished connections so a long-lived server doesn't
        // accumulate join handles.
        connections.retain(|h| !h.is_finished());
    }
    for handle in connections {
        let _ = handle.join();
    }
}

/// Spawn one worker lane. `respawn` distinguishes supervisor restarts in
/// thread names (`graphmat-worker-2-r1`).
fn spawn_worker(shared: &Arc<Shared>, lane: usize, respawn: u64) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    let name = if respawn == 0 {
        format!("graphmat-worker-{lane}")
    } else {
        format!("graphmat-worker-{lane}-r{respawn}")
    };
    thread::Builder::new()
        .name(name)
        .spawn(move || worker_loop(&shared))
        // audit:allow(no-unwrap): server startup / lane respawn; a host
        // that cannot spawn worker threads has nothing to serve with, and
        // the panic carries the OS error.
        .expect("spawn worker thread")
}

/// Own the worker lanes: respawn any lane that dies while the server is
/// live, join them all once shutdown drains the queue.
fn supervisor_loop(shared: &Arc<Shared>, mut workers: Vec<JoinHandle<()>>) {
    let mut respawns: u64 = 0;
    while !shared.shutdown.load(Relaxed) {
        thread::sleep(TICK);
        for (lane, slot) in workers.iter_mut().enumerate() {
            if !slot.is_finished() || shared.shutdown.load(Relaxed) {
                continue;
            }
            respawns += 1;
            let replacement = spawn_worker(shared, lane, respawns);
            let dead = std::mem::replace(slot, replacement);
            // RECOVERY: a worker lane died outside the per-run panic guard
            // (e.g. the chaos `server.worker.lane` failpoint). Its in-hand
            // job already got a typed `ServerError` reply from the lane's
            // ReplyGuard (resilient clients retry it), and its pooled
            // states died with the thread, so there is nothing to
            // quarantine; the fresh lane warms up its own pools. The
            // restart is counted so operators can see lane churn through
            // STATS.
            let _ = dead.join();
            shared.metrics.worker_restarts.fetch_add(1, Relaxed);
        }
    }
    for handle in workers {
        let _ = handle.join();
    }
}

/// Guarantees a popped [`Job`] always gets *some* reply. The connection
/// thread blocks in `reply_rx.recv()` while it also holds a sender clone,
/// so the channel can never close on it — if the worker unwinds with the
/// job in hand and nobody sends, that connection hangs forever. This guard
/// closes the gap: on a normal path the job is defused and replied inline;
/// on an unwind, `Drop` sends a typed `ServerError` instead.
struct ReplyGuard {
    job: Option<Job>,
}

impl Drop for ReplyGuard {
    fn drop(&mut self) {
        // RECOVERY: the worker lane is unwinding with this job in hand
        // (a panic outside the per-run isolation guard, e.g. the chaos
        // `server.worker.lane` failpoint). Send the typed error now so the
        // waiting connection unblocks and can keep serving its client;
        // the supervisor respawns the lane itself.
        if let Some(mut job) = self.job.take() {
            job.buf.clear();
            protocol::encode_error(
                &mut job.buf,
                Status::ServerError,
                "worker lane died mid-request; lane is being respawned",
            );
            let _ = job.reply.send(std::mem::take(&mut job.buf));
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut states = WorkerStates::for_topology(shared.service.topology());
    let (mut seen_created, mut seen_reused, mut seen_quarantined) = (0usize, 0usize, 0usize);
    while let Some(popped) = shared.queue.pop() {
        let mut guard = ReplyGuard { job: Some(popped) };
        if let Some(delay) = shared.config.service_delay {
            thread::sleep(delay);
        }
        // A `panic` action here unwinds outside the per-run guard and kills
        // the whole lane — the hazard the ReplyGuard + supervisor respawn
        // path covers.
        let _ = graphmat_chaos::fire("server.worker.lane");
        let Some(job) = guard.job.as_mut() else {
            continue; // unreachable: armed two lines up
        };
        job.buf.clear();
        let counters = shared.metrics.algo(job.request.algorithm);
        if job.deadline.is_some_and(|d| Instant::now() >= d) {
            protocol::encode_error(
                &mut job.buf,
                Status::Timeout,
                "request deadline expired while queued",
            );
            counters.timeout.fetch_add(1, Relaxed);
        } else {
            let start = Instant::now();
            let outcome = service::execute_run(
                &shared.service,
                &mut states,
                &job.request,
                job.deadline,
                &mut job.buf,
            );
            if outcome.panicked {
                shared.metrics.worker_panics.fetch_add(1, Relaxed);
            }
            match outcome.status {
                Status::Ok => {
                    counters.ok.fetch_add(1, Relaxed);
                    counters.latency.record(start.elapsed().as_micros() as u64);
                }
                Status::Timeout => {
                    counters.timeout.fetch_add(1, Relaxed);
                }
                _ => {
                    counters.failed.fetch_add(1, Relaxed);
                }
            }
        }
        // Export pool growth so "steady state allocates nothing" — and
        // post-panic quarantines — are observable through STATS.
        let (created, reused, quarantined) =
            (states.created(), states.reused(), states.quarantined());
        shared
            .metrics
            .pool_created
            .fetch_add((created - seen_created) as u64, Relaxed);
        shared
            .metrics
            .pool_reused
            .fetch_add((reused - seen_reused) as u64, Relaxed);
        shared
            .metrics
            .pool_quarantined
            .fetch_add((quarantined - seen_quarantined) as u64, Relaxed);
        (seen_created, seen_reused, seen_quarantined) = (created, reused, quarantined);
        // Normal path: defuse the guard and send the real reply. The
        // receiver may have hung up (client gone) — nothing to do.
        if let Some(mut job) = guard.job.take() {
            let _ = job.reply.send(std::mem::take(&mut job.buf));
        }
    }
}

/// Why a connection's frame read ended without a frame.
enum ReadOutcome {
    /// A complete frame body is in the buffer.
    Frame,
    /// Peer closed the connection.
    Eof,
    /// Server is shutting down.
    Shutdown,
    /// Peer stalled mid-frame past the configured stall timeout.
    Stall,
    /// The length prefix exceeds `MAX_FRAME_LEN`.
    TooLarge,
    /// Hard socket error.
    Error,
}

/// Read one frame with tick-granularity interruption: notices the shutdown
/// flag between ticks and drops peers that stall mid-frame, so a truncated
/// frame can never hang a connection thread forever.
fn read_frame_ticking(stream: &mut TcpStream, buf: &mut Vec<u8>, shared: &Shared) -> ReadOutcome {
    let stall = shared.config.read_stall_timeout;
    let mut header = [0u8; 4];
    let mut have = 0usize;
    let mut body_len: Option<usize> = None;
    let mut last_progress = Instant::now();
    loop {
        let result = match body_len {
            None => stream.read(&mut header[have..]),
            Some(len) => {
                if have == len {
                    return ReadOutcome::Frame;
                }
                stream.read(&mut buf[have..len])
            }
        };
        match result {
            Ok(0) => {
                // Mid-frame EOF is a truncated frame; between frames it's a
                // normal close. Either way the connection is done.
                return ReadOutcome::Eof;
            }
            Ok(n) => {
                have += n;
                last_progress = Instant::now();
                if body_len.is_none() && have == 4 {
                    let len = u32::from_le_bytes(header) as usize;
                    if len > protocol::MAX_FRAME_LEN {
                        return ReadOutcome::TooLarge;
                    }
                    buf.clear();
                    buf.resize(len, 0);
                    body_len = Some(len);
                    have = 0;
                }
            }
            Err(err)
                if err.kind() == io::ErrorKind::WouldBlock
                    || err.kind() == io::ErrorKind::TimedOut =>
            {
                if shared.shutdown.load(Relaxed) {
                    return ReadOutcome::Shutdown;
                }
                let mid_frame = have > 0 || body_len.is_some();
                if mid_frame && last_progress.elapsed() >= stall {
                    return ReadOutcome::Stall;
                }
            }
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return ReadOutcome::Error,
        }
    }
}

fn connection_loop(mut stream: TcpStream, shared: &Shared) {
    if stream.set_read_timeout(Some(TICK)).is_err() {
        return;
    }
    // A half-open peer (sends a request, then stops draining its socket)
    // would otherwise pin this thread in `write_frame` forever once large
    // replies fill the kernel send buffer. The write timeout bounds that:
    // the blocked write fails, the connection drops, the thread is
    // reclaimed. Worker lanes are unaffected either way — they hand replies
    // over a channel and never touch the socket.
    if stream
        .set_write_timeout(Some(shared.config.write_stall_timeout))
        .is_err()
    {
        return;
    }
    let _ = stream.set_nodelay(true);
    let (reply_tx, reply_rx) = mpsc::channel::<Vec<u8>>();
    let mut frame = Vec::new();
    // The response buffer: encoded into directly for control replies and
    // errors, and carried through the worker round-trip for runs.
    let mut resp = Vec::new();
    loop {
        match read_frame_ticking(&mut stream, &mut frame, shared) {
            ReadOutcome::Frame => {}
            ReadOutcome::TooLarge => {
                // The stream can't be re-synchronized after a bogus length
                // prefix; send a typed error, then drop the connection.
                shared.metrics.dropped_connections.fetch_add(1, Relaxed);
                resp.clear();
                protocol::encode_error(
                    &mut resp,
                    Status::BadRequest,
                    "frame length prefix exceeds maximum frame size",
                );
                let _ = protocol::write_frame(&mut stream, &resp);
                return;
            }
            ReadOutcome::Stall => {
                shared.metrics.dropped_connections.fetch_add(1, Relaxed);
                return;
            }
            ReadOutcome::Eof | ReadOutcome::Shutdown | ReadOutcome::Error => return,
        }
        // Models the frame arriving corrupted past the length check (e.g. a
        // torn read): the connection is unrecoverable and is dropped.
        if graphmat_chaos::fire("server.frame.read").is_some() {
            shared.metrics.dropped_connections.fetch_add(1, Relaxed);
            return;
        }
        let request = match Request::decode(&frame) {
            Ok(request) => request,
            Err(err) => {
                // Framing is intact, so the connection survives a malformed
                // body — reply with the typed error and keep reading.
                shared.metrics.bad_requests.fetch_add(1, Relaxed);
                resp.clear();
                protocol::encode_error(&mut resp, err.status, &err.message);
                if protocol::write_frame(&mut stream, &resp).is_err() {
                    return;
                }
                continue;
            }
        };
        match request {
            Request::Ping => {
                shared.metrics.pings.fetch_add(1, Relaxed);
                resp.clear();
                protocol::encode_ok_empty(&mut resp);
            }
            Request::Stats => {
                shared.metrics.stats_requests.fetch_add(1, Relaxed);
                let store = shared.service.store().stats();
                let json = shared
                    .metrics
                    .to_json(shared.service.topology().num_vertices() as u64, &store);
                resp.clear();
                protocol::encode_ok_payload(&mut resp, json.as_bytes());
            }
            Request::Update(update) => {
                // Writers apply inline on the connection thread: the store
                // serializes them on its writer lock and publishing never
                // blocks readers, so there is nothing to queue. In-flight
                // runs keep the snapshot they were admitted against.
                let edits = update.edits.len() as u64;
                resp.clear();
                match shared.service.apply_update(&update) {
                    Ok(stats) => {
                        shared.metrics.updates.fetch_add(1, Relaxed);
                        shared.metrics.update_edits.fetch_add(edits, Relaxed);
                        protocol::encode_update_ok(
                            &mut resp,
                            &protocol::UpdateOkReply {
                                snapshot_version: stats.version,
                                num_edges: stats.num_edges as u64,
                                delta_edges: stats.delta_edges as u64,
                                compactions: stats.compactions,
                            },
                        );
                    }
                    Err((status, message)) => {
                        shared.metrics.update_failed.fetch_add(1, Relaxed);
                        if status == Status::Overloaded {
                            shared.metrics.update_overloaded.fetch_add(1, Relaxed);
                        }
                        protocol::encode_error(&mut resp, status, &message);
                    }
                }
            }
            Request::Shutdown => {
                // Close admission before acknowledging. Invariant: once a
                // client holds the ack, no RUN is admitted — a straggler's
                // push races only against the close, never against the ack.
                shared.begin_shutdown();
                resp.clear();
                protocol::encode_ok_empty(&mut resp);
                let _ = protocol::write_frame(&mut stream, &resp);
                return;
            }
            Request::Run(run) => {
                let counters = shared.metrics.algo(run.algorithm);
                counters.requests.fetch_add(1, Relaxed);
                let timeout = if run.timeout_ms > 0 {
                    Some(Duration::from_millis(run.timeout_ms as u64))
                } else {
                    shared.config.default_timeout
                };
                // Models the admission hand-off itself failing (e.g. the
                // queue's backing state unavailable): the request is
                // rejected with a typed error, the connection survives.
                if graphmat_chaos::fire("server.admission.push").is_some() {
                    counters.failed.fetch_add(1, Relaxed);
                    resp.clear();
                    protocol::encode_error(
                        &mut resp,
                        Status::ServerError,
                        "chaos failpoint server.admission.push",
                    );
                } else {
                    let job = Job {
                        request: run,
                        deadline: timeout.map(|t| Instant::now() + t),
                        reply: reply_tx.clone(),
                        buf: std::mem::take(&mut resp),
                    };
                    match shared.queue.try_push(job) {
                        Ok(()) => match reply_rx.recv() {
                            Ok(encoded) => resp = encoded,
                            // Worker pool gone mid-request (shutdown race);
                            // nothing coherent to say, drop the connection.
                            Err(_) => return,
                        },
                        Err(PushError::Full(job)) => {
                            counters.busy.fetch_add(1, Relaxed);
                            resp = job.buf;
                            resp.clear();
                            protocol::encode_error(
                                &mut resp,
                                Status::Busy,
                                "admission queue full, retry later",
                            );
                        }
                        Err(PushError::Closed(job)) => {
                            resp = job.buf;
                            resp.clear();
                            protocol::encode_error(
                                &mut resp,
                                Status::ShuttingDown,
                                "server is shutting down",
                            );
                        }
                    }
                }
            }
        }
        // Models the reply write failing mid-frame (peer reset, stalled
        // socket): the frame cannot be completed, so the connection drops.
        if graphmat_chaos::fire("server.frame.write").is_some()
            || protocol::write_frame(&mut stream, &resp).is_err()
        {
            shared.metrics.dropped_connections.fetch_add(1, Relaxed);
            return;
        }
    }
}
