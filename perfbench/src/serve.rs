//! The `serve-mixed` sweep, run inside every traced `analytics-social` run:
//! a 2-worker server over loopback, fed by an open-loop generator.
//!
//! Operations arrive at fixed offered rates, evenly spaced, whether or not
//! earlier ones were answered. Each one is timed from when it was due, so a
//! stalled server shows up as latency rather than as a lower send rate. Two
//! connections carry the load; every write
//! goes through connection 0, in stream order, so the final graph is a pure
//! function of the seed.

use crate::gen;
use crate::procfs::{self, CpuWindow};
use crate::stats;
use crate::trace::Tracer;
use graphmat_core::{Session, Topology};
use graphmat_io::edgelist::EdgeList;
use graphmat_io::rng::StdRng;
use graphmat_server::protocol::checksum_u32;
use graphmat_server::{
    Algorithm, Client, EdgeEdit, GraphService, RunRequest, Server, ServerConfig,
};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Server worker lanes (the session also gets two executor lanes).
pub const WORKERS: usize = 2;
/// Generator connections.
pub const CONNECTIONS: usize = 2;
/// The `loadgen` default read mix.
pub const READ_MIX: [(Algorithm, u32); 5] = [
    (Algorithm::Bfs, 4),
    (Algorithm::Sssp, 2),
    (Algorithm::PageRank, 1),
    (Algorithm::ConnectedComponents, 1),
    (Algorithm::InDegrees, 1),
];
/// One write per this many reads, on average.
pub const READS_PER_WRITE: u64 = 5;
/// PageRank iterations per read (the `loadgen` default).
pub const PAGERANK_ITERATIONS: u32 = 10;
/// Offered rates in operations per second, low to high, with the share of
/// the run each one gets and the blocks that share is measured in (the
/// metrics of a rate come from its cleaner half of blocks by host steal;
/// the capacity rate uses all of its blocks). On a 2-core host the seed serves 35–50
/// operations per second of this mix, so the first three rates sit below
/// that and the last one at about twice it. The second is the "mid" rate
/// the end-to-end latencies are read at; the last one measures capacity.
pub const RATES: [(f64, f64, usize); 4] = [
    (6.0, 0.1, 1),
    (12.0, 0.6, 5),
    (24.0, 0.2, 1),
    (72.0, 0.1, 2),
];
/// Index of the mid rate in [`RATES`].
pub const MID: usize = 1;
/// A rate is met when the read tail (p90, or the largest read latency when
/// there are too few samples for a p90) stays within this limit.
pub const LATENCY_LIMIT_MS: f64 = 1000.0;
/// ... and no growing backlog: at most this share of the phase's
/// operations (and at least [`CONNECTIONS`]) still unsent at its end.
pub const BACKLOG_SHARE: f64 = 0.1;

/// The label of a rate in metric names, e.g. `r12`.
pub fn rate_label(rate: f64) -> String {
    format!("r{}", rate.round() as u64)
}

/// One scheduled operation.
#[derive(Clone, Debug)]
pub enum OpKind {
    Read(RunRequest),
    /// The index of the batch in the update stream.
    Write(usize),
}

/// When an operation was due, sent and answered.
#[derive(Clone, Debug)]
pub struct Timed<R> {
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
    pub out: R,
}

impl<R> Timed<R> {
    /// Latency as the user sees it: from due to answered.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due).as_secs_f64() * 1e3
    }

    /// How late the generator sent it.
    pub fn late_ms(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }
}

/// Send each operation at its due time (never earlier) and time it from
/// then. Operations that fall due while an earlier one is outstanding wait
/// in this queue; their wait counts in their latency.
pub fn drive<O, R>(
    start: Instant,
    ops: &[(Duration, O)],
    mut send: impl FnMut(&O) -> R,
) -> Vec<Timed<R>> {
    ops.iter()
        .map(|(offset, op)| {
            let due = start + *offset;
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            let out = send(op);
            Timed {
                due,
                sent,
                done: Instant::now(),
                out,
            }
        })
        .collect()
}

/// Operations due before `end` that had not been sent by then.
pub fn backlog_at<R>(records: &[Timed<R>], end: Instant) -> usize {
    records
        .iter()
        .filter(|r| r.due < end && r.sent >= end)
        .count()
}

/// What the server answered.
#[derive(Clone, Debug)]
pub struct Answer {
    /// Algorithm name, or `"write"`.
    pub kind: &'static str,
    pub ok: bool,
    /// Server execute time from the reply header, in microseconds.
    pub exec_us: u64,
    pub reply_bytes: usize,
}

impl Answer {
    /// An unsuccessful answer of the given kind, with no server timing.
    fn failed(kind: &'static str) -> Answer {
        Answer {
            kind,
            ok: false,
            exec_us: 0,
            reply_bytes: 0,
        }
    }
}

fn algorithm_name(algorithm: Algorithm) -> &'static str {
    match algorithm {
        Algorithm::PageRank => "pagerank",
        Algorithm::Bfs => "bfs",
        Algorithm::Sssp => "sssp",
        Algorithm::ConnectedComponents => "components",
        Algorithm::InDegrees => "in_degrees",
    }
}

/// A shuffled deck holding each operation kind in its exact proportion:
/// one write per [`READS_PER_WRITE`] reads and the reads in [`READ_MIX`]
/// weights. Dealing from decks keeps the mix of every phase at its stated
/// proportions instead of letting it drift with the seed.
fn deck(rng: &mut StdRng) -> Vec<Option<Algorithm>> {
    let mut cards: Vec<Option<Algorithm>> = READ_MIX
        .iter()
        .flat_map(|&(algorithm, weight)| {
            std::iter::repeat_n(Some(algorithm), (weight as u64 * READS_PER_WRITE) as usize)
        })
        .collect();
    let reads = cards.len() as u64;
    cards.extend(std::iter::repeat_n(
        None,
        (reads / READS_PER_WRITE) as usize,
    ));
    for i in (1..cards.len()).rev() {
        cards.swap(i, rng.gen_range(0..i + 1));
    }
    cards
}

/// The operations of one rate phase, assigned to connections.
fn schedule(
    rng: &mut StdRng,
    rate: f64,
    length: Duration,
    roots: &[u32],
    next_write: &mut usize,
    next_read: &mut usize,
) -> [Vec<(Duration, OpKind)>; CONNECTIONS] {
    let count = (rate * length.as_secs_f64()).round().max(1.0) as usize;
    let phase = rng.gen::<f64>();
    let offsets = (0..count).map(|i| (i as f64 + phase) / count as f64);
    let mut lanes: [Vec<(Duration, OpKind)>; CONNECTIONS] = Default::default();
    let mut cards = Vec::new();
    for offset in offsets {
        if cards.is_empty() {
            cards = deck(rng);
        }
        let due = length.mul_f64(offset);
        let Some(Some(algorithm)) = cards.pop() else {
            lanes[0].push((due, OpKind::Write(*next_write)));
            *next_write += 1;
            continue;
        };
        let request = RunRequest::new(algorithm)
            .seed(roots[rng.gen_range(0..roots.len())] as u64)
            .iterations(PAGERANK_ITERATIONS)
            .include_values(algorithm == Algorithm::Bfs);
        lanes[*next_read % CONNECTIONS].push((due, OpKind::Read(request)));
        *next_read += 1;
    }
    lanes
}

/// One generator connection; reconnects after a transport error.
struct Connection {
    addr: SocketAddr,
    client: Option<Client>,
    num_vertices: usize,
}

impl Connection {
    fn client(&mut self) -> Option<&mut Client> {
        if self.client.is_none() {
            self.client = Client::connect(self.addr).ok();
        }
        self.client.as_mut()
    }

    fn send(&mut self, op: &OpKind, batches: &[Vec<EdgeEdit>]) -> Answer {
        let num_vertices = self.num_vertices;
        let Some(client) = self.client() else {
            return Answer::failed("error");
        };
        let answer = match op {
            OpKind::Read(request) => client.run(request).map(|reply| {
                let values_ok = !request.include_values
                    || (reply.num_values as usize == num_vertices
                        && reply
                            .values_u32()
                            .is_some_and(|values| checksum_u32(&values) == reply.checksum));
                Answer {
                    kind: algorithm_name(request.algorithm),
                    ok: reply.is_ok() && values_ok,
                    exec_us: reply.elapsed_micros,
                    reply_bytes: reply.values.len(),
                }
            }),
            OpKind::Write(index) => client.update(&batches[*index]).map(|reply| Answer {
                ok: reply.is_ok(),
                ..Answer::failed("write")
            }),
        };
        answer.unwrap_or_else(|_| {
            self.client = None;
            Answer::failed("error")
        })
    }
}

/// Start a server with [`WORKERS`] workers on a loopback port over
/// `topology`, and wait for its first PING.
pub fn bind(session: Session, topology: Arc<Topology<f32>>) -> Result<Server, String> {
    let server = Server::bind(
        "127.0.0.1:0",
        GraphService::new(session, topology),
        ServerConfig {
            workers: WORKERS,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("binding the server: {e}"))?;
    if let Err(e) = Client::connect(server.local_addr()).and_then(|mut c| c.ping()) {
        server.shutdown();
        return Err(format!("first PING: {e}"));
    }
    Ok(server)
}

/// What one offered rate measured.
#[derive(Debug, Default)]
pub struct RatePhase {
    pub rate: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Read latencies from due time, ms (failed reads excluded; they count
    /// as misses in [`RatePhase::meets_limit`]).
    pub read_ms: Vec<f64>,
    pub write_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
    pub backlog_end: usize,
    /// Operations answered OK, and the time from block start to last answer
    /// summed over blocks.
    pub ok: u64,
    pub busy_s: f64,
    /// Host steal over the block; a rate's metrics come from its blocks
    /// with the least.
    pub steal_frac: f64,
    pub exec_ms: BTreeMap<&'static str, Vec<f64>>,
    /// Round trip minus server execute time, per read, ms.
    pub residual_ms: Vec<f64>,
    pub reply_kb: Vec<f64>,
}

impl RatePhase {
    /// Operations answered OK per second of the blocks.
    pub fn achieved_rps(&self) -> f64 {
        self.ok as f64 / self.busy_s.max(1e-9)
    }

    /// One phase holding every sample of `parts`.
    fn merge<'p>(rate: f64, parts: impl IntoIterator<Item = &'p RatePhase>) -> RatePhase {
        let mut out = RatePhase {
            rate,
            ..Default::default()
        };
        for p in parts {
            out.attempted += p.attempted;
            out.failed += p.failed;
            out.read_ms.extend_from_slice(&p.read_ms);
            out.write_ms.extend_from_slice(&p.write_ms);
            out.late_ms.extend_from_slice(&p.late_ms);
            out.backlog_end += p.backlog_end;
            out.ok += p.ok;
            out.busy_s += p.busy_s;
            for (kind, exec) in &p.exec_ms {
                out.exec_ms.entry(kind).or_default().extend_from_slice(exec);
            }
            out.residual_ms.extend_from_slice(&p.residual_ms);
            out.reply_kb.extend_from_slice(&p.reply_kb);
        }
        out
    }

    /// Account one answered operation.
    fn add(&mut self, r: &Timed<Answer>) {
        self.attempted += 1;
        self.late_ms.push(r.late_ms());
        if !r.out.ok {
            self.failed += 1;
            return;
        }
        self.ok += 1;
        if r.out.kind == "write" {
            self.write_ms.push(r.latency_ms());
            return;
        }
        let exec_ms = r.out.exec_us as f64 / 1e3;
        self.read_ms.push(r.latency_ms());
        self.exec_ms.entry(r.out.kind).or_default().push(exec_ms);
        self.residual_ms
            .push(((r.done - r.sent).as_secs_f64() * 1e3 - exec_ms).max(0.0));
        self.reply_kb.push(r.out.reply_bytes as f64 / 1024.0);
    }

    /// The read tail the limit is checked on: p90 when there are enough
    /// samples for it, else the largest latency.
    pub fn read_tail_ms(&self) -> f64 {
        stats::tail(&self.read_ms, 0.90)
            .unwrap_or_else(|| self.read_ms.iter().copied().fold(0.0, f64::max))
    }

    /// Every operation answered, the read tail within the limit and no
    /// backlog left at the end of the phase.
    pub fn meets_limit(&self) -> bool {
        self.failed == 0
            && self.read_tail_ms() <= LATENCY_LIMIT_MS
            && self.backlog_end as f64
                <= (BACKLOG_SHARE * self.attempted as f64).max(CONNECTIONS as f64)
    }
}

/// A whole sweep over [`RATES`].
#[derive(Debug, Default)]
pub struct Sweep {
    /// Per rate, its kept blocks merged; `failed` counts every block.
    pub phases: Vec<RatePhase>,
    /// Operations over every block of every rate.
    pub attempted: u64,
    pub failed: u64,
    /// Writes sent, in stream order, all on connection 0.
    pub writes_sent: usize,
    /// `STATS` samples taken once a second (traced runs only).
    pub stats_samples: Vec<String>,
}

impl Sweep {
    pub fn mid(&self) -> &RatePhase {
        &self.phases[MID]
    }

    /// Achieved rate at the highest offered rate that met the limit (0 when
    /// none did).
    pub fn max_rate_rps(&self) -> f64 {
        self.phases
            .iter()
            .filter(|p| p.meets_limit())
            .map(RatePhase::achieved_rps)
            .fold(0.0, f64::max)
    }
}

/// The server a sweep drives and the inputs it draws from.
pub struct Target<'a> {
    pub addr: SocketAddr,
    pub num_vertices: usize,
    pub roots: &'a [u32],
    /// Enough UPDATE batches for every write the schedule draws.
    pub batches: &'a [Vec<EdgeEdit>],
}

/// Run the rate sweep for about `seconds`, sending writes from stream
/// position `first_write` on.
pub fn sweep(
    target: &Target<'_>,
    rng: &mut StdRng,
    seconds: f64,
    first_write: usize,
    tracer: &mut Tracer,
) -> Sweep {
    let Target {
        addr,
        num_vertices,
        roots,
        batches,
    } = *target;
    let mut sweep = Sweep::default();
    let stop_monitor = Arc::new(AtomicBool::new(false));
    let samples = Arc::new(Mutex::new(Vec::new()));
    let monitor = tracer.enabled().then(|| {
        let (stop, samples) = (Arc::clone(&stop_monitor), Arc::clone(&samples));
        std::thread::spawn(move || {
            let Ok(mut client) = Client::connect(addr) else {
                return;
            };
            while !stop.load(Ordering::SeqCst) {
                if let Ok(json) = client.stats_json() {
                    samples
                        .lock()
                        .expect("stats sample list poisoned")
                        .push(json);
                }
                for _ in 0..10 {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
            }
        })
    });
    let mut connections: Vec<Connection> = (0..CONNECTIONS)
        .map(|_| Connection {
            addr,
            client: None,
            num_vertices,
        })
        .collect();
    let (mut next_write, mut next_read) = (first_write, 0usize);
    for (index, &(rate, share, blocks)) in RATES.iter().enumerate() {
        let length = Duration::from_secs_f64(seconds * share / blocks as f64);
        // Spans cover the mid rate only, the one the end-to-end latencies
        // are read at; the overload phase would bury them in queueing.
        let enabled = tracer.enabled() && index == MID;
        let parts: Vec<RatePhase> = (0..blocks)
            .map(|block| {
                let lanes = schedule(rng, rate, length, roots, &mut next_write, &mut next_read);
                let window = CpuWindow::start();
                let start = Instant::now() + Duration::from_millis(5);
                let epoch = tracer.epoch();
                let results: Vec<(Vec<Timed<Answer>>, Tracer)> = std::thread::scope(|scope| {
                    let handles: Vec<_> = connections
                        .iter_mut()
                        .zip(&lanes)
                        .enumerate()
                        .map(|(lane, (conn, ops))| {
                            scope.spawn(move || {
                                let mut lane_tracer = Tracer::new(enabled, epoch);
                                let records = drive(start, ops, |op| conn.send(op, batches));
                                if enabled {
                                    for (i, r) in records.iter().enumerate() {
                                        let request =
                                            (block as u64) << 40 | (lane as u64) << 32 | i as u64;
                                        trace_op(&mut lane_tracer, request, r);
                                    }
                                }
                                (records, lane_tracer)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("generator connection thread panicked"))
                        .collect()
                });
                let mut phase = RatePhase {
                    rate,
                    steal_frac: window.finish().steal_frac,
                    ..Default::default()
                };
                let mut last_done = start;
                for (records, lane_tracer) in results {
                    tracer.absorb(lane_tracer);
                    phase.backlog_end += backlog_at(&records, start + length);
                    for r in &records {
                        last_done = last_done.max(r.done);
                        phase.add(r);
                    }
                }
                phase.busy_s = (last_done - start).as_secs_f64();
                phase
            })
            .collect();
        let steal: Vec<f64> = parts.iter().map(|p| p.steal_frac).collect();
        // Capacity varies with the store's state (overlay or freshly
        // compacted base) more than with steal: average every block.
        let cleaner = if index + 1 == RATES.len() {
            (0..parts.len()).collect()
        } else {
            procfs::cleaner_half(&steal)
        };
        let mut summary = RatePhase::merge(rate, cleaner.iter().map(|&i| &parts[i]));
        summary.failed = parts.iter().map(|p| p.failed).sum();
        sweep.attempted += parts.iter().map(|p| p.attempted).sum::<u64>();
        sweep.failed += summary.failed;
        sweep.phases.push(summary);
    }
    sweep.writes_sent = next_write - first_write;
    stop_monitor.store(true, Ordering::SeqCst);
    if let Some(monitor) = monitor {
        let _ = monitor.join();
    }
    sweep.stats_samples = std::mem::take(&mut *samples.lock().expect("stats sample list poisoned"));
    sweep
}

/// Spans of one operation: the generator's queueing (`loadgen.late`), the
/// round trip (`server.roundtrip`) and, inside it, the server's reported
/// execute time (`algorithms.server_execute`, derived).
fn trace_op(tracer: &mut Tracer, request: u64, r: &Timed<Answer>) {
    let root = tracer.record("loadgen.request", request, r.due, r.done, None);
    tracer.record("loadgen.late", request, r.due, r.sent, root);
    let trip = tracer.record("server.roundtrip", request, r.sent, r.done, root);
    if r.out.kind != "write" {
        // Place the execute interval in the middle of the round trip; only
        // its length is known.
        let rtt = r.done - r.sent;
        let exec = Duration::from_micros(r.out.exec_us).min(rtt);
        let start = r.sent + (rtt - exec) / 2;
        tracer.record(
            "algorithms.server_execute",
            request,
            start,
            start + exec,
            trip,
        );
    }
}

/// A numeric field of a `STATS` JSON document, searched after `section`.
pub fn scrape(json: &str, section: &str, key: &str) -> Option<f64> {
    let from = json.find(&format!("\"{section}\""))?;
    let rest = &json[from..];
    let at = rest.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = rest[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    digits.parse().ok()
}

/// BFS with values from `root` after the last write must equal
/// `bfs_reference` on the generator's own edited edge list.
pub fn final_check(
    addr: SocketAddr,
    base: &EdgeList<f32>,
    batches: &[Vec<EdgeEdit>],
    root: u32,
) -> bool {
    let edited = gen::apply_edits(base, batches);
    let expected = graphmat_algorithms::bfs::bfs_reference(&edited, root, false);
    let Ok(mut client) = Client::connect(addr) else {
        return false;
    };
    let request = RunRequest::new(Algorithm::Bfs)
        .seed(root as u64)
        .include_values(true);
    client
        .run(&request)
        .ok()
        .filter(|reply| reply.is_ok())
        .and_then(|reply| reply.values_u32())
        .is_some_and(|values| values == expected)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stalled_server_shows_as_latency_not_as_fewer_sends() {
        // Ten operations due every 10 ms; the first answer stalls 120 ms.
        let ops: Vec<(Duration, usize)> = (0..10)
            .map(|i| (Duration::from_millis(10 * i), i as usize))
            .collect();
        let start = Instant::now();
        let records = drive(start, &ops, |&i| {
            std::thread::sleep(Duration::from_millis(if i == 0 { 120 } else { 1 }));
        });
        // Every operation was still sent: the stall did not thin the load.
        assert_eq!(records.len(), 10);
        // Operations due during the stall were sent late, and their latency
        // from due time includes the wait.
        for r in &records[1..6] {
            assert!(r.late_ms() >= 60.0, "late {} ms", r.late_ms());
            assert!(r.latency_ms() >= r.late_ms());
        }
        // Latency from due time is never less than the round trip itself.
        assert!(records.iter().all(|r| r.done - r.due >= r.done - r.sent));
        // At 50 ms, operations due at 10..=40 ms were still waiting.
        assert_eq!(backlog_at(&records, start + Duration::from_millis(50)), 4);
    }

    #[test]
    fn operations_are_never_sent_early() {
        let ops: Vec<(Duration, ())> = (0..5).map(|i| (Duration::from_millis(5 * i), ())).collect();
        let records = drive(Instant::now(), &ops, |_| ());
        assert!(records.iter().all(|r| r.sent >= r.due));
    }

    #[test]
    fn schedules_repeat_and_send_every_write_on_connection_zero() {
        let roots = [1, 2, 3];
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut w, mut r) = (0, 0);
            schedule(
                &mut rng,
                50.0,
                Duration::from_secs(4),
                &roots,
                &mut w,
                &mut r,
            )
        };
        let lanes = draw(3);
        assert_eq!(format!("{lanes:?}"), format!("{:?}", draw(3)));
        assert!(lanes[1].iter().all(|(_, op)| matches!(op, OpKind::Read(_))));
        let writes: Vec<usize> = lanes[0]
            .iter()
            .filter_map(|(_, op)| match op {
                OpKind::Write(i) => Some(*i),
                OpKind::Read(_) => None,
            })
            .collect();
        assert!(!writes.is_empty());
        assert!(
            writes.windows(2).all(|w| w[1] == w[0] + 1),
            "writes keep stream order"
        );
        // 200 operations are 4 whole decks of 54 cards minus 16: the write
        // share stays within one deck's worth of 1 in 6.
        assert_eq!(lanes[0].len() + lanes[1].len(), 200);
        assert!(
            (200 / 6 - 9..=200 / 6 + 9).contains(&writes.len()),
            "{} writes",
            writes.len()
        );
    }

    #[test]
    fn scrape_reads_nested_stats_fields() {
        let json = "{\"store\":{\"delta_edges\":12,\"compactions\":3,\"compaction_failures\":0},\
                    \"pool\":{\"created\":4,\"reused\":96},\"totals\":{\"requests\":100,\"busy\":2}}";
        assert_eq!(scrape(json, "store", "compactions"), Some(3.0));
        assert_eq!(scrape(json, "pool", "reused"), Some(96.0));
        assert_eq!(scrape(json, "totals", "busy"), Some(2.0));
    }
}
