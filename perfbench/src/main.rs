//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload analytics-social --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Generates the workload's inputs from the seed, writes the graph to a
//! `.mtx` file, then drives the library only through its public API,
//! checks every answer and prints every metric with its unit and sample
//! count. The last line of standard output is the result object. With
//! `--trace 1` the run measures half its time untraced and half traced,
//! adds the per-layer ladder, and prints the per-layer metrics instead.
//! See `perfbench/README.md`.

mod analytics;
mod gen;
mod ladder;
mod procfs;
mod report;
mod serve;
mod setup;
mod stats;
mod trace;

use analytics::Queries;
use graphmat_core::{Session, Topology};
use graphmat_io::edgelist::EdgeList;
use graphmat_io::rng::StdRng;
use report::Report;
use setup::SetupTimes;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use trace::Tracer;

/// Where runs leave their graph files, reports and span files.
const OUT_DIR: &str = "perfbench/out";
/// Executor lanes of the analytics session (and of the server's).
const THREADS: usize = 2;
/// Blocks an untraced run is measured in. The host's hypervisor steals CPU
/// time in bursts; the metrics come from the half of the blocks with the
/// least steal (see `procfs::cleaner_half`).
const BLOCKS: usize = 10;

/// End-to-end metrics every workload reports, with their units.
/// The read tail `read_ms_p90` is reported with the per-layer metrics
/// instead: during host steal bursts its spread over ten runs reached 0.38,
/// past the largest bound the gate allows.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("read_ms_p50", "ms"),
    ("iter_ms_p50", "ms"),
    ("ops_per_s", "1/s"),
];

/// Per-layer metrics every traced run reports, with their units. A value
/// of 0 means the workload does not exercise that layer, or has too few
/// samples for that percentile (the report shows the sample count).
pub const PER_LAYER: [(&str, &str); 90] = [
    ("io.mtx_read_s", "s"),
    ("core.build_s", "s"),
    ("core.matrix_mb", "MB"),
    ("core.pull_mirror_mb", "MB"),
    ("sparse.push_ns_per_edge.pct0_1", "ns"),
    ("sparse.push_ns_per_edge.pct1", "ns"),
    ("sparse.push_ns_per_edge.pct10", "ns"),
    ("sparse.push_ns_per_edge.pct100", "ns"),
    ("sparse.pull_ns_per_edge.pct0_1", "ns"),
    ("sparse.pull_ns_per_edge.pct1", "ns"),
    ("sparse.pull_ns_per_edge.pct10", "ns"),
    ("sparse.pull_ns_per_edge.pct100", "ns"),
    ("sparse.crossover_pct", "%"),
    ("sparse.dispatch_us", "us"),
    ("core.supersteps.bfs", "count"),
    ("core.supersteps.sssp", "count"),
    ("core.pull_frac.bfs", "ratio"),
    ("core.pull_frac.pagerank", "ratio"),
    ("core.pull_useful_frac.bfs", "ratio"),
    ("core.superstep_us.bfs", "us"),
    ("core.superstep_us.sssp", "us"),
    ("core.send_frac.bfs", "ratio"),
    ("core.spmv_frac.bfs", "ratio"),
    ("core.apply_frac.bfs", "ratio"),
    ("core.send_frac.pagerank", "ratio"),
    ("core.spmv_frac.pagerank", "ratio"),
    ("core.apply_frac.pagerank", "ratio"),
    ("core.send_frac.sssp", "ratio"),
    ("core.spmv_frac.sssp", "ratio"),
    ("core.apply_frac.sssp", "ratio"),
    ("core.ns_per_edge.pagerank", "ns"),
    ("core.speedup_2t.pagerank", "ratio"),
    ("core.speedup_2t.sssp", "ratio"),
    ("proc.cpu_util", "ratio"),
    ("proc.minor_faults", "count"),
    ("proc.steal_frac", "ratio"),
    ("proc.steal_frac_kept", "ratio"),
    ("baselines.native.pagerank_iter_ms", "ms"),
    ("baselines.native.bfs_ms_p50", "ms"),
    ("baselines.native.sssp_ms_p50", "ms"),
    ("baselines.galois.pagerank_iter_ms", "ms"),
    ("gap.pagerank_vs_native", "ratio"),
    ("gap.bfs_vs_native", "ratio"),
    ("gap.sssp_vs_native", "ratio"),
    ("core.store.apply_ms_p50", "ms"),
    ("core.store.apply_ms_p95", "ms"),
    ("core.store.compact_s", "s"),
    ("core.store.compactions", "count"),
    ("core.store.delta_edges_p50", "count"),
    ("algorithms.bfs_ms_p50.base", "ms"),
    ("algorithms.bfs_ms_p50.overlay", "ms"),
    ("server.exec_ms_p50.bfs", "ms"),
    ("server.exec_ms_p50.sssp", "ms"),
    ("server.exec_ms_p50.pagerank", "ms"),
    ("server.exec_ms_p50.components", "ms"),
    ("server.exec_ms_p50.in_degrees", "ms"),
    ("server.residual_ms_p50", "ms"),
    ("server.residual_ms_p90", "ms"),
    ("server.reply_kb_p50", "KiB"),
    ("server.busy_frac", "ratio"),
    ("server.pool_reuse_frac", "ratio"),
    ("serve.read_ms_tail.r6", "ms"),
    ("serve.read_ms_tail.r12", "ms"),
    ("serve.read_ms_tail.r24", "ms"),
    ("serve.read_ms_tail.r72", "ms"),
    ("loadgen.late_ms_p90", "ms"),
    ("loadgen.backlog_end.r6", "count"),
    ("loadgen.backlog_end.r12", "count"),
    ("loadgen.backlog_end.r24", "count"),
    ("loadgen.backlog_end.r72", "count"),
    ("read_ms_p90", "ms"),
    ("edges_per_s", "1/s"),
    ("bfs_ms_p50", "ms"),
    ("bfs_ms_p90", "ms"),
    ("pagerank_iter_ms_p50", "ms"),
    ("sssp_ms_p50", "ms"),
    ("sssp_ms_p90", "ms"),
    ("read_ms_p99", "ms"),
    ("write_ms_p50", "ms"),
    ("write_ms_p95", "ms"),
    ("max_rate_rps", "1/s"),
    ("ops_failed_frac", "ratio"),
    ("trace.overhead.read_ms_p50", "ms"),
    ("trace.overhead.ops_per_s", "1/s"),
    ("layer.self_frac.bench", "ratio"),
    ("layer.self_frac.loadgen", "ratio"),
    ("layer.self_frac.server", "ratio"),
    ("layer.self_frac.algorithms", "ratio"),
    ("layer.self_frac.core", "ratio"),
    ("layer.self_frac.sparse", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 40.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => args.trace = value != "0",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Everything a workload run produced.
struct Outcome {
    report: Report,
    attempted: u64,
    failed: u64,
    correct: bool,
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let out_dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let mtx = out_dir.join(format!("{stem}-{}.mtx", std::process::id()));
    let generated = match args.workload.as_str() {
        "analytics-social" => gen::social(args.seed),
        "analytics-road" => gen::road(args.seed),
        other => return Err(format!("unknown workload {other:?}")),
    };
    gen::write_mtx(&generated, &mtx).map_err(|e| format!("writing {}: {e}", mtx.display()))?;
    drop(generated);

    let mut spans = Tracer::new(args.trace, Instant::now());
    let outcome = analytics(&args, &mtx, &mut spans);
    let _ = std::fs::remove_file(&mtx);
    let mut outcome = outcome?;

    let names: Vec<&str> = if args.trace {
        for (name, unit) in PER_LAYER {
            if outcome.report.get(name).is_none() {
                outcome.report.set(name, 0.0, unit, 0);
            }
        }
        spans
            .write_jsonl(&out_dir.join(format!("{stem}.spans.jsonl")))
            .map_err(|e| format!("writing spans: {e}"))?;
        PER_LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        END_TO_END.iter().map(|(n, _)| *n).collect()
    };
    std::fs::write(
        out_dir.join(format!("{stem}.report.json")),
        outcome.report.full_json(),
    )
    .map_err(|e| format!("writing the report: {e}"))?;
    println!(
        "{} seed {} ({}):",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    print!("{}", outcome.report.table());
    let correct = outcome.correct && outcome.failed == 0;
    println!(
        "{}",
        outcome
            .report
            .result_line(&names, correct, outcome.attempted, outcome.failed)?
    );
    Ok(correct)
}

/// Blocks a measured phase is split into: ten per run, five per half of a
/// traced run.
fn blocks(args: &Args) -> usize {
    if args.trace {
        BLOCKS / 2
    } else {
        BLOCKS
    }
}

/// CPU use over all blocks, and host steal over all and over kept blocks.
fn report_cpu(report: &mut Report, all: &procfs::CpuUse, kept: &procfs::CpuUse) {
    report.set("proc.cpu_util", all.util, "ratio", 1);
    report.set("proc.minor_faults", all.minor_faults as f64, "count", 1);
    report.set("proc.steal_frac", all.steal_frac, "ratio", 1);
    report.set("proc.steal_frac_kept", kept.steal_frac, "ratio", 1);
}

/// Length of the untraced measurement: the whole run, or its first half in
/// a traced run.
fn untraced_seconds(args: &Args) -> f64 {
    if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    }
}

fn median(v: &[f64]) -> f64 {
    stats::median(v).unwrap_or(0.0)
}

fn report_setup(report: &mut Report, times: &[SetupTimes]) {
    let pick = |f: fn(&SetupTimes) -> f64| times.iter().map(f).collect::<Vec<f64>>();
    report.set_median("setup_s", &pick(|t| t.total_s), "s");
    report.set_median("io.mtx_read_s", &pick(|t| t.read_s), "s");
    report.set_median("core.build_s", &pick(|t| t.build_s), "s");
}

/// Layer self-time shares of the traced phase, ranked: the opportunity
/// table.
fn opportunity(workload: &str, tracer: &Tracer, report: &mut Report) {
    let total = trace::root_time(tracer.spans()).max(1) as f64;
    let mut shares: Vec<(&str, f64)> = trace::layer_self_times(tracer.spans())
        .into_iter()
        .map(|(layer, ns)| (layer, ns as f64 / total))
        .collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("opportunity table for {workload} (layer self time / end-to-end time):");
    for (rank, (layer, share)) in shares.iter().enumerate() {
        println!("  {:>2}. {layer:<12} {:>6.2}%", rank + 1, share * 100.0);
        report.set(
            format!("layer.self_frac.{layer}"),
            *share,
            "ratio",
            tracer.spans().len(),
        );
    }
}

fn analytics(args: &Args, mtx: &Path, tracer: &mut Tracer) -> Result<Outcome, String> {
    let social = args.workload == "analytics-social";
    let session = Session::with_threads(THREADS).map_err(|e| e.to_string())?;
    // Set-up spans join the trace after the opportunity table, which covers
    // the query phase only.
    let mut setup_spans = Tracer::new(args.trace, tracer.epoch());
    let setup::Loaded {
        edges,
        topology,
        times,
    } = setup::load(&session, mtx, &mut setup_spans)?;
    let mut times = vec![times];
    // More set-ups before each measured block, each copy freed at once.
    let mut sample_setup = || -> Result<(), String> {
        let more = setup::sample(&session, mtx, setup::PER_BLOCK_S, &mut setup_spans)?;
        times.extend(more);
        Ok(())
    };
    let mut report = Report::default();

    let mut queries = if social {
        Queries::Social(analytics::Social::new(
            &session, &topology, &edges, args.seed,
        ))
    } else {
        Queries::Road(analytics::Road::new(&session, &topology, &edges, args.seed))
    };
    let reference_ok = !social || analytics::check_pagerank_reference(args.seed);

    let mut off = Tracer::new(false, tracer.epoch());
    let measured = queries.measure(
        untraced_seconds(args),
        blocks(args),
        &mut off,
        &mut sample_setup,
    )?;
    let (mut attempted, mut failed) = (measured.all.attempted, measured.all.failed);
    let kept = &measured.kept;
    report.set_median("read_ms_p50", &kept.read_ms, "ms");
    report.set_p90("read_ms_p90", &kept.read_ms, "ms");
    report.set_median("iter_ms_p50", &kept.iter_ms, "ms");
    report.set(
        "ops_per_s",
        kept.ops_per_s(),
        "1/s",
        kept.attempted as usize,
    );
    let (read, iter) = if social {
        ("bfs", "pagerank_iter")
    } else {
        ("sssp", "sssp_superstep")
    };
    report.set_median(format!("{read}_ms_p50"), &kept.read_ms, "ms");
    report.set_p90(format!("{read}_ms_p90"), &kept.read_ms, "ms");
    report.set_median(format!("{iter}_ms_p50"), &kept.iter_ms, "ms");
    report.set(
        "edges_per_s",
        kept.edges_per_s(),
        "1/s",
        kept.attempted as usize,
    );
    report_cpu(&mut report, &measured.all.cpu, &kept.cpu);

    if args.trace {
        let traced =
            queries.measure(args.seconds / 2.0, blocks(args), tracer, &mut sample_setup)?;
        attempted += traced.all.attempted;
        failed += traced.all.failed;
        report.set(
            "trace.overhead.read_ms_p50",
            median(&traced.kept.read_ms) - median(&kept.read_ms),
            "ms",
            traced.kept.read_ms.len(),
        );
        report.set(
            "trace.overhead.ops_per_s",
            traced.kept.ops_per_s() - kept.ops_per_s(),
            "1/s",
            traced.kept.attempted as usize,
        );
        opportunity(&args.workload, tracer, &mut report);
        tracer.absorb(setup_spans);
        let checked = ladder_common(
            &topology,
            &edges,
            &session,
            queries.roots(),
            args.seed,
            &mut report,
            tracer,
        )?;
        attempted += checked.attempted;
        failed += checked.failed;
        if social {
            let (a, f) = serving_probe(
                args,
                &topology,
                &edges,
                queries.roots(),
                &mut report,
                tracer,
            )?;
            attempted += a;
            failed += f;
        }
    }
    report_setup(&mut report, &times);
    report.set(
        "ops_failed_frac",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
        attempted as usize,
    );
    report.set("peak_rss_mb", procfs::peak_rss_mb(), "MB", 1);
    Ok(Outcome {
        report,
        attempted,
        failed,
        correct: reference_ok,
    })
}

/// The ladder parts every workload measures on its own graph. Returns the
/// ladder queries run and the ones that failed their check.
fn ladder_common(
    topology: &Arc<Topology<f32>>,
    edges: &EdgeList<f32>,
    session: &Session,
    roots: &[u32],
    seed: u64,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<ladder::Tally, String> {
    report.set(
        "core.matrix_mb",
        topology.matrix_bytes() as f64 / (1 << 20) as f64,
        "MB",
        1,
    );
    report.set(
        "core.pull_mirror_mb",
        topology.pull_bytes() as f64 / (1 << 20) as f64,
        "MB",
        1,
    );
    ladder::kernels(topology, session, seed, report, tracer);
    let mut tally = ladder::algorithms(topology, edges, session, roots, report, tracer)?;
    let batches = gen::update_stream(seed, edges, ladder::REPLAY_BATCHES);
    tally.add(ladder::store(
        topology, edges, session, &batches, roots, report, tracer,
    )?);
    Ok(tally)
}

/// The per-rate serving metrics and the sweep-wide ones (`max_rate_rps`,
/// the read p99 and the write latencies) of one sweep.
fn report_serving(report: &mut Report, sweep: &serve::Sweep) {
    let mid = sweep.mid();
    report.set(
        "max_rate_rps",
        sweep.max_rate_rps(),
        "1/s",
        sweep.phases.len(),
    );
    report.set(
        "read_ms_p99",
        stats::tail(&mid.read_ms, 0.99).unwrap_or(0.0),
        "ms",
        mid.read_ms.len(),
    );
    report.set_median("write_ms_p50", &mid.write_ms, "ms");
    report.set(
        "write_ms_p95",
        stats::tail(&mid.write_ms, 0.95).unwrap_or(0.0),
        "ms",
        mid.write_ms.len(),
    );
    for phase in &sweep.phases {
        let label = serve::rate_label(phase.rate);
        report.set(
            format!("serve.read_ms_tail.{label}"),
            phase.read_tail_ms(),
            "ms",
            phase.read_ms.len(),
        );
        report.set(
            format!("loadgen.backlog_end.{label}"),
            phase.backlog_end as f64,
            "count",
            phase.attempted as usize,
        );
        report.set(
            format!("serve.achieved_rps.{label}"),
            phase.achieved_rps(),
            "1/s",
            phase.attempted as usize,
        );
    }
}

/// Serving on the social graph inside a traced `analytics-social` run: a
/// 2-worker server over the same topology, one traced rate sweep, its
/// per-layer metrics and the final read-after-writes check. Returns the
/// operations attempted and failed.
fn serving_probe(
    args: &Args,
    topology: &Arc<Topology<f32>>,
    edges: &EdgeList<f32>,
    roots: &[u32],
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<(u64, u64), String> {
    let session = Session::with_threads(THREADS).map_err(|e| e.to_string())?;
    let server = serve::bind(session, Arc::clone(topology))?;
    let most_ops = serve::RATES.iter().map(|r| r.0).fold(0.0, f64::max) * args.seconds;
    let batches = gen::update_stream(args.seed, edges, most_ops.ceil() as usize + 1);
    let target = serve::Target {
        addr: server.local_addr(),
        num_vertices: topology.num_vertices() as usize,
        roots,
        batches: &batches,
    };
    let mut rng = StdRng::seed_from_u64(gen::sub_seed(args.seed, 5));
    let sweep = serve::sweep(&target, &mut rng, args.seconds / 2.0, 0, tracer);
    let final_ok = serve::final_check(target.addr, edges, &batches[..sweep.writes_sent], roots[0]);
    server.shutdown();
    report_serving(report, &sweep);
    serve_layers(&sweep, report);
    Ok((sweep.attempted + 1, sweep.failed + u64::from(!final_ok)))
}

/// Server-side per-layer metrics of the traced sweep.
fn serve_layers(sweep: &serve::Sweep, report: &mut Report) {
    let mid = sweep.mid();
    for (kind, exec) in &mid.exec_ms {
        report.set(
            format!("server.exec_ms_p50.{kind}"),
            median(exec),
            "ms",
            exec.len(),
        );
    }
    report.set_median("server.residual_ms_p50", &mid.residual_ms, "ms");
    report.set_p90("server.residual_ms_p90", &mid.residual_ms, "ms");
    report.set_median("server.reply_kb_p50", &mid.reply_kb, "KiB");
    report.set_p90("loadgen.late_ms_p90", &mid.late_ms, "ms");
    let samples = &sweep.stats_samples;
    let field = |section: &str, key: &str| -> Vec<f64> {
        samples
            .iter()
            .filter_map(|s| serve::scrape(s, section, key))
            .collect()
    };
    let last = |section: &str, key: &str| field(section, key).last().copied().unwrap_or(0.0);
    let (requests, busy) = (last("totals", "requests"), last("totals", "busy"));
    report.set(
        "server.busy_frac",
        busy / requests.max(1.0),
        "ratio",
        samples.len(),
    );
    let (created, reused) = (last("pool", "created"), last("pool", "reused"));
    report.set(
        "server.pool_reuse_frac",
        reused / (created + reused).max(1.0),
        "ratio",
        samples.len(),
    );
    report.set(
        "core.store.compactions",
        last("store", "compactions"),
        "count",
        samples.len(),
    );
    let delta = field("store", "delta_edges");
    report.set_median("core.store.delta_edges_p50", &delta, "count");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root names exactly these metrics.
    #[test]
    fn benchmark_json_lists_the_reported_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared: Vec<(String, String)> = json
            .split("{\"name\": \"")
            .skip(1)
            .filter_map(|entry| {
                let name = entry.split('"').next()?.to_string();
                let unit = entry
                    .split("\"unit\": \"")
                    .nth(1)?
                    .split('"')
                    .next()?
                    .to_string();
                Some((name, unit))
            })
            .collect();
        let ours: Vec<(String, String)> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared, ours);
    }
}
