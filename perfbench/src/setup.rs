//! Set-up: load the workload's `.mtx` file and build its topology, many
//! times over the run, so `setup_s` is a median rather than one sample.

use crate::trace::Tracer;
use graphmat_core::{Session, Topology};
use graphmat_io::edgelist::EdgeList;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Seconds of set-up before each measured block (see [`sample`]). The
/// road grid loads in ≈0.06 s and gets several set-ups per block, the
/// social graph one.
pub const PER_BLOCK_S: f64 = 0.4;

/// Durations of one set-up, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub read_s: f64,
    pub build_s: f64,
    pub total_s: f64,
}

/// Set up for about `seconds`, at least once, freeing each copy straight
/// away; returns the times of every set-up. It runs before each measured
/// block, so `setup_s` samples the host across the whole run rather than at
/// one moment: the host's speed drifts by up to ±20% within a minute.
pub fn sample(
    session: &Session,
    path: &Path,
    seconds: f64,
    tracer: &mut Tracer,
) -> Result<Vec<SetupTimes>, String> {
    let begin = Instant::now();
    let mut times = Vec::new();
    while times.is_empty() || begin.elapsed().as_secs_f64() < seconds {
        times.push(load(session, path, tracer)?.times);
    }
    Ok(times)
}

/// A loaded graph: the edge list read from the file and its topology.
pub struct Loaded {
    pub edges: EdgeList<f32>,
    pub topology: Arc<Topology<f32>>,
    pub times: SetupTimes,
}

/// Read the file (`io`) and build the session topology with its defaults:
/// in-edge matrices and pull mirrors on (`core`).
pub fn load(session: &Session, path: &Path, tracer: &mut Tracer) -> Result<Loaded, String> {
    let start = Instant::now();
    let edges = tracer
        .span("io.mtx_read_file", 0, |_| graphmat_io::mtx::read_file(path))
        .map_err(|e| format!("reading {}: {e}", path.display()))?;
    let read = Instant::now();
    let topology = tracer
        .span("core.build_graph", 0, |_| {
            session.build_graph(&edges).finish()
        })
        .map_err(|e| format!("building the topology: {e}"))?;
    let built = Instant::now();
    let times = SetupTimes {
        read_s: (read - start).as_secs_f64(),
        build_s: (built - read).as_secs_f64(),
        total_s: (built - start).as_secs_f64(),
    };
    Ok(Loaded {
        edges,
        topology,
        times,
    })
}
