//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name whose first dot-separated part is its layer
//! (`algorithms.bfs_view_into` belongs to `algorithms`), a start, an end,
//! the span that caused it, and the id of the request it serves. Spans stay
//! in memory and are written out once, when the run ends. A disabled tracer
//! records nothing and costs one branch per call.
//!
//! Spans whose interval the program reports rather than the benchmark
//! measures (the SEND/SpMV/APPLY split of `RunStats`, the server's execute
//! time) are added with [`Tracer::derived`] and marked as such in the file.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// `true` when the interval comes from the program's own report.
    pub derived: bool,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder. Threads record into their own tracer and the
/// tracers are merged with [`Tracer::absorb`] when the threads end.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer timing spans from `epoch`; share one epoch across threads.
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            request,
            parent: self.open.last().copied(),
            start_ns: start,
            end_ns: start,
            derived: false,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.ns(Instant::now());
        out
    }

    /// Record an interval measured elsewhere, nested under the innermost
    /// open span. Returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let parent = parent.or_else(|| self.open.last().copied());
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            derived: false,
        });
        Some(self.spans.len() - 1)
    }

    /// Record program-reported phase durations as consecutive child spans
    /// of `parent`, laid out from the parent's start.
    pub fn derived(
        &mut self,
        parent: Option<usize>,
        request: u64,
        parts: &[(&'static str, Duration)],
    ) {
        let Some(parent) = parent else { return };
        let mut at = self.spans[parent].start_ns;
        let end = self.spans[parent].end_ns;
        for &(name, length) in parts {
            let stop = (at + length.as_nanos() as u64).min(end);
            self.spans.push(Span {
                name,
                request,
                parent: Some(parent),
                start_ns: at,
                end_ns: stop,
                derived: true,
            });
            at = stop;
        }
    }

    /// Move another tracer's spans into this one, keeping parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"derived\":{}}}",
                s.name,
                s.request,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns,
                s.derived
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of it that the
/// union of its direct children covers.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, span) in spans.iter().enumerate() {
        if let Some(p) = span.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(span, kids)| {
            let mut covered: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| {
                    (
                        spans[k].start_ns.max(span.start_ns),
                        spans[k].end_ns.min(span.end_ns),
                    )
                })
                .filter(|(s, e)| e > s)
                .collect();
            covered.sort_unstable();
            let mut union = 0u64;
            let mut reach = 0u64;
            for (s, e) in covered {
                let s = s.max(reach);
                if e > s {
                    union += e - s;
                    reach = e;
                }
            }
            span.duration_ns() - union
        })
        .collect()
}

/// Self time summed per layer, in nanoseconds.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut per_layer = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        *per_layer.entry(span.layer()).or_insert(0) += own;
    }
    per_layer
}

/// Total duration of the root spans (the end-to-end time the spans cover).
pub fn root_time(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::duration_ns)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            request: 1,
            parent,
            start_ns,
            end_ns,
            derived: false,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("bench.query", None, 0, 100),
            span("algorithms.run", Some(0), 10, 90),
            span("core.send", Some(1), 10, 30),
            span("sparse.spmv", Some(1), 30, 80),
            // overlaps its sibling: counted once
            span("core.apply", Some(1), 70, 85),
        ];
        assert_eq!(self_times(&spans), vec![20, 5, 20, 50, 15]);
        let layers = layer_self_times(&spans);
        assert_eq!(layers["bench"], 20);
        assert_eq!(layers["algorithms"], 5);
        assert_eq!(layers["core"], 35);
        assert_eq!(layers["sparse"], 50);
    }

    #[test]
    fn disjoint_layers_add_up_to_the_root_time() {
        let spans = vec![
            span("bench.query", None, 0, 100),
            span("server.roundtrip", Some(0), 20, 100),
            span("server.execute", Some(1), 40, 90),
        ];
        let layers = layer_self_times(&spans);
        assert_eq!(layers["bench"], 20);
        assert_eq!(layers["server"], 80);
        assert_eq!(layers.values().sum::<u64>(), root_time(&spans));
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span("a.x", None, 100, 200), span("b.y", Some(0), 50, 150)];
        assert_eq!(self_times(&spans), vec![50, 100]);
    }

    #[test]
    fn nested_spans_share_request_ids_and_parents() {
        let mut tracer = Tracer::new(true, Instant::now());
        tracer.span("bench.query", 7, |t| {
            t.span("algorithms.bfs_view_into", 7, |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn derived_phases_tile_the_parent_from_its_start() {
        let mut tracer = Tracer::new(true, Instant::now());
        let t0 = tracer.epoch();
        let parent = tracer.record(
            "algorithms.run",
            3,
            t0,
            t0 + Duration::from_nanos(100),
            None,
        );
        tracer.derived(
            parent,
            3,
            &[
                ("core.send", Duration::from_nanos(30)),
                ("sparse.spmv", Duration::from_nanos(90)),
            ],
        );
        let spans = tracer.spans();
        assert_eq!((spans[1].start_ns, spans[1].end_ns), (0, 30));
        // clipped at the parent's end
        assert_eq!((spans[2].start_ns, spans[2].end_ns), (30, 100));
        assert!(spans[1].derived && !spans[0].derived);
    }

    #[test]
    fn absorb_keeps_parent_links() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        a.span("x.a", 1, |_| ());
        let mut b = Tracer::new(true, epoch);
        b.span("x.b", 2, |t| t.span("y.c", 2, |_| ()));
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false, Instant::now());
        let v = tracer.span("bench.query", 1, |_| 42);
        assert_eq!(v, 42);
        assert!(tracer.spans().is_empty());
    }
}
