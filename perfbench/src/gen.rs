//! Seeded inputs: the two graphs, query roots and the update stream.
//!
//! Everything here is a pure function of the seed, so one seed gives the
//! same graph, the same roots and the same edits on every run.

use graphmat_io::edgelist::EdgeList;
use graphmat_io::grid::GridConfig;
use graphmat_io::rmat::RmatConfig;
use graphmat_io::rng::StdRng;
use graphmat_server::EdgeEdit;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;

/// RMAT scale of the social graph: 2^17 = 131,072 vertices.
pub const SOCIAL_SCALE: u32 = 17;
/// Undirected edges per vertex before symmetrization; every undirected
/// edge is stored in both directions, so the graph holds about 14 directed
/// edges per vertex (≈1.7M after duplicate removal).
pub const SOCIAL_UNDIRECTED_EDGE_FACTOR: usize = 7;
/// Side of the square road grid: 65,536 vertices, ≈250k directed edges.
pub const ROAD_SIDE: u32 = 256;
/// Edits per UPDATE batch.
pub const BATCH_EDITS: usize = 64;

/// Independent stream seeds derived from the run seed.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    rng.next_u64()
}

/// Graph500 RMAT (A=0.57, B=C=0.19), weights 1–16, symmetrized: the
/// undirected social graph BFS, PageRank and the server share.
pub fn social(seed: u64) -> EdgeList<f32> {
    graphmat_io::rmat::generate(
        &RmatConfig::graph500(SOCIAL_SCALE)
            .with_edge_factor(SOCIAL_UNDIRECTED_EDGE_FACTOR)
            .with_weights(1, 16)
            .with_seed(sub_seed(seed, 1)),
    )
    .symmetrized()
}

/// A 4-connected bidirectional grid with weights 1–100 and 5% of its
/// segments removed: the high-diameter road network.
pub fn road(seed: u64) -> EdgeList<f32> {
    graphmat_io::grid::generate(&GridConfig::square(ROAD_SIDE).with_seed(sub_seed(seed, 2)))
}

/// Write `edges` as a MatrixMarket file through a buffered writer.
pub fn write_mtx(edges: &EdgeList<f32>, path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    graphmat_io::mtx::write(edges, &mut out).map_err(|e| std::io::Error::other(e.to_string()))?;
    out.flush()
}

/// `count` distinct seeded vertices with nonzero out-degree.
pub fn roots(seed: u64, out_degrees: &[u32], count: usize) -> Vec<u32> {
    let candidates: Vec<u32> = (0..out_degrees.len() as u32)
        .filter(|&v| out_degrees[v as usize] > 0)
        .collect();
    assert!(
        candidates.len() >= count,
        "graph has too few non-isolated vertices"
    );
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 3));
    let mut chosen = Vec::with_capacity(count);
    let mut taken = std::collections::HashSet::new();
    while chosen.len() < count {
        let v = candidates[rng.gen_range(0..candidates.len())];
        if taken.insert(v) {
            chosen.push(v);
        }
    }
    chosen
}

/// `batches` UPDATE batches of [`BATCH_EDITS`] edits: one in four deletes
/// an existing edge, the rest insert (or re-weight) a random pair with a
/// weight of 1–16.
pub fn update_stream(seed: u64, base: &EdgeList<f32>, batches: usize) -> Vec<Vec<EdgeEdit>> {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 4));
    let n = base.num_vertices();
    let edges = base.edges();
    (0..batches)
        .map(|_| {
            (0..BATCH_EDITS)
                .map(|_| {
                    if rng.gen_range(0..4u32) == 0 {
                        let (s, d, _) = edges[rng.gen_range(0..edges.len())];
                        EdgeEdit::delete(s, d)
                    } else {
                        let (s, d) = (rng.gen_range(0..n), rng.gen_range(0..n));
                        EdgeEdit::insert(s, d, rng.gen_range(1..=16u32) as f32)
                    }
                })
                .collect()
        })
        .collect()
}

/// The edge list after applying `batches` in order with the store's
/// semantics: the latest edit of a pair wins, a delete removes every copy
/// and an insert leaves exactly one copy.
pub fn apply_edits(base: &EdgeList<f32>, batches: &[Vec<EdgeEdit>]) -> EdgeList<f32> {
    let mut latest: HashMap<(u32, u32), Option<f32>> = HashMap::new();
    for edit in batches.iter().flatten() {
        latest.insert((edit.src, edit.dst), edit.insert.then_some(edit.weight));
    }
    let mut out: Vec<(u32, u32, f32)> = base
        .edges()
        .iter()
        .filter(|(s, d, _)| !latest.contains_key(&(*s, *d)))
        .copied()
        .collect();
    let mut inserted: Vec<(u32, u32, f32)> = latest
        .into_iter()
        .filter_map(|((s, d), w)| w.map(|w| (s, d, w)))
        .collect();
    inserted.sort_by_key(|&(s, d, _)| (s, d));
    out.extend(inserted);
    EdgeList::from_tuples(base.num_vertices(), out)
}

/// Edges whose source was reached, the Graph500 count of traversed input
/// edges: the out-degrees of every reached vertex, summed.
pub fn reached_edges(out_degrees: &[u32], reached: impl Fn(usize) -> bool) -> u64 {
    out_degrees
        .iter()
        .enumerate()
        .filter(|&(v, _)| reached(v))
        .map(|(_, &d)| d as u64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        let a = road(5);
        assert_eq!(a.edges(), road(5).edges());
        assert_ne!(a.edges(), road(6).edges());
        let degrees: Vec<u32> = a.out_degrees().iter().map(|&d| d as u32).collect();
        assert_eq!(roots(5, &degrees, 20), roots(5, &degrees, 20));
        assert_eq!(update_stream(5, &a, 3), update_stream(5, &a, 3));
    }

    #[test]
    fn edits_follow_latest_wins() {
        let base = EdgeList::from_tuples(4, vec![(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]);
        let batches = vec![
            vec![EdgeEdit::delete(0, 1), EdgeEdit::insert(3, 0, 2.0)],
            vec![
                EdgeEdit::insert(0, 1, 5.0),
                EdgeEdit::delete(2, 3),
                EdgeEdit::delete(3, 0),
            ],
        ];
        let mut edited: Vec<_> = apply_edits(&base, &batches).edges().to_vec();
        edited.sort_by_key(|&(s, d, _)| (s, d));
        assert_eq!(edited, vec![(0, 1, 5.0), (1, 2, 1.0)]);
    }

    #[test]
    fn reached_edges_counts_out_edges_of_reached_sources() {
        // 0 -> 1 -> 2, 3 -> 0; BFS from 0 reaches 0, 1, 2 but not 3.
        let degrees = [1, 1, 0, 1];
        let dist = [0u32, 1, 2, u32::MAX];
        assert_eq!(reached_edges(&degrees, |v| dist[v] != u32::MAX), 2);
        assert_eq!(reached_edges(&degrees, |_| true), 3);
    }
}
