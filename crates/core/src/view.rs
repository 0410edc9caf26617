//! [`GraphView`]: a borrowed `(base ⊕ delta)` pairing the engine traverses.
//!
//! The streaming-update layer publishes snapshots as an immutable base
//! [`Topology`] plus an optional [`DeltaOverlay`] of pending edits (see
//! [`crate::store::GraphStore`]). The engine never sees the snapshot type —
//! it takes a `GraphView`, a `Copy` pair of references resolving every
//! structural question a superstep asks (degrees, edge counts, which kernel
//! overlay to sweep) against the *edited* graph:
//!
//! * a view with no overlay behaves exactly like the bare topology — the
//!   construction normalizes an **empty** overlay to `None`, so the
//!   steady-state read path after compaction is byte-for-byte the
//!   pre-streaming code path;
//! * a view with a pending overlay reports the merged degree arrays and
//!   edge count, and hands the push SpMV the partition-aligned kernel
//!   overlays for the program's traversal direction.
//!
//! Only the **push** backend is overlay-aware: the dense pull mirrors are
//! rebuilt at compaction, not per batch, so a superstep over a pending
//! overlay always pushes ([`VectorKind::Auto`] selects push; forcing
//! [`VectorKind::Dense`] is a typed error). Results stay bit-for-bit
//! identical to a run over a topology rebuilt from the edited edge list —
//! the merged column walk of the push kernel
//! [`graphmat_sparse::spmv::gspmv_overlay_into`] folds each destination's
//! products in the same ascending-source order a rebuild would.
//!
//! [`VectorKind::Auto`]: crate::options::VectorKind::Auto
//! [`VectorKind::Dense`]: crate::options::VectorKind::Dense

use crate::program::VertexId;
use crate::topology::Topology;
use graphmat_delta::DeltaOverlay;
use graphmat_sparse::overlay::Overlay;

/// A borrowed view of a graph as the engine traverses it: an immutable base
/// [`Topology`] plus an optional [`DeltaOverlay`] of pending (uncompacted)
/// edge edits. `Copy`, two pointers wide — build one per superstep or per
/// run for free.
#[derive(Debug)]
pub struct GraphView<'a, E> {
    topology: &'a Topology<E>,
    overlay: Option<&'a DeltaOverlay<E>>,
}

impl<'a, E> Clone for GraphView<'a, E> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<'a, E> Copy for GraphView<'a, E> {}

impl<'a, E> GraphView<'a, E> {
    /// A view of the bare topology (no pending edits). Identical behaviour
    /// to every pre-streaming engine entry point.
    pub fn base(topology: &'a Topology<E>) -> Self {
        GraphView {
            topology,
            overlay: None,
        }
    }

    /// A view of `topology` with `overlay`'s pending edits applied. An
    /// empty overlay is normalized to `None` so the read path cannot pay
    /// the merged walk for a no-op.
    pub fn new(topology: &'a Topology<E>, overlay: Option<&'a DeltaOverlay<E>>) -> Self {
        GraphView {
            topology,
            overlay: overlay.filter(|o| !o.is_empty()),
        }
    }

    /// The base topology.
    pub fn topology(&self) -> &'a Topology<E> {
        self.topology
    }

    /// The pending overlay, if any (never `Some` of an empty overlay).
    pub fn overlay(&self) -> Option<&'a DeltaOverlay<E>> {
        self.overlay
    }

    /// `true` if the view carries pending edits.
    pub fn has_overlay(&self) -> bool {
        self.overlay.is_some()
    }

    /// Vertex count (overlays never change it).
    pub fn num_vertices(&self) -> VertexId {
        self.topology.num_vertices()
    }

    /// Directed edge count of the **edited** graph.
    pub fn num_edges(&self) -> usize {
        self.overlay
            .map_or(self.topology.num_edges(), |o| o.num_edges())
    }

    /// Out-degrees of the edited graph, indexed by vertex.
    pub fn out_degrees(&self) -> &'a [u32] {
        self.overlay
            .map_or(self.topology.out_degrees(), |o| o.out_degrees())
    }

    /// In-degrees of the edited graph, indexed by vertex.
    pub fn in_degrees(&self) -> &'a [u32] {
        self.overlay
            .map_or(self.topology.in_degrees(), |o| o.in_degrees())
    }

    /// Whether the base built its in-edge matrix (`In`/`Both` programs).
    pub fn has_in_edges(&self) -> bool {
        self.topology.has_in_edges()
    }

    /// The kernel overlay aligned to the out matrix (`Gᵀ`), if edits are
    /// pending.
    pub(crate) fn out_kernel_overlay(&self) -> Option<&'a Overlay<E>> {
        self.overlay.map(|o| o.out())
    }

    /// The kernel overlay aligned to the in matrix (`G`), if edits are
    /// pending **and** the overlay was compiled against an in matrix.
    pub(crate) fn in_kernel_overlay(&self) -> Option<&'a Overlay<E>> {
        self.overlay.and_then(|o| o.in_overlay())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::GraphBuildOptions;
    use graphmat_delta::{BaseFacts, DeltaOverlay, PairIndex, UpdateOp};
    use graphmat_io::edgelist::EdgeList;

    fn topo() -> Topology<f32> {
        let el = EdgeList::from_tuples(4, vec![(0, 1, 1.0), (0, 2, 2.0), (1, 2, 3.0), (2, 3, 4.0)]);
        Topology::from_edge_list(&el, GraphBuildOptions::default().with_partitions(2))
    }

    fn overlay_for(t: &Topology<f32>, resolved: &[(u32, u32, UpdateOp<f32>)]) -> DeltaOverlay<f32> {
        let el = t.to_edge_list();
        let idx = PairIndex::from_edges(el.edges());
        let out_ranges = t.out_partition_ranges();
        let in_ranges = t.in_partition_ranges();
        let facts = BaseFacts {
            num_vertices: t.num_vertices(),
            num_edges: t.num_edges(),
            out_ranges: &out_ranges,
            in_ranges: in_ranges.as_deref(),
            out_degrees: t.out_degrees(),
            in_degrees: t.in_degrees(),
        };
        DeltaOverlay::build(&facts, &idx, resolved)
    }

    #[test]
    fn base_view_mirrors_the_topology() {
        let t = topo();
        let v = GraphView::base(&t);
        assert!(!v.has_overlay());
        assert_eq!(v.num_vertices(), 4);
        assert_eq!(v.num_edges(), 4);
        assert_eq!(v.out_degrees(), t.out_degrees());
        assert_eq!(v.in_degrees(), t.in_degrees());
        assert!(v.has_in_edges());
        assert!(v.out_kernel_overlay().is_none());
        let copy = v; // Copy without E: Clone
        assert_eq!(copy.num_edges(), v.num_edges());
    }

    #[test]
    fn empty_overlay_is_normalized_away() {
        let t = topo();
        let ov = overlay_for(&t, &[]);
        assert!(ov.is_empty());
        let v = GraphView::new(&t, Some(&ov));
        assert!(!v.has_overlay());
        assert!(v.out_kernel_overlay().is_none());
    }

    #[test]
    fn pending_overlay_reports_merged_structure() {
        let t = topo();
        let ov = overlay_for(
            &t,
            &[(0, 1, UpdateOp::Delete), (3, 0, UpdateOp::Insert(5.0))],
        );
        let v = GraphView::new(&t, Some(&ov));
        assert!(v.has_overlay());
        assert_eq!(v.num_edges(), 4); // -1 +1
        assert_eq!(v.out_degrees(), &[1, 1, 1, 1]);
        assert_eq!(v.in_degrees(), &[1, 0, 2, 1]);
        assert!(v.out_kernel_overlay().is_some());
        assert!(v.in_kernel_overlay().is_some());
    }
}
