//! Crosslink topologies.
//!
//! [`Topology`] stores the undirected adjacency structure in CSR style:
//! a sorted id table plus one sorted neighbor row per node. Lookups are
//! binary searches and the hot accessors ([`Topology::neighbors`],
//! [`Topology::nodes`]) return borrowed slices, so BFS and protocol loops
//! run without per-call allocation. The historical `Vec`-returning API
//! survives as `*_vec` compatibility wrappers.

use std::collections::VecDeque;

use crate::message::NodeId;

/// An undirected adjacency structure over [`NodeId`]s.
///
/// # Examples
///
/// ```
/// use oaq_net::topology::Topology;
/// use oaq_net::NodeId;
/// let t = Topology::ring(5);
/// assert!(t.are_linked(NodeId(0), NodeId(4))); // wraps around
/// assert_eq!(t.neighbors(NodeId(2)), vec![NodeId(1), NodeId(3)]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Topology {
    /// Known node ids, ascending. Slot `s` owns `adj[s]`.
    ids: Vec<NodeId>,
    /// Neighbor rows, each ascending. Indexed by slot, not by id.
    adj: Vec<Vec<NodeId>>,
}

impl Topology {
    /// An empty topology.
    #[must_use]
    pub fn new() -> Self {
        Topology::default()
    }

    /// A ring of `n` nodes `0..n` — one orbital plane's in-plane crosslinks.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn ring(n: u32) -> Self {
        Topology::ring_with_chords(n, 1)
    }

    /// A ring of `n` nodes where each node also links to peers up to
    /// `max_skip` positions away (chords). Crosslink ranges usually span
    /// more than the adjacent satellite; chords let coordination skip over
    /// a fail-silent peer.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `max_skip == 0`.
    #[must_use]
    pub fn ring_with_chords(n: u32, max_skip: u32) -> Self {
        assert!(n >= 2, "a ring needs at least two nodes");
        assert!(max_skip >= 1, "need at least adjacent links");
        let order: Vec<NodeId> = (0..n).map(NodeId).collect();
        Topology::chorded_ring(&order, max_skip as usize)
    }

    /// The ring that visits `order` in sequence (wrapping around), each
    /// node linked to the peers up to `max_skip` positions ahead of and
    /// behind it — the same links as calling [`Topology::link`] for every
    /// `(order[r], order[(r + s) % n])`, `s = 1..=max_skip`, built row by
    /// row in O(n·max_skip) instead. Fewer than two nodes or `max_skip ==
    /// 0` give an empty topology; `max_skip ≥ n/2` gives the clique.
    ///
    /// # Panics
    ///
    /// Panics if `order` repeats a node.
    #[must_use]
    pub fn chorded_ring(order: &[NodeId], max_skip: usize) -> Self {
        let n = order.len();
        // Skips past n/2 only repeat the backward links of shorter ones.
        let reach = max_skip.min(n / 2);
        if reach == 0 {
            return Topology::new();
        }
        // Each node's rank packed under its id: sorting by id hands out
        // the slots in order, with the rank to build each slot's row from.
        let mut by_id: Vec<u64> = order
            .iter()
            .enumerate()
            .map(|(rank, id)| u64::from(id.0) << 32 | rank as u64)
            .collect();
        by_id.sort_unstable();
        let mut ids = Vec::with_capacity(n);
        let mut adj = Vec::with_capacity(n);
        for key in by_id {
            let id = NodeId((key >> 32) as u32);
            assert!(ids.last() != Some(&id), "a ring visits each node once");
            let r = (key & u64::from(u32::MAX)) as usize;
            let mut row = Vec::with_capacity(2 * reach);
            for s in 1..=reach {
                row.push(order[(r + s) % n]);
                row.push(order[(r + n - s) % n]);
            }
            row.sort_unstable();
            row.dedup();
            ids.push(id);
            adj.push(row);
        }
        Topology { ids, adj }
    }

    /// A constellation grid: `planes` rings of `per_plane` nodes each, with
    /// each node additionally linked to the same-slot node in the adjacent
    /// planes (left and right). Node numbering: `plane * per_plane + slot`.
    ///
    /// # Panics
    ///
    /// Panics if `planes == 0` or `per_plane < 2`.
    #[must_use]
    pub fn constellation_grid(planes: u32, per_plane: u32) -> Self {
        assert!(planes > 0, "need at least one plane");
        assert!(per_plane >= 2, "need at least two satellites per plane");
        let mut t = Topology::new();
        let id = |p: u32, s: u32| NodeId(p * per_plane + s);
        for p in 0..planes {
            for s in 0..per_plane {
                t.link(id(p, s), id(p, (s + 1) % per_plane));
                if planes > 1 {
                    t.link(id(p, s), id((p + 1) % planes, s));
                }
            }
        }
        t
    }

    /// Slot of `id` in the CSR tables, if known.
    fn slot(&self, id: NodeId) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// Slot of `id`, inserting an empty row at the sorted position if new.
    fn slot_or_insert(&mut self, id: NodeId) -> usize {
        match self.ids.binary_search(&id) {
            Ok(s) => s,
            Err(s) => {
                self.ids.insert(s, id);
                self.adj.insert(s, Vec::new());
                s
            }
        }
    }

    /// Adds an undirected link (idempotent; self-links are ignored).
    pub fn link(&mut self, a: NodeId, b: NodeId) {
        if a == b {
            return;
        }
        self.slot_or_insert(a);
        self.slot_or_insert(b);
        // Re-resolve both slots: inserting `b`'s id may have shifted `a`'s.
        let sa = self.slot(a).expect("just inserted");
        let sb = self.slot(b).expect("just inserted");
        if let Err(pos) = self.adj[sa].binary_search(&b) {
            self.adj[sa].insert(pos, b);
        }
        if let Err(pos) = self.adj[sb].binary_search(&a) {
            self.adj[sb].insert(pos, a);
        }
    }

    /// Removes a link if present. Nodes stay known even with no links left.
    pub fn unlink(&mut self, a: NodeId, b: NodeId) {
        if let Some(sa) = self.slot(a) {
            if let Ok(pos) = self.adj[sa].binary_search(&b) {
                self.adj[sa].remove(pos);
            }
        }
        if let Some(sb) = self.slot(b) {
            if let Ok(pos) = self.adj[sb].binary_search(&a) {
                self.adj[sb].remove(pos);
            }
        }
    }

    /// `true` when `a` and `b` share a link.
    #[must_use]
    pub fn are_linked(&self, a: NodeId, b: NodeId) -> bool {
        self.slot(a)
            .is_some_and(|s| self.adj[s].binary_search(&b).is_ok())
    }

    /// Neighbors of `a` in ascending id order, as a borrowed slice.
    /// Unknown nodes have no neighbors.
    #[must_use]
    pub fn neighbors(&self, a: NodeId) -> &[NodeId] {
        self.slot(a).map_or(&[], |s| &self.adj[s])
    }

    /// All nodes that appear in any link, ascending, as a borrowed slice.
    #[must_use]
    pub fn nodes(&self) -> &[NodeId] {
        &self.ids
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.ids.len()
    }

    /// Hop count of the shortest path from `a` to `b` (BFS), or `None` when
    /// disconnected or either node is unknown.
    #[must_use]
    pub fn hop_distance(&self, a: NodeId, b: NodeId) -> Option<usize> {
        self.hop_distance_with(a, b, &mut BfsScratch::new())
    }

    /// [`Topology::hop_distance`] with a caller-provided workspace, so
    /// repeated queries reuse the visit marks and frontier queue.
    #[must_use]
    pub fn hop_distance_with(
        &self,
        a: NodeId,
        b: NodeId,
        scratch: &mut BfsScratch,
    ) -> Option<usize> {
        let sa = self.slot(a)?;
        self.slot(b)?;
        if a == b {
            return Some(0);
        }
        scratch.begin(self.ids.len());
        scratch.visit(sa);
        scratch.frontier.push_back((sa, 0));
        while let Some((slot, d)) = scratch.frontier.pop_front() {
            for &n in &self.adj[slot] {
                if n == b {
                    return Some(d + 1);
                }
                // Neighbor rows only hold known ids, so the slot exists.
                let ns = self.slot(n).expect("neighbor id is a known node");
                if !scratch.visited(ns) {
                    scratch.visit(ns);
                    scratch.frontier.push_back((ns, d + 1));
                }
            }
        }
        None
    }

    /// Number of nodes reachable from `from` over links whose endpoints all
    /// satisfy `alive`, counting `from` itself. Returns 0 when `from` is
    /// unknown or not alive.
    #[must_use]
    pub fn reachable_with<F: Fn(NodeId) -> bool>(
        &self,
        from: NodeId,
        alive: F,
        scratch: &mut BfsScratch,
    ) -> usize {
        let Some(start) = self.slot(from) else {
            return 0;
        };
        if !alive(from) {
            return 0;
        }
        scratch.begin(self.ids.len());
        scratch.visit(start);
        scratch.frontier.push_back((start, 0));
        let mut count = 1;
        while let Some((slot, _)) = scratch.frontier.pop_front() {
            for &n in &self.adj[slot] {
                let ns = self.slot(n).expect("neighbor id is a known node");
                if !scratch.visited(ns) && alive(n) {
                    scratch.visit(ns);
                    scratch.frontier.push_back((ns, 0));
                    count += 1;
                }
            }
        }
        count
    }
}

/// Reusable BFS workspace for [`Topology::hop_distance_with`] and
/// [`Topology::reachable_with`]: epoch-stamped visit marks (cleared in O(1)
/// per query) plus the frontier queue.
#[derive(Debug, Clone, Default)]
pub struct BfsScratch {
    stamp: Vec<u32>,
    epoch: u32,
    frontier: VecDeque<(usize, usize)>,
}

impl BfsScratch {
    /// A fresh workspace; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        BfsScratch::default()
    }

    /// Prepares the workspace for a traversal over `slots` nodes.
    fn begin(&mut self, slots: usize) {
        self.frontier.clear();
        if self.stamp.len() < slots {
            self.stamp.resize(slots, 0);
        }
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    fn visit(&mut self, slot: usize) {
        self.stamp[slot] = self.epoch;
    }

    fn visited(&self, slot: usize) -> bool {
        self.stamp[slot] == self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_wraps() {
        let t = Topology::ring(6);
        assert!(t.are_linked(NodeId(5), NodeId(0)));
        assert!(!t.are_linked(NodeId(0), NodeId(3)));
        assert_eq!(t.node_count(), 6);
    }

    #[test]
    fn grid_links_in_and_across_planes() {
        let t = Topology::constellation_grid(3, 4);
        assert_eq!(t.node_count(), 12);
        // In-plane ring: node 0 and 3 are adjacent (wrap).
        assert!(t.are_linked(NodeId(0), NodeId(3)));
        // Cross-plane: node 0 (plane 0, slot 0) and node 4 (plane 1, slot 0).
        assert!(t.are_linked(NodeId(0), NodeId(4)));
        // Plane wrap: plane 2 links back to plane 0.
        assert!(t.are_linked(NodeId(8), NodeId(0)));
    }

    #[test]
    fn single_plane_grid_has_no_cross_links() {
        let t = Topology::constellation_grid(1, 4);
        assert_eq!(t.neighbors(NodeId(0)), vec![NodeId(1), NodeId(3)]);
    }

    #[test]
    fn self_links_ignored() {
        let mut t = Topology::new();
        t.link(NodeId(1), NodeId(1));
        assert_eq!(t.node_count(), 0);
    }

    #[test]
    fn unlink_removes_both_directions() {
        let mut t = Topology::ring(3);
        t.unlink(NodeId(0), NodeId(1));
        assert!(!t.are_linked(NodeId(0), NodeId(1)));
        assert!(!t.are_linked(NodeId(1), NodeId(0)));
        assert!(t.are_linked(NodeId(1), NodeId(2)));
    }

    #[test]
    fn unlink_keeps_nodes_known() {
        let mut t = Topology::new();
        t.link(NodeId(0), NodeId(1));
        t.unlink(NodeId(0), NodeId(1));
        assert_eq!(t.node_count(), 2);
        assert_eq!(t.nodes(), vec![NodeId(0), NodeId(1)]);
        assert!(t.neighbors(NodeId(0)).is_empty());
        // Known but disconnected: hop distance is None, not a panic.
        assert_eq!(t.hop_distance(NodeId(0), NodeId(1)), None);
    }

    #[test]
    fn hop_distance_on_ring() {
        let t = Topology::ring(8);
        assert_eq!(t.hop_distance(NodeId(0), NodeId(0)), Some(0));
        assert_eq!(t.hop_distance(NodeId(0), NodeId(1)), Some(1));
        assert_eq!(t.hop_distance(NodeId(0), NodeId(4)), Some(4));
        assert_eq!(t.hop_distance(NodeId(0), NodeId(6)), Some(2));
    }

    #[test]
    fn hop_distance_disconnected() {
        let mut t = Topology::new();
        t.link(NodeId(0), NodeId(1));
        t.link(NodeId(2), NodeId(3));
        assert_eq!(t.hop_distance(NodeId(0), NodeId(3)), None);
        assert_eq!(t.hop_distance(NodeId(0), NodeId(9)), None);
    }

    #[test]
    fn hop_distance_with_reuses_scratch() {
        let t = Topology::ring(16);
        let mut scratch = BfsScratch::new();
        for i in 0..16u32 {
            let want = t.hop_distance(NodeId(0), NodeId(i));
            assert_eq!(
                t.hop_distance_with(NodeId(0), NodeId(i), &mut scratch),
                want
            );
        }
    }

    #[test]
    fn reachable_counts_alive_component() {
        let t = Topology::ring(8);
        let mut scratch = BfsScratch::new();
        assert_eq!(t.reachable_with(NodeId(0), |_| true, &mut scratch), 8);
        // Knock out nodes 2 and 6: 0 sits in the arc {7, 0, 1} plus the
        // far side is cut off, so the alive component of 0 is {7, 0, 1}.
        let alive = |n: NodeId| n != NodeId(2) && n != NodeId(6);
        assert_eq!(t.reachable_with(NodeId(0), alive, &mut scratch), 3);
        // A dead start point reaches nothing.
        assert_eq!(t.reachable_with(NodeId(2), alive, &mut scratch), 0);
        // Unknown start point reaches nothing.
        assert_eq!(t.reachable_with(NodeId(99), alive, &mut scratch), 0);
    }

    #[test]
    fn chords_extend_reach() {
        let t = Topology::ring_with_chords(8, 3);
        assert!(t.are_linked(NodeId(0), NodeId(3)));
        assert!(!t.are_linked(NodeId(0), NodeId(4)));
        assert_eq!(t.hop_distance(NodeId(0), NodeId(4)), Some(2));
    }

    #[test]
    fn chords_saturate_to_clique() {
        let t = Topology::ring_with_chords(4, 9);
        for a in 0..4u32 {
            for b in 0..4u32 {
                if a != b {
                    assert!(t.are_linked(NodeId(a), NodeId(b)));
                }
            }
        }
    }

    /// The link-by-link construction `chorded_ring` replaces.
    fn linked_ring(order: &[NodeId], max_skip: usize) -> Topology {
        let mut t = Topology::new();
        let n = order.len();
        for r in 0..n {
            for s in 1..=max_skip {
                t.link(order[r], order[(r + s) % n]);
            }
        }
        t
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(128))]

        #[test]
        fn chorded_ring_matches_the_link_by_link_build(
            keys in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..200),
            skip in proptest::prelude::any::<usize>(),
        ) {
            // A random visit order over sparse ids: the rank of each key.
            let mut ranked: Vec<(u64, u32)> =
                keys.iter().enumerate().map(|(i, &key)| (key, 3 * i as u32 + 1)).collect();
            ranked.sort_unstable();
            let order: Vec<NodeId> = ranked.iter().map(|&(_, id)| NodeId(id)).collect();
            // Up to n + 1, so the clique case (max_skip ≥ n/2) is common.
            let max_skip = skip % (order.len() + 2);
            let rows = Topology::chorded_ring(&order, max_skip);
            let links = linked_ring(&order, max_skip);
            proptest::prop_assert_eq!(rows.nodes(), links.nodes());
            for &id in links.nodes() {
                proptest::prop_assert_eq!(rows.neighbors(id), links.neighbors(id));
            }
        }
    }

    #[test]
    #[should_panic(expected = "a ring visits each node once")]
    fn chorded_ring_rejects_a_repeated_node() {
        let _ = Topology::chorded_ring(&[NodeId(1), NodeId(2), NodeId(1)], 1);
    }

    #[test]
    fn nodes_sorted() {
        let t = Topology::ring(4);
        assert_eq!(t.nodes(), vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
    }
}
