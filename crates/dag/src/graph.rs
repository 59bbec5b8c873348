//! The DAG data structure.
//!
//! A deliberately small, dependency-free directed-acyclic-graph type tuned
//! for scheduling work: nodes are dense indices, edges carry dense ids (so
//! weight tables are flat `Vec`s), and both adjacency directions are stored
//! because list heuristics walk successors while level computations walk
//! predecessors.

/// Node (task) identifier — a dense index into the graph's node range.
pub type NodeId = usize;

/// Edge identifier — a dense index into the graph's edge list.
pub type EdgeId = usize;

/// A directed acyclic graph with dense node and edge indices.
///
/// Acyclicity is *enforced lazily*: edges can be added freely, and
/// [`Dag::topo_order`] returns `None` if a cycle slipped in. Generators
/// assert acyclicity after building.
#[derive(Debug, Clone, Default)]
pub struct Dag {
    /// `succs[u]` = list of `(v, edge)` with an edge `u → v`.
    succs: Vec<Vec<(NodeId, EdgeId)>>,
    /// `preds[v]` = list of `(u, edge)` with an edge `u → v`.
    preds: Vec<Vec<(NodeId, EdgeId)>>,
    /// Edge list: `edges[e] = (u, v)`.
    edges: Vec<(NodeId, NodeId)>,
}

impl Dag {
    /// An empty graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        Self {
            succs: vec![Vec::new(); n],
            preds: vec![Vec::new(); n],
            edges: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.succs.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds the edge `u → v` and returns its id.
    ///
    /// # Panics
    /// Panics on out-of-range endpoints, self-loops, or duplicate edges.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> EdgeId {
        let n = self.node_count();
        assert!(u < n && v < n, "edge endpoint out of range: {u} -> {v}");
        assert_ne!(u, v, "self-loop on node {u}");
        assert!(
            !self.has_edge(u, v),
            "duplicate edge {u} -> {v} (edge ids must stay dense and unique)"
        );
        let id = self.edges.len();
        self.edges.push((u, v));
        self.succs[u].push((v, id));
        self.preds[v].push((u, id));
        id
    }

    /// `true` if the edge `u → v` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.succs[u].iter().any(|&(w, _)| w == v)
    }

    /// The edge id of `u → v`, if present.
    pub fn edge_between(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        self.succs[u]
            .iter()
            .find(|&&(w, _)| w == v)
            .map(|&(_, e)| e)
    }

    /// Endpoints `(u, v)` of edge `e`.
    pub fn edge_endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        self.edges[e]
    }

    /// Successors of `u` with the connecting edge ids.
    pub fn succs(&self, u: NodeId) -> &[(NodeId, EdgeId)] {
        &self.succs[u]
    }

    /// Predecessors of `v` with the connecting edge ids.
    pub fn preds(&self, v: NodeId) -> &[(NodeId, EdgeId)] {
        &self.preds[v]
    }

    /// In-degree of `v`.
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.preds[v].len()
    }

    /// Out-degree of `u`.
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.succs[u].len()
    }

    /// Nodes with no predecessors.
    pub fn entry_nodes(&self) -> Vec<NodeId> {
        (0..self.node_count())
            .filter(|&v| self.preds[v].is_empty())
            .collect()
    }

    /// Nodes with no successors.
    pub fn exit_nodes(&self) -> Vec<NodeId> {
        (0..self.node_count())
            .filter(|&v| self.succs[v].is_empty())
            .collect()
    }

    /// A topological order (Kahn's algorithm), or `None` if the graph has a
    /// cycle. Ties are broken by smallest node id, so the order is
    /// deterministic.
    pub fn topo_order(&self) -> Option<Vec<NodeId>> {
        let n = self.node_count();
        let mut indeg: Vec<usize> = (0..n).map(|v| self.in_degree(v)).collect();
        // A binary heap would give O(E log V); for scheduling-sized graphs a
        // sorted ready set keeps determinism with trivial code. Use a
        // BinaryHeap over Reverse for O(log n) pops.
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut ready: BinaryHeap<Reverse<NodeId>> =
            (0..n).filter(|&v| indeg[v] == 0).map(Reverse).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(Reverse(u)) = ready.pop() {
            order.push(u);
            for &(v, _) in &self.succs[u] {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    ready.push(Reverse(v));
                }
            }
        }
        if order.len() == n {
            Some(order)
        } else {
            None
        }
    }

    /// `true` when the graph is acyclic.
    pub fn is_acyclic(&self) -> bool {
        self.topo_order().is_some()
    }

    /// Set of nodes reachable from `start` (excluding `start` itself unless
    /// it lies on a cycle, which a DAG forbids).
    pub fn reachable_from(&self, start: NodeId) -> Vec<bool> {
        let mut seen = vec![false; self.node_count()];
        let mut stack = vec![start];
        while let Some(u) = stack.pop() {
            for &(v, _) in &self.succs[u] {
                if !seen[v] {
                    seen[v] = true;
                    stack.push(v);
                }
            }
        }
        seen
    }

    /// Bottom levels: `bl[v]` is the length of the longest path from `v` to
    /// any exit node, **including** `v`'s own weight (the paper's `Bl`).
    ///
    /// # Panics
    /// Panics if the graph is cyclic.
    pub fn bottom_levels<F, G>(&self, node_w: F, edge_w: G) -> Vec<f64>
    where
        F: Fn(NodeId) -> f64,
        G: Fn(EdgeId) -> f64,
    {
        let order = self.topo_order().expect("bottom_levels on a cyclic graph");
        let mut bl = vec![0.0f64; self.node_count()];
        for &v in order.iter().rev() {
            let mut best = 0.0f64;
            for &(s, e) in &self.succs[v] {
                let cand = edge_w(e) + bl[s];
                if cand > best {
                    best = cand;
                }
            }
            bl[v] = node_w(v) + best;
        }
        bl
    }

    /// Critical-path length: `max_v (Tl(v) + Bl(v)) = max over entry Bl`.
    pub fn critical_path_length<F, G>(&self, node_w: F, edge_w: G) -> f64
    where
        F: Fn(NodeId) -> f64 + Copy,
        G: Fn(EdgeId) -> f64 + Copy,
    {
        self.bottom_levels(node_w, edge_w)
            .into_iter()
            .fold(0.0, f64::max)
    }

    /// Depth (number of nodes on the longest chain) — unweighted.
    pub fn depth(&self) -> usize {
        if self.node_count() == 0 {
            return 0;
        }
        self.critical_path_length(|_| 1.0, |_| 0.0) as usize
    }

    /// All edges as `(u, v, edge_id)` triples.
    pub fn edge_triples(&self) -> impl Iterator<Item = (NodeId, NodeId, EdgeId)> + '_ {
        self.edges.iter().enumerate().map(|(e, &(u, v))| (u, v, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The running example: a diamond 0 → {1, 2} → 3.
    fn diamond() -> Dag {
        let mut g = Dag::new(4);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(1, 3);
        g.add_edge(2, 3);
        g
    }

    #[test]
    fn construction_and_degrees() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.entry_nodes(), vec![0]);
        assert_eq!(g.exit_nodes(), vec![3]);
    }

    #[test]
    fn edge_lookup() {
        let g = diamond();
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        assert_eq!(g.edge_between(0, 2), Some(1));
        assert_eq!(g.edge_between(2, 0), None);
        assert_eq!(g.edge_endpoints(3), (2, 3));
    }

    #[test]
    fn topo_order_valid_and_deterministic() {
        let g = diamond();
        let order = g.topo_order().unwrap();
        assert_eq!(order, vec![0, 1, 2, 3]);
        // Precedence property: u before v for every edge.
        let pos: Vec<usize> = {
            let mut p = vec![0; 4];
            for (i, &v) in order.iter().enumerate() {
                p[v] = i;
            }
            p
        };
        for (u, v, _) in g.edge_triples() {
            assert!(pos[u] < pos[v]);
        }
    }

    #[test]
    fn cycle_detected() {
        let mut g = Dag::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 0);
        assert!(g.topo_order().is_none());
        assert!(!g.is_acyclic());
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn duplicate_edge_rejected() {
        let mut g = Dag::new(2);
        g.add_edge(0, 1);
        g.add_edge(0, 1);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        let mut g = Dag::new(2);
        g.add_edge(1, 1);
    }

    #[test]
    fn reachability() {
        let g = diamond();
        let r = g.reachable_from(0);
        assert_eq!(r, vec![false, true, true, true]);
        let r1 = g.reachable_from(1);
        assert_eq!(r1, vec![false, false, false, true]);
    }

    #[test]
    fn levels_unit_weights() {
        let g = diamond();
        let bl = g.bottom_levels(|_| 1.0, |_| 0.0);
        assert_eq!(bl, vec![3.0, 2.0, 2.0, 1.0]);
        assert_eq!(g.critical_path_length(|_| 1.0, |_| 0.0), 3.0);
        assert_eq!(g.depth(), 3);
    }

    #[test]
    fn levels_with_edge_weights() {
        let mut g = Dag::new(3);
        let e01 = g.add_edge(0, 1);
        let e12 = g.add_edge(1, 2);
        let w = move |e: EdgeId| {
            if e == e01 {
                5.0
            } else if e == e12 {
                1.0
            } else {
                0.0
            }
        };
        let bl = g.bottom_levels(|_| 2.0, w);
        assert_eq!(bl, vec![12.0, 5.0, 2.0]);
    }

    #[test]
    fn heap_topo_handles_wide_graph() {
        let mut g = Dag::new(101);
        for i in 1..=100 {
            g.add_edge(0, i);
        }
        let order = g.topo_order().unwrap();
        assert_eq!(order[0], 0);
        assert_eq!(order.len(), 101);
    }
}
