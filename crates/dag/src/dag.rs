//! General DAG representation and classic queries.

use suu_flow::BipartiteMatcher;

/// A directed acyclic graph over vertices `0..n` where an edge `u -> v`
/// means "`u` precedes `v`" (job `v` becomes eligible only after `u`
/// completes).
///
/// Acyclicity is *not* enforced on construction (edges can be added
/// incrementally); call [`Dag::topo_order`] / [`Dag::is_acyclic`] to check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dag {
    n: usize,
    succ: Vec<Vec<u32>>,
    pred: Vec<Vec<u32>>,
}

impl Dag {
    /// Edgeless DAG on `n` vertices (i.e. independent jobs).
    pub fn new(n: usize) -> Self {
        Dag {
            n,
            succ: vec![Vec::new(); n],
            pred: vec![Vec::new(); n],
        }
    }

    /// Build from an edge list.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut dag = Dag::new(n);
        for &(u, v) in edges {
            dag.add_edge(u, v);
        }
        dag
    }

    /// Add the precedence edge `u -> v` (`u` precedes `v`).
    pub fn add_edge(&mut self, u: u32, v: u32) {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "vertex out of range"
        );
        assert_ne!(u, v, "self-loop");
        self.succ[u as usize].push(v);
        self.pred[v as usize].push(u);
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.succ.iter().map(Vec::len).sum()
    }

    /// Direct successors of `v`.
    pub fn successors(&self, v: u32) -> &[u32] {
        &self.succ[v as usize]
    }

    /// Direct predecessors of `v`.
    pub fn predecessors(&self, v: u32) -> &[u32] {
        &self.pred[v as usize]
    }

    /// In-degree of every vertex.
    pub fn indegrees(&self) -> Vec<u32> {
        self.pred.iter().map(|p| p.len() as u32).collect()
    }

    /// Kahn topological order, or `None` if the graph has a cycle.
    pub fn topo_order(&self) -> Option<Vec<u32>> {
        let mut indeg = self.indegrees();
        let mut queue: Vec<u32> = (0..self.n as u32)
            .filter(|&v| indeg[v as usize] == 0)
            .collect();
        let mut order = Vec::with_capacity(self.n);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            order.push(u);
            for &v in &self.succ[u as usize] {
                indeg[v as usize] -= 1;
                if indeg[v as usize] == 0 {
                    queue.push(v);
                }
            }
        }
        (order.len() == self.n).then_some(order)
    }

    /// `true` if the graph has no directed cycle.
    pub fn is_acyclic(&self) -> bool {
        self.topo_order().is_some()
    }

    /// Number of vertices on the longest directed path (the "dilation"
    /// lower bound for any schedule). Panics on cyclic graphs.
    pub fn longest_path_len(&self) -> usize {
        let order = self.topo_order().expect("longest_path_len on cyclic graph");
        let mut depth = vec![1usize; self.n];
        for &u in &order {
            for &v in &self.succ[u as usize] {
                depth[v as usize] = depth[v as usize].max(depth[u as usize] + 1);
            }
        }
        depth.iter().copied().max().unwrap_or(0)
    }

    /// Reachability (transitive closure) as bit rows: `closure[u]` has bit
    /// `v` set iff there is a directed path `u -> v` (u != v).
    ///
    /// `O(n * E / 64)` time, `O(n^2/64)` space — intended for the moderate
    /// `n` used in width computations and exact-OPT experiments.
    pub fn transitive_closure(&self) -> Vec<Vec<u64>> {
        let words = self.n.div_ceil(64);
        let mut closure = vec![vec![0u64; words]; self.n];
        let order = self
            .topo_order()
            .expect("transitive_closure on cyclic graph");
        // Process in reverse topological order: closure[u] = union over
        // successors v of ({v} ∪ closure[v]).
        for &u in order.iter().rev() {
            let u = u as usize;
            // Collect into a scratch row to appease the borrow checker
            // without cloning every successor row.
            let mut row = std::mem::take(&mut closure[u]);
            for &v in &self.succ[u] {
                let v = v as usize;
                row[v / 64] |= 1u64 << (v % 64);
                for (w, &bits) in row.iter_mut().zip(&closure[v]) {
                    *w |= bits;
                }
            }
            closure[u] = row;
        }
        closure
    }

    /// Width of the partial order: the maximum antichain size.
    ///
    /// By Dilworth's theorem this equals the minimum number of chains
    /// covering the order, computed as `n - max_matching` on the bipartite
    /// "reachability" graph. Malewicz proved SUU is NP-hard once width or
    /// machine count is unbounded, so experiment configs use this to stay
    /// in tractable regimes for exact baselines.
    pub fn width(&self) -> usize {
        let closure = self.transitive_closure();
        let mut matcher = BipartiteMatcher::new(self.n, self.n);
        for (u, row) in closure.iter().enumerate() {
            for v in 0..self.n {
                if row[v / 64] >> (v % 64) & 1 == 1 {
                    matcher.add_edge(u, v);
                }
            }
        }
        self.n - matcher.solve()
    }
}
