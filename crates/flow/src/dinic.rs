//! Dinic's maximum-flow algorithm with integer capacities.
//!
//! Standard adjacency-arena representation: edges are stored in a flat
//! vector, each forward edge immediately followed by its residual twin, so
//! `e ^ 1` is the reverse edge. Complexity `O(V^2 E)` in general and
//! `O(E sqrt(V))` on the unit-ish bipartite-style networks the rounding
//! lemmas build — far below the LP solve cost in practice.

/// "Infinite" capacity: large enough to never bind, small enough that the
/// sum of all edge capacities cannot overflow `u64`.
pub const CAP_INF: u64 = u64::MAX / 4;

/// Identifier of a forward edge, as returned by [`FlowNetwork::add_edge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeId(usize);

#[derive(Debug, Clone)]
struct Edge {
    to: usize,
    cap: u64,
}

/// A directed flow network with integer capacities.
#[derive(Debug, Clone)]
pub struct FlowNetwork {
    edges: Vec<Edge>,
    /// Original capacity of each forward edge (for flow extraction).
    orig_cap: Vec<u64>,
    adj: Vec<Vec<usize>>,
    level: Vec<i32>,
    iter: Vec<usize>,
}

impl FlowNetwork {
    /// Create a network with `n` nodes (indices `0..n`).
    pub fn new(n: usize) -> Self {
        FlowNetwork {
            edges: Vec::new(),
            orig_cap: Vec::new(),
            adj: vec![Vec::new(); n],
            level: vec![-1; n],
            iter: vec![0; n],
        }
    }

    /// Add a directed edge `from -> to` with capacity `cap`.
    ///
    /// Returns an [`EdgeId`] usable with [`FlowNetwork::flow_on`] after a
    /// max-flow computation.
    pub fn add_edge(&mut self, from: usize, to: usize, cap: u64) -> EdgeId {
        assert!(
            from < self.adj.len() && to < self.adj.len(),
            "node out of range"
        );
        assert!(cap <= CAP_INF, "capacity exceeds CAP_INF");
        let id = self.edges.len();
        self.edges.push(Edge { to, cap });
        self.edges.push(Edge { to: from, cap: 0 });
        self.orig_cap.push(cap);
        self.adj[from].push(id);
        self.adj[to].push(id + 1);
        EdgeId(id)
    }

    /// Flow routed through a forward edge (valid after [`Self::max_flow`]).
    pub fn flow_on(&self, e: EdgeId) -> u64 {
        // Flow = original capacity - residual capacity.
        self.orig_cap[e.0 / 2] - self.edges[e.0].cap
    }

    fn bfs(&mut self, s: usize, t: usize) -> bool {
        self.level.iter_mut().for_each(|l| *l = -1);
        let mut queue = std::collections::VecDeque::new();
        self.level[s] = 0;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for &eid in &self.adj[u] {
                let e = &self.edges[eid];
                if e.cap > 0 && self.level[e.to] < 0 {
                    self.level[e.to] = self.level[u] + 1;
                    queue.push_back(e.to);
                }
            }
        }
        self.level[t] >= 0
    }

    fn dfs(&mut self, u: usize, t: usize, pushed: u64) -> u64 {
        if u == t {
            return pushed;
        }
        while self.iter[u] < self.adj[u].len() {
            let eid = self.adj[u][self.iter[u]];
            let (to, cap) = {
                let e = &self.edges[eid];
                (e.to, e.cap)
            };
            if cap > 0 && self.level[to] == self.level[u] + 1 {
                let d = self.dfs(to, t, pushed.min(cap));
                if d > 0 {
                    self.edges[eid].cap -= d;
                    self.edges[eid ^ 1].cap += d;
                    return d;
                }
            }
            self.iter[u] += 1;
        }
        0
    }

    /// Compute the maximum `s`→`t` flow. Residual capacities are updated in
    /// place; call [`Self::flow_on`] afterwards for per-edge flows.
    ///
    /// Calling this twice continues from the current residual state (useful
    /// for incremental capacity additions), matching Dinic semantics.
    pub fn max_flow(&mut self, s: usize, t: usize) -> u64 {
        assert!(
            s < self.adj.len() && t < self.adj.len(),
            "node out of range"
        );
        assert_ne!(s, t, "source equals sink");
        let mut total = 0u64;
        while self.bfs(s, t) {
            self.iter.iter_mut().for_each(|i| *i = 0);
            loop {
                let f = self.dfs(s, t, CAP_INF);
                if f == 0 {
                    break;
                }
                total += f;
            }
        }
        total
    }

    /// Nodes reachable from `s` in the residual graph — the source side of a
    /// minimum cut after [`Self::max_flow`]. Used by tests to verify
    /// max-flow/min-cut optimality.
    pub fn min_cut_side(&self, s: usize) -> Vec<bool> {
        let mut seen = vec![false; self.adj.len()];
        let mut stack = vec![s];
        seen[s] = true;
        while let Some(u) = stack.pop() {
            for &eid in &self.adj[u] {
                let e = &self.edges[eid];
                if e.cap > 0 && !seen[e.to] {
                    seen[e.to] = true;
                    stack.push(e.to);
                }
            }
        }
        seen
    }

    /// Sum of original capacities of edges crossing from `side` to its
    /// complement. With `side = min_cut_side(s)` this equals the max flow.
    pub fn cut_capacity(&self, side: &[bool]) -> u64 {
        let mut cap = 0u64;
        for (fid, &oc) in self.orig_cap.iter().enumerate() {
            let eid = fid * 2;
            // Forward edge eid: from = edges[eid ^ 1].to
            let from = self.edges[eid ^ 1].to;
            let to = self.edges[eid].to;
            if side[from] && !side[to] {
                cap = cap.saturating_add(oc);
            }
        }
        cap
    }
}
