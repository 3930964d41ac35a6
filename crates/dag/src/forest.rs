//! Directed forests and the rank-based chain decomposition (Appendix B).
//!
//! A *directed forest* here is a collection of rooted trees whose edges are
//! all oriented away from the roots (**out-forest**: a job precedes its
//! children) or all toward the roots (**in-forest**: a job precedes its
//! parent). Appendix B of the paper reduces SUU-T to SUU-C by decomposing
//! the forest into `O(log n)` *blocks* of vertex-disjoint chains, using the
//! technique of Kumar, Marathe, Parthasarathy and Srinivasan [7].
//!
//! **Decomposition.** For each vertex `v` let `s(v)` be the size of the
//! subtree hanging off `v` (descendants for out-trees, predecessors for
//! in-trees, both counting `v`), and `rank(v) = ⌊log₂ s(v)⌋`. A vertex can
//! have at most one child of equal rank — two children `c₁, c₂` with
//! `rank = rank(v)` would give `s(c₁) + s(c₂) ≥ 2·2^rank > s(v) − 1`,
//! a contradiction — so the equal-rank classes form vertex-disjoint paths.
//! Along any root-to-leaf path ranks are monotone, so executing rank
//! classes in monotone order (decreasing for out-forests, increasing for
//! in-forests) respects every precedence edge. Ranks live in
//! `0..=⌊log₂ n⌋`, giving at most `⌊log₂ n⌋ + 1` blocks.

use crate::Dag;

/// Orientation of a forest's precedence edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForestKind {
    /// Each vertex has at most one predecessor: its tree parent. The root
    /// of each tree executes first.
    Out,
    /// Each vertex has at most one successor: its tree parent. Leaves
    /// execute first, roots last.
    In,
}

/// One block of the rank decomposition: vertex-disjoint chains, each listed
/// in precedence order.
pub type ChainBlock = Vec<Vec<u32>>;

/// A directed forest over jobs `0..n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Forest {
    n: usize,
    kind: ForestKind,
    /// Tree parent of each vertex (`None` for roots). For `Out` forests the
    /// parent *precedes* the vertex; for `In` forests the vertex precedes
    /// its parent.
    parent: Vec<Option<u32>>,
}

/// Errors constructing a [`Forest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ForestError {
    /// `parent[v]` referenced a vertex `>= n`.
    ParentOutOfRange(u32),
    /// A vertex was its own parent.
    SelfParent(u32),
    /// Parent pointers contain a cycle.
    Cycle(u32),
}

impl std::fmt::Display for ForestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ForestError::ParentOutOfRange(v) => write!(f, "parent of {v} out of range"),
            ForestError::SelfParent(v) => write!(f, "vertex {v} is its own parent"),
            ForestError::Cycle(v) => write!(f, "parent pointers cycle through {v}"),
        }
    }
}

impl std::error::Error for ForestError {}

impl Forest {
    /// Build a forest from parent pointers.
    pub fn new(kind: ForestKind, parent: Vec<Option<u32>>) -> Result<Self, ForestError> {
        let n = parent.len();
        for (v, &p) in parent.iter().enumerate() {
            if let Some(p) = p {
                if p as usize >= n {
                    return Err(ForestError::ParentOutOfRange(v as u32));
                }
                if p as usize == v {
                    return Err(ForestError::SelfParent(v as u32));
                }
            }
        }
        // Cycle check: walk parents with a visitation stamp.
        let mut state = vec![0u32; n]; // 0 = unvisited, else stamp
        for start in 0..n {
            if state[start] != 0 {
                continue;
            }
            let stamp = start as u32 + 1;
            let mut v = start;
            loop {
                if state[v] == stamp {
                    return Err(ForestError::Cycle(v as u32));
                }
                if state[v] != 0 {
                    break; // reached an already-validated path
                }
                state[v] = stamp;
                match parent[v] {
                    Some(p) => v = p as usize,
                    None => break,
                }
            }
        }
        Ok(Forest { n, kind, parent })
    }

    /// An out-forest: `parent[v]` precedes `v`.
    pub fn out_forest(parent: Vec<Option<u32>>) -> Result<Self, ForestError> {
        Forest::new(ForestKind::Out, parent)
    }

    /// An in-forest: `v` precedes `parent[v]`.
    pub fn in_forest(parent: Vec<Option<u32>>) -> Result<Self, ForestError> {
        Forest::new(ForestKind::In, parent)
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Orientation.
    pub fn kind(&self) -> ForestKind {
        self.kind
    }

    /// Tree parent of `v` (independent of orientation).
    pub fn parent_of(&self, v: u32) -> Option<u32> {
        self.parent[v as usize]
    }

    /// Equivalent precedence DAG.
    pub fn to_dag(&self) -> Dag {
        let mut dag = Dag::new(self.n);
        for (v, &p) in self.parent.iter().enumerate() {
            if let Some(p) = p {
                match self.kind {
                    ForestKind::Out => dag.add_edge(p, v as u32),
                    ForestKind::In => dag.add_edge(v as u32, p),
                }
            }
        }
        dag
    }

    /// Subtree sizes `s(v)` (self + all vertices whose parent-path passes
    /// through `v`).
    fn subtree_sizes(&self) -> Vec<u32> {
        let mut size = vec![1u32; self.n];
        // Children lists + topological (leaves-first) processing.
        let mut order: Vec<u32> = (0..self.n as u32).collect();
        // Sort by depth descending so children are processed before parents.
        let mut depth = vec![0u32; self.n];
        for v in 0..self.n {
            // Compute depth by walking up with memoization.
            let mut path = Vec::new();
            let mut u = v;
            while depth[u] == 0 && self.parent[u].is_some() {
                path.push(u);
                u = self.parent[u].unwrap() as usize;
            }
            let mut d = depth[u];
            for &w in path.iter().rev() {
                d += 1;
                depth[w] = d;
            }
        }
        order.sort_by(|&a, &b| depth[b as usize].cmp(&depth[a as usize]));
        for &v in &order {
            if let Some(p) = self.parent[v as usize] {
                size[p as usize] += size[v as usize];
            }
        }
        size
    }

    /// Rank of each vertex: `⌊log₂ s(v)⌋`.
    pub fn ranks(&self) -> Vec<u32> {
        self.subtree_sizes()
            .iter()
            .map(|&s| 31 - s.leading_zeros())
            .collect()
    }

    /// The rank decomposition: blocks of vertex-disjoint chains such that
    /// executing blocks in the returned order respects all precedence
    /// constraints. At most `⌊log₂ n⌋ + 1` blocks.
    pub fn rank_decomposition(&self) -> Vec<ChainBlock> {
        if self.n == 0 {
            return Vec::new();
        }
        let ranks = self.ranks();
        let max_rank = *ranks.iter().max().unwrap();

        // For each vertex, its same-rank child (at most one exists).
        let mut same_rank_child: Vec<Option<u32>> = vec![None; self.n];
        let mut has_same_rank_parent = vec![false; self.n];
        for v in 0..self.n {
            if let Some(p) = self.parent[v] {
                if ranks[p as usize] == ranks[v] {
                    debug_assert!(
                        same_rank_child[p as usize].is_none(),
                        "two same-rank children under one parent contradicts the rank lemma"
                    );
                    same_rank_child[p as usize] = Some(v as u32);
                    has_same_rank_parent[v] = true;
                }
            }
        }

        // Chains per rank: start at vertices without a same-rank parent and
        // follow same-rank children. Chain order is ancestor -> descendant.
        let mut blocks_by_rank: Vec<ChainBlock> = vec![Vec::new(); max_rank as usize + 1];
        for v in 0..self.n as u32 {
            if has_same_rank_parent[v as usize] {
                continue;
            }
            let mut chain = vec![v];
            let mut u = v;
            while let Some(c) = same_rank_child[u as usize] {
                chain.push(c);
                u = c;
            }
            blocks_by_rank[ranks[v as usize] as usize].push(chain);
        }

        // Out-forests: ranks decrease root->leaf, so execute high ranks
        // first. In-forests: the tree parent is a *successor*, ranks
        // decrease from the final root toward the first-executed leaves, so
        // execute low ranks... careful: for In, "ancestor -> descendant"
        // chain order above follows parent pointers downward, which is
        // *reverse* precedence order; flip each chain.
        let mut blocks: Vec<ChainBlock> = blocks_by_rank
            .into_iter()
            .rev() // highest rank first
            .filter(|b| !b.is_empty())
            .collect();
        if self.kind == ForestKind::In {
            blocks.reverse(); // lowest rank first
            for block in &mut blocks {
                for chain in block.iter_mut() {
                    chain.reverse();
                }
            }
        }
        blocks
    }
}
