//! Tests for DAG queries, forests and the rank decomposition.

use crate::{generators, Dag, Forest, ForestKind};
use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::SmallRng;

#[test]
fn topo_order_simple() {
    let dag = Dag::from_edges(4, &[(0, 1), (1, 2), (0, 3)]);
    let order = dag.topo_order().unwrap();
    let pos: Vec<usize> = (0..4u32)
        .map(|v| order.iter().position(|&x| x == v).unwrap())
        .collect();
    assert!(pos[0] < pos[1] && pos[1] < pos[2] && pos[0] < pos[3]);
}

#[test]
fn cycle_detected() {
    let mut dag = Dag::new(3);
    dag.add_edge(0, 1);
    dag.add_edge(1, 2);
    dag.add_edge(2, 0);
    assert!(!dag.is_acyclic());
    assert!(dag.topo_order().is_none());
}

#[test]
fn longest_path_counts_vertices() {
    let dag = Dag::from_edges(5, &[(0, 1), (1, 2), (2, 3)]);
    assert_eq!(dag.longest_path_len(), 4);
    assert_eq!(Dag::new(3).longest_path_len(), 1);
    assert_eq!(Dag::new(0).longest_path_len(), 0);
}

#[test]
fn width_of_antichain_and_chain() {
    // Independent jobs: width = n.
    assert_eq!(Dag::new(6).width(), 6);
    // A single chain: width = 1.
    let chain = Dag::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
    assert_eq!(chain.width(), 1);
    // Diamond 0 -> {1,2} -> 3: width = 2.
    let diamond = Dag::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
    assert_eq!(diamond.width(), 2);
}

#[test]
fn width_of_bipartite() {
    let dag = generators::mapreduce_bipartite(3, 4);
    assert_eq!(dag.width(), 4);
    assert_eq!(dag.longest_path_len(), 2);
}

#[test]
fn transitive_closure_reaches_descendants() {
    let dag = Dag::from_edges(4, &[(0, 1), (1, 2)]);
    let tc = dag.transitive_closure();
    assert_eq!(tc[0][0] & 0b1110, 0b0110); // 0 reaches 1,2 not 3
    assert_eq!(tc[1][0], 0b0100);
    assert_eq!(tc[2][0], 0);
    assert_eq!(tc[3][0], 0);
}

// ---------- forests ----------

#[test]
fn forest_rejects_cycle() {
    let err = Forest::out_forest(vec![Some(1), Some(0)]).unwrap_err();
    assert!(matches!(err, crate::forest::ForestError::Cycle(_)));
}

#[test]
fn forest_rejects_self_parent() {
    let err = Forest::out_forest(vec![Some(0)]).unwrap_err();
    assert!(matches!(err, crate::forest::ForestError::SelfParent(0)));
}

#[test]
fn out_forest_dag_orientation() {
    // 0 -> 1 -> 2 in parent terms: parent[1]=0, parent[2]=1.
    let f = Forest::out_forest(vec![None, Some(0), Some(1)]).unwrap();
    let dag = f.to_dag();
    assert!(dag.successors(0).contains(&1));
    assert!(dag.successors(1).contains(&2));
}

#[test]
fn in_forest_dag_orientation() {
    let f = Forest::in_forest(vec![None, Some(0), Some(1)]).unwrap();
    let dag = f.to_dag();
    // v precedes parent(v): 1 -> 0, 2 -> 1.
    assert!(dag.successors(1).contains(&0));
    assert!(dag.successors(2).contains(&1));
}

#[test]
fn binary_tree_ranks() {
    let f = generators::binary_out_tree(3); // 7 vertices
    let ranks = f.ranks();
    assert_eq!(ranks[0], 2); // s=7 -> rank 2
    assert_eq!(ranks[1], 1); // s=3
    assert_eq!(ranks[3], 0); // leaf
}

/// Check the three decomposition invariants on an arbitrary forest:
/// 1. every vertex appears in exactly one chain of one block;
/// 2. within a chain, consecutive vertices are precedence-adjacent
///    (parent/child in the right orientation);
/// 3. for every precedence edge (u precedes v), u's block comes no later
///    than v's block, and if equal they are adjacent in the same chain.
fn check_decomposition(f: &Forest) {
    let n = f.num_vertices();
    let blocks = f.rank_decomposition();
    assert!(
        blocks.len() <= (usize::BITS - n.max(1).leading_zeros()) as usize,
        "more than log2(n)+1 blocks: {} for n={}",
        blocks.len(),
        n
    );

    let mut block_of = vec![usize::MAX; n];
    let mut seen = vec![false; n];
    for (bi, block) in blocks.iter().enumerate() {
        for chain in block {
            for &v in chain {
                assert!(!seen[v as usize], "vertex {v} in two chains");
                seen[v as usize] = true;
                block_of[v as usize] = bi;
            }
            for w in chain.windows(2) {
                // w[0] precedes w[1]: check adjacency in the forest.
                let (pred, succ) = (w[0], w[1]);
                match f.kind() {
                    ForestKind::Out => assert_eq!(f.parent_of(succ), Some(pred)),
                    ForestKind::In => assert_eq!(f.parent_of(pred), Some(succ)),
                }
            }
        }
    }
    assert!(
        seen.iter().all(|&s| s),
        "some vertex missing from decomposition"
    );

    // Precedence edges never point from a later block to an earlier one.
    let dag = f.to_dag();
    for u in 0..n as u32 {
        for &v in dag.successors(u) {
            assert!(
                block_of[u as usize] <= block_of[v as usize],
                "edge {u}->{v} violates block order"
            );
        }
    }
}

#[test]
fn decomposition_binary_tree() {
    check_decomposition(&generators::binary_out_tree(5));
}

#[test]
fn decomposition_caterpillar() {
    check_decomposition(&generators::caterpillar(10, 3));
}

#[test]
fn decomposition_single_chain_forest() {
    // A path: decomposition must still cover everything.
    let parent = (0..20)
        .map(|v| if v == 0 { None } else { Some(v as u32 - 1) })
        .collect();
    check_decomposition(&Forest::out_forest(parent).unwrap());
}

#[test]
fn decomposition_empty_forest() {
    let f = Forest::out_forest(vec![]).unwrap();
    assert!(f.rank_decomposition().is_empty());
}

#[test]
fn decomposition_star() {
    // One root, many leaves: 2 blocks (root alone, then all leaves).
    let mut parent = vec![Some(0u32); 9];
    parent.insert(0, None);
    let f = Forest::out_forest(parent).unwrap();
    check_decomposition(&f);
    let blocks = f.rank_decomposition();
    assert_eq!(blocks.len(), 2);
    assert_eq!(blocks[0].len(), 1); // the root chain
    assert_eq!(blocks[1].len(), 9); // nine singleton leaf chains
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_out_forest_decomposition_invariants(seed in 0u64..10_000, n in 1usize..120, roots in 1usize..5) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let f = generators::random_out_forest(n, roots.min(n), &mut rng);
        check_decomposition(&f);
    }

    #[test]
    fn random_in_forest_decomposition_invariants(seed in 0u64..10_000, n in 1usize..120, roots in 1usize..5) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let f = generators::random_in_forest(n, roots.min(n), &mut rng);
        check_decomposition(&f);
    }

    #[test]
    fn random_chain_sets_are_partitions(seed in 0u64..10_000, n in 1usize..100, k in 1usize..10) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let k = k.min(n);
        let cs = generators::random_chain_set(n, k, &mut rng);
        prop_assert_eq!(cs.num_chains(), k);
        prop_assert_eq!(cs.chains().iter().map(Vec::len).sum::<usize>(), n);
        let dag = cs.to_dag();
        prop_assert!(dag.is_acyclic());
        prop_assert_eq!(dag.num_edges(), n - k);
    }

    #[test]
    fn layered_dags_are_acyclic(seed in 0u64..10_000, n in 1usize..80, layers in 1usize..6, density in 0.05f64..0.9) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let dag = generators::layered_dag(n, layers, density, &mut rng);
        prop_assert!(dag.is_acyclic());
        prop_assert!(dag.longest_path_len() <= layers);
    }

    #[test]
    fn width_matches_bruteforce_on_tiny_dags(seed in 0u64..3_000, n in 1usize..9, density in 0.05f64..0.6) {
        let mut rng = SmallRng::seed_from_u64(seed);
        // Random DAG with edges only low -> high: always acyclic.
        let mut dag = Dag::new(n);
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                if rng.random_bool(density) {
                    dag.add_edge(u, v);
                }
            }
        }
        let w = dag.width();

        // Brute-force max antichain via reachability.
        let tc = dag.transitive_closure();
        let reach = |a: usize, b: usize| tc[a][b / 64] >> (b % 64) & 1 == 1;
        let mut best = 0;
        for mask in 0u32..(1 << n) {
            let verts: Vec<usize> = (0..n).filter(|&v| mask >> v & 1 == 1).collect();
            let ok = verts.iter().all(|&a| verts.iter().all(|&b| a == b || (!reach(a, b) && !reach(b, a))));
            if ok {
                best = best.max(verts.len());
            }
        }
        prop_assert_eq!(w, best);
    }
}

#[test]
fn equal_chains_splits_evenly() {
    let cs = generators::equal_chains(10, 3);
    assert_eq!(cs.num_chains(), 4); // 3+3+3+1
    assert_eq!(cs.max_chain_len(), 3);
}

#[test]
fn mapreduce_edges_complete() {
    let dag = generators::mapreduce_bipartite(2, 3);
    assert_eq!(dag.num_edges(), 6);
    for m in 0..2u32 {
        assert_eq!(dag.successors(m).len(), 3);
    }
}
