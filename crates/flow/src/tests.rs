//! Tests for max-flow and matching, including property-based checks of the
//! max-flow/min-cut certificate and brute-force matching comparisons.

use crate::{BipartiteMatcher, FlowNetwork, CAP_INF};
use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::SmallRng;

#[test]
fn single_edge() {
    let mut net = FlowNetwork::new(2);
    let e = net.add_edge(0, 1, 7);
    assert_eq!(net.max_flow(0, 1), 7);
    assert_eq!(net.flow_on(e), 7);
}

#[test]
fn series_bottleneck() {
    let mut net = FlowNetwork::new(3);
    net.add_edge(0, 1, 10);
    net.add_edge(1, 2, 4);
    assert_eq!(net.max_flow(0, 2), 4);
}

#[test]
fn parallel_paths_add() {
    let mut net = FlowNetwork::new(4);
    net.add_edge(0, 1, 3);
    net.add_edge(1, 3, 3);
    net.add_edge(0, 2, 5);
    net.add_edge(2, 3, 5);
    assert_eq!(net.max_flow(0, 3), 8);
}

#[test]
fn classic_clrs_example() {
    // CLRS figure 26.6-style network, max flow 23.
    let mut net = FlowNetwork::new(6);
    let (s, v1, v2, v3, v4, t) = (0, 1, 2, 3, 4, 5);
    net.add_edge(s, v1, 16);
    net.add_edge(s, v2, 13);
    net.add_edge(v1, v3, 12);
    net.add_edge(v2, v1, 4);
    net.add_edge(v2, v4, 14);
    net.add_edge(v3, v2, 9);
    net.add_edge(v3, t, 20);
    net.add_edge(v4, v3, 7);
    net.add_edge(v4, t, 4);
    assert_eq!(net.max_flow(s, t), 23);
}

#[test]
fn disconnected_sink_zero_flow() {
    let mut net = FlowNetwork::new(3);
    net.add_edge(0, 1, 5);
    assert_eq!(net.max_flow(0, 2), 0);
}

#[test]
fn infinite_capacity_edges_do_not_overflow() {
    let mut net = FlowNetwork::new(4);
    net.add_edge(0, 1, 9);
    net.add_edge(1, 2, CAP_INF);
    net.add_edge(2, 3, 11);
    assert_eq!(net.max_flow(0, 3), 9);
}

#[test]
fn per_edge_flow_conservation() {
    let mut net = FlowNetwork::new(5);
    let e: Vec<_> = vec![
        net.add_edge(0, 1, 4),
        net.add_edge(0, 2, 3),
        net.add_edge(1, 3, 2),
        net.add_edge(1, 2, 2),
        net.add_edge(2, 3, 5),
        net.add_edge(3, 4, 6),
    ];
    let f = net.max_flow(0, 4);
    assert_eq!(f, 6);
    // Conservation at node 1: in = out.
    assert_eq!(net.flow_on(e[0]), net.flow_on(e[2]) + net.flow_on(e[3]));
    // Conservation at node 3.
    assert_eq!(net.flow_on(e[2]) + net.flow_on(e[4]), net.flow_on(e[5]));
}

#[test]
fn min_cut_certificate_matches_flow() {
    let mut net = FlowNetwork::new(6);
    net.add_edge(0, 1, 10);
    net.add_edge(0, 2, 10);
    net.add_edge(1, 3, 4);
    net.add_edge(1, 4, 8);
    net.add_edge(2, 4, 9);
    net.add_edge(3, 5, 10);
    net.add_edge(4, 3, 6);
    net.add_edge(4, 5, 10);
    let f = net.max_flow(0, 5);
    let side = net.min_cut_side(0);
    assert!(side[0] && !side[5]);
    assert_eq!(net.cut_capacity(&side), f);
}

fn random_network(seed: u64, n: usize, extra_edges: usize) -> FlowNetwork {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut net = FlowNetwork::new(n);
    // A guaranteed s->t path plus random edges.
    for i in 0..n - 1 {
        net.add_edge(i, i + 1, rng.random_range(0..20));
    }
    for _ in 0..extra_edges {
        let a = rng.random_range(0..n);
        let b = rng.random_range(0..n);
        if a != b {
            net.add_edge(a, b, rng.random_range(0..15));
        }
    }
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn maxflow_equals_mincut_on_random_graphs(seed in 0u64..5_000, n in 3usize..12, extra in 0usize..20) {
        let mut net = random_network(seed, n, extra);
        let f = net.max_flow(0, n - 1);
        let side = net.min_cut_side(0);
        prop_assert!(side[0]);
        prop_assert!(!side[n - 1]);
        prop_assert_eq!(net.cut_capacity(&side), f);
    }

    #[test]
    fn matching_never_exceeds_side_sizes(seed in 0u64..5_000, nl in 1usize..8, nr in 1usize..8, ne in 0usize..24) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut m = BipartiteMatcher::new(nl, nr);
        for _ in 0..ne {
            m.add_edge(rng.random_range(0..nl), rng.random_range(0..nr));
        }
        let k = m.solve();
        prop_assert!(k <= nl.min(nr));
        // Matching is consistent: pairs agree in both directions.
        for (u, v) in m.pairs() {
            prop_assert_eq!(m.partner_of_left(u), Some(v));
            prop_assert_eq!(m.partner_of_right(v), Some(u));
        }
        prop_assert_eq!(m.pairs().len(), k);
    }

    #[test]
    fn matching_matches_bruteforce(seed in 0u64..2_000, nl in 1usize..6, nr in 1usize..6, density in 0.1f64..0.9) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut edges = vec![];
        let mut m = BipartiteMatcher::new(nl, nr);
        for u in 0..nl {
            for v in 0..nr {
                if rng.random_bool(density) {
                    edges.push((u, v));
                    m.add_edge(u, v);
                }
            }
        }
        let hk = m.solve();

        // Brute force: try all subsets of edges (tiny sizes).
        let mut best = 0usize;
        let ne = edges.len().min(20);
        for mask in 0u32..(1u32 << ne) {
            let mut used_l = 0u32;
            let mut used_r = 0u32;
            let mut ok = true;
            let mut count = 0;
            for (k, &(u, v)) in edges.iter().take(ne).enumerate() {
                if mask >> k & 1 == 1 {
                    if used_l >> u & 1 == 1 || used_r >> v & 1 == 1 {
                        ok = false;
                        break;
                    }
                    used_l |= 1 << u;
                    used_r |= 1 << v;
                    count += 1;
                }
            }
            if ok {
                best = best.max(count);
            }
        }
        if edges.len() <= 20 {
            prop_assert_eq!(hk, best);
        }
    }
}

#[test]
fn perfect_matching_on_complete_bipartite() {
    let n = 10;
    let mut m = BipartiteMatcher::new(n, n);
    for u in 0..n {
        for v in 0..n {
            m.add_edge(u, v);
        }
    }
    assert_eq!(m.solve(), n);
}

#[test]
fn hall_violation_limits_matching() {
    // Three left vertices all pointing to one right vertex.
    let mut m = BipartiteMatcher::new(3, 3);
    m.add_edge(0, 1);
    m.add_edge(1, 1);
    m.add_edge(2, 1);
    assert_eq!(m.solve(), 1);
}

#[test]
fn empty_matcher() {
    let mut m = BipartiteMatcher::new(0, 0);
    assert_eq!(m.solve(), 0);
    assert!(m.pairs().is_empty());
}
