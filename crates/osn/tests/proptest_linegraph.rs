//! Property-based tests for the restricted API and the implicit line
//! graph: degree identities, neighbor validity, target agreement, and call
//! accounting on arbitrary graphs.

use labelcount_graph::gen::barabasi_albert;
use labelcount_graph::{GraphBuilder, GroundTruth, LabelId, LabeledGraph, NodeId, TargetLabel};
use labelcount_osn::{LineGraphView, LineNode, OsnApi, SimulatedOsn};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_labeled_ba() -> impl Strategy<Value = LabeledGraph> {
    (5usize..40, 1usize..4, any::<u64>()).prop_map(|(n, m, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = barabasi_albert(n.max(m + 1), m, &mut rng);
        let labels: Vec<Vec<LabelId>> = (0..g.num_nodes())
            .map(|i| vec![LabelId((i % 3) as u32)])
            .collect();
        labelcount_graph::labels::with_labels(&g, &labels)
    })
}

/// `g` plus one isolated node (the last id), so that pairs with a
/// degree-0 endpoint are covered too.
fn with_isolated_node(g: &LabeledGraph) -> LabeledGraph {
    let mut b = GraphBuilder::new(g.num_nodes() + 1);
    for (u, v) in g.edges() {
        b.add_edge(u, v);
    }
    for u in g.nodes() {
        b.set_labels(u, g.labels(u));
    }
    b.build()
}

/// Every pair `u < v` that is *not* an edge of `g`: the line nodes a walk
/// can stand on after churn deleted their edge.
fn non_edges(g: &LabeledGraph) -> Vec<(NodeId, NodeId)> {
    g.nodes()
        .flat_map(|u| g.nodes().map(move |v| (u, v)))
        .filter(|&(u, v)| u < v && !g.has_edge(u, v))
        .collect()
}

/// `|N(u)∖{v}| + |N(v)∖{u}|`: the line degree of `(u, v)` whether or not
/// it is an edge.
fn expected_line_degree(g: &LabeledGraph, u: NodeId, v: NodeId) -> usize {
    let side = |a: NodeId, b: NodeId| g.neighbors(a).iter().filter(|&&w| w != b).count();
    side(u, v) + side(v, u)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn line_degree_identity_holds_everywhere(g in arb_labeled_ba()) {
        let g = with_isolated_node(&g);
        let osn = SimulatedOsn::new(&g);
        let lg = LineGraphView::new(&osn);
        for (u, v) in g.edges() {
            let e = LineNode::new(u, v);
            prop_assert_eq!(lg.degree(e), g.degree(u) + g.degree(v) - 2);
        }
        for (u, v) in non_edges(&g) {
            let e = LineNode::new(u, v);
            prop_assert_eq!(lg.degree(e), expected_line_degree(&g, u, v), "non-edge {}", e);
        }
    }

    #[test]
    fn line_neighbors_share_an_endpoint(g in arb_labeled_ba(), seed in any::<u64>()) {
        let g = with_isolated_node(&g);
        let osn = SimulatedOsn::new(&g);
        let lg = LineGraphView::new(&osn);
        let mut rng = StdRng::seed_from_u64(seed);
        for (u, v) in g.edges().take(10) {
            let e = LineNode::new(u, v);
            if let Some(n) = lg.sample_neighbor(e, &mut rng) {
                prop_assert!(g.has_edge(n.u(), n.v()));
                prop_assert_ne!(n, e);
                let shares = n.u() == u || n.u() == v || n.v() == u || n.v() == v;
                prop_assert!(shares, "neighbor {n} does not touch {e}");
            }
        }
        for (u, v) in non_edges(&g) {
            let e = LineNode::new(u, v);
            match lg.sample_neighbor(e, &mut rng) {
                Some(n) => {
                    prop_assert!(g.has_edge(n.u(), n.v()), "{n} is not an edge");
                    let shares = n.u() == u || n.u() == v || n.v() == u || n.v() == v;
                    prop_assert!(shares, "neighbor {n} does not touch {e}");
                }
                None => prop_assert_eq!(expected_line_degree(&g, u, v), 0),
            }
        }
    }

    #[test]
    fn target_nodes_of_line_graph_count_f(g in arb_labeled_ba(), a in 0u32..3, b in 0u32..3) {
        // Counting target nodes of G' over all of H equals F in G — the
        // identity the baseline adaptation relies on (§5.1).
        let target = TargetLabel::new(LabelId(a), LabelId(b));
        let osn = SimulatedOsn::new(&g);
        let lg = LineGraphView::new(&osn);
        let count = g
            .edges()
            .filter(|&(u, v)| lg.is_target(LineNode::new(u, v), target))
            .count();
        prop_assert_eq!(count, GroundTruth::compute(&g, target).f);
    }

    #[test]
    fn api_counters_are_exact(g in arb_labeled_ba(), queries in proptest::collection::vec(0u32..200, 1..30)) {
        let osn = SimulatedOsn::new(&g);
        let n = g.num_nodes() as u32;
        let mut distinct = std::collections::HashSet::new();
        for q in &queries {
            let u = NodeId(q % n);
            osn.neighbors(u);
            distinct.insert(u);
        }
        let s = osn.stats();
        prop_assert_eq!(s.neighbor_calls, queries.len() as u64);
        prop_assert_eq!(s.distinct_neighbor_calls, distinct.len() as u64);
        prop_assert_eq!(s.label_calls, 0);
        prop_assert_eq!(osn.api_calls(), queries.len() as u64);
    }

    #[test]
    fn budget_flag_flips_exactly_at_budget(g in arb_labeled_ba(), budget in 1u64..20) {
        let osn = SimulatedOsn::new(&g);
        osn.set_budget(budget);
        for i in 0..budget {
            prop_assert!(!osn.budget_exhausted(), "exhausted early at {i}");
            osn.neighbors(NodeId(0));
        }
        prop_assert!(osn.budget_exhausted());
    }

    #[test]
    fn max_degree_bound_dominates_all_line_degrees(g in arb_labeled_ba()) {
        let osn = SimulatedOsn::new(&g);
        let lg = LineGraphView::new(&osn);
        let bound = lg.max_degree_bound();
        for (u, v) in g.edges() {
            prop_assert!(lg.degree(LineNode::new(u, v)) <= bound);
        }
    }
}
