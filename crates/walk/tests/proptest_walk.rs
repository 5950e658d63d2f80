//! Property-based tests for the walk engine: every walker stays on edges
//! (or in place), and the mixing-time machinery conserves probability.

use labelcount_graph::gen::barabasi_albert;
use labelcount_graph::{LabeledGraph, NodeId};
use labelcount_osn::SimulatedOsn;
use labelcount_walk::mixing::{
    mixing_time_from_start, stationary_distribution, step_distribution, total_variation,
};
use labelcount_walk::{
    GmdWalk, MaxDegreeWalk, MetropolisHastingsWalk, NonBacktrackingWalk, RcmhWalk, SimpleWalk,
    Walker,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_ba() -> impl Strategy<Value = LabeledGraph> {
    (10usize..60, 1usize..4, any::<u64>()).prop_map(|(n, m, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        barabasi_albert(n.max(m + 1), m, &mut rng)
    })
}

/// Checks that `steps` transitions of `walker` all follow edges of `g` or
/// stay in place (lazy walks).
fn assert_walk_on_edges<W>(g: &LabeledGraph, mut walker: W, seed: u64, steps: usize)
where
    W: for<'g> Walker<SimulatedOsn<'g>>,
{
    let osn = SimulatedOsn::new(g);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut prev = walker.current();
    for _ in 0..steps {
        let next = walker.step(&osn, &mut rng);
        assert!(
            next == prev || g.has_edge(prev, next),
            "illegal move {prev} -> {next}"
        );
        prev = next;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_walker_respects_the_graph(g in arb_ba(), seed in any::<u64>()) {
        let start = NodeId(0);
        assert_walk_on_edges(&g, SimpleWalk::new(start), seed, 100);
        assert_walk_on_edges(&g, MetropolisHastingsWalk::new(start), seed, 100);
        assert_walk_on_edges(&g, NonBacktrackingWalk::new(start), seed, 100);
        assert_walk_on_edges(&g, RcmhWalk::new(start, 0.3), seed, 100);
        assert_walk_on_edges(&g, GmdWalk::new(start, 5), seed, 100);
        let osn = SimulatedOsn::new(&g);
        assert_walk_on_edges(&g, MaxDegreeWalk::new(&osn, start), seed, 100);
    }

    #[test]
    fn transition_operator_conserves_mass(g in arb_ba(), start in 0u32..10) {
        let start = NodeId(start % g.num_nodes() as u32);
        let mut cur = vec![0.0; g.num_nodes()];
        cur[start.index()] = 1.0;
        let mut next = vec![0.0; g.num_nodes()];
        for _ in 0..5 {
            step_distribution(&g, &cur, &mut next);
            prop_assert!((next.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            prop_assert!(next.iter().all(|&p| p >= 0.0));
            std::mem::swap(&mut cur, &mut next);
        }
    }

    #[test]
    fn stationary_distribution_is_fixed_point(g in arb_ba()) {
        let pi = stationary_distribution(&g);
        prop_assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let mut next = vec![0.0; g.num_nodes()];
        step_distribution(&g, &pi, &mut next);
        prop_assert!(total_variation(&pi, &next) < 1e-9);
    }

    #[test]
    fn tv_distance_is_a_metric_on_distributions(g in arb_ba()) {
        let pi = stationary_distribution(&g);
        let mut point = vec![0.0; g.num_nodes()];
        point[0] = 1.0;
        // Identity, symmetry, range.
        prop_assert_eq!(total_variation(&pi, &pi), 0.0);
        let d1 = total_variation(&pi, &point);
        let d2 = total_variation(&point, &pi);
        prop_assert!((d1 - d2).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&d1));
    }

    #[test]
    fn mixing_time_is_monotone_in_epsilon(g in arb_ba()) {
        // Looser epsilon can only mix sooner.
        let loose = mixing_time_from_start(&g, NodeId(0), 1e-1, 5_000);
        let tight = mixing_time_from_start(&g, NodeId(0), 1e-3, 5_000);
        if let (Some(l), Some(t)) = (loose, tight) {
            prop_assert!(l <= t, "loose {l} > tight {t}");
        }
    }
}
