//! General maximum-degree random walk (EX-GMD).

use rand::Rng;

use crate::traits::{WalkableGraph, Walker};

/// The general maximum-degree walk of Li et al. (ICDE 2015): a
/// maximum-degree walk whose virtual degree `c` need *not* dominate the
/// true maximum. Every state is padded with a self-loop of weight
/// `max(0, c − d(u))`:
///
/// * if `d(u) ≥ c` the walk always moves (no laziness on hubs);
/// * otherwise it moves with probability `d(u)/c`.
///
/// The stationary distribution is `π(u) ∝ max(d(u), c)`; estimators correct
/// it with the importance weight [`GmdWalk::importance_weight`]
/// `= 1 / max(d(u), c)`. Li et al. parameterize `c = δ · d_max` with
/// `δ ∈ [0.3, 0.7]`; [`GmdWalk::with_delta`] applies that convention.
#[derive(Clone, Debug)]
pub struct GmdWalk<N> {
    current: N,
    c: usize,
}

impl<N: Copy> GmdWalk<N> {
    /// Starts a walk at `start` with explicit virtual degree `c`.
    ///
    /// # Panics
    /// Panics if `c == 0`.
    pub fn new(start: N, c: usize) -> Self {
        assert!(c >= 1, "virtual degree c must be positive");
        GmdWalk { current: start, c }
    }

    /// Starts a walk with `c = δ · d_max` (clamped to at least 1), the
    /// parameterization used in the paper's experiments.
    ///
    /// # Panics
    /// Panics if `delta ∉ (0, 1]`.
    pub fn with_delta<G: WalkableGraph<Node = N> + ?Sized>(g: &G, start: N, delta: f64) -> Self {
        assert!(
            delta > 0.0 && delta <= 1.0,
            "delta must be in (0, 1], got {delta}"
        );
        let c = ((g.max_degree_bound() as f64 * delta).round() as usize).max(1);
        GmdWalk::new(start, c)
    }

    /// The virtual degree `c`.
    pub fn virtual_degree(&self) -> usize {
        self.c
    }

    /// Importance weight `1 / max(d(u), c)` correcting the stationary
    /// distribution back to uniform.
    pub fn importance_weight(&self, degree: usize) -> f64 {
        1.0 / degree.max(self.c) as f64
    }
}

impl<G: WalkableGraph + ?Sized> Walker<G> for GmdWalk<G::Node> {
    fn current(&self) -> G::Node {
        self.current
    }

    fn step<R: Rng + ?Sized>(&mut self, g: &G, rng: &mut R) -> G::Node {
        let du = g.degree(self.current);
        if du == 0 {
            return self.current;
        }
        let move_now = du >= self.c || rng.gen_range(0..self.c) < du;
        if move_now {
            if let Some(v) = g.sample_neighbor(self.current, rng) {
                self.current = v;
            }
        }
        self.current
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::test_support::{assert_tv_close, test_graph, visit_frequencies};
    use labelcount_graph::NodeId;
    use labelcount_osn::SimulatedOsn;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn stationary_distribution_is_max_d_c() {
        let g = test_graph(501);
        let osn = SimulatedOsn::new(&g);
        let mut rng = StdRng::seed_from_u64(51);
        let c = 6;
        let walker = GmdWalk::new(NodeId(0), c);
        let freq = visit_frequencies(
            &osn,
            walker,
            600_000,
            g.num_nodes(),
            |u| u.index(),
            &mut rng,
        );
        let weights: Vec<f64> = g.nodes().map(|u| g.degree(u).max(c) as f64).collect();
        let wsum: f64 = weights.iter().sum();
        let expected: Vec<f64> = weights.iter().map(|w| w / wsum).collect();
        assert_tv_close(&freq, &expected, 0.02, "GMD walk");
    }

    #[test]
    fn c_one_is_simple_walk_distribution() {
        let g = test_graph(502);
        let osn = SimulatedOsn::new(&g);
        let mut rng = StdRng::seed_from_u64(52);
        let walker = GmdWalk::new(NodeId(0), 1);
        let freq = visit_frequencies(
            &osn,
            walker,
            400_000,
            g.num_nodes(),
            |u| u.index(),
            &mut rng,
        );
        let expected: Vec<f64> = g
            .nodes()
            .map(|u| g.degree(u) as f64 / g.degree_sum() as f64)
            .collect();
        assert_tv_close(&freq, &expected, 0.02, "GMD c=1");
    }

    #[test]
    fn with_delta_scales_bound() {
        let g = test_graph(503);
        let osn = SimulatedOsn::new(&g);
        let w = GmdWalk::with_delta(&osn, NodeId(0), 0.5);
        let dmax = osn.max_degree_bound();
        assert_eq!(w.virtual_degree(), ((dmax as f64) * 0.5).round() as usize);
    }

    #[test]
    fn importance_weight_flat_below_c() {
        let w = GmdWalk::new(NodeId(0), 10);
        assert_eq!(w.importance_weight(3), w.importance_weight(9));
        assert!(w.importance_weight(20) < w.importance_weight(10));
    }

    #[test]
    #[should_panic(expected = "delta")]
    fn invalid_delta_rejected() {
        let g = test_graph(504);
        let osn = SimulatedOsn::new(&g);
        GmdWalk::with_delta(&osn, NodeId(0), 0.0);
    }
}
