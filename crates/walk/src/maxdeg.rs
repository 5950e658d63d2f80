//! Maximum-degree random walk (uniform stationary distribution).

use rand::Rng;

use crate::traits::{WalkableGraph, Walker};

/// The maximum-degree random walk: conceptually, pad every state with
/// self-loops up to the maximum degree `d_max`, then walk uniformly. From
/// state `u` the walk moves to a uniform neighbor with probability
/// `d(u)/d_max` and stays put otherwise, giving a uniform stationary
/// distribution without needing the neighbor's degree (one fewer API call
/// per step than MH, at the cost of self-loop laziness on low-degree
/// states) — the EX-MDRW baseline.
#[derive(Clone, Debug)]
pub struct MaxDegreeWalk<N> {
    current: N,
    dmax: usize,
    self_loops: u64,
    moves: u64,
}

impl<N: Copy> MaxDegreeWalk<N> {
    /// Starts a walk at `start` using the graph's maximum-degree bound.
    pub fn new<G: WalkableGraph<Node = N> + ?Sized>(g: &G, start: N) -> Self {
        let dmax = g.max_degree_bound().max(1);
        MaxDegreeWalk {
            current: start,
            dmax,
            self_loops: 0,
            moves: 0,
        }
    }

    /// Starts a walk with an explicit degree bound (must dominate every
    /// state's degree; a loose bound only slows mixing, it does not bias).
    pub fn with_bound(start: N, dmax: usize) -> Self {
        assert!(dmax >= 1, "degree bound must be positive");
        MaxDegreeWalk {
            current: start,
            dmax,
            self_loops: 0,
            moves: 0,
        }
    }

    /// Fraction of steps that were self-loops (diagnostic: high values mean
    /// the bound is loose or the graph is very skewed).
    pub fn self_loop_rate(&self) -> f64 {
        let total = self.self_loops + self.moves;
        if total == 0 {
            0.0
        } else {
            self.self_loops as f64 / total as f64
        }
    }
}

impl<G: WalkableGraph + ?Sized> Walker<G> for MaxDegreeWalk<G::Node> {
    fn current(&self) -> G::Node {
        self.current
    }

    fn step<R: Rng + ?Sized>(&mut self, g: &G, rng: &mut R) -> G::Node {
        // Under churn a state's degree can exceed the bound captured at
        // construction: a node may grow past it, and a deleted line node
        // (u, v) has degree d(u) + d(v), which can exceed 2·d_max − 2.
        // The move is then certain: every index in [0, d_max) is below
        // d(u).
        let du = g.degree(self.current);
        if du > 0 && rng.gen_range(0..self.dmax) < du {
            if let Some(v) = g.sample_neighbor(self.current, rng) {
                self.current = v;
                self.moves += 1;
                return self.current;
            }
        }
        self.self_loops += 1;
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
    fn stationary_distribution_is_uniform() {
        let g = test_graph(301);
        let osn = SimulatedOsn::new(&g);
        let mut rng = StdRng::seed_from_u64(31);
        let walker = MaxDegreeWalk::new(&osn, NodeId(0));
        let freq = visit_frequencies(
            &osn,
            walker,
            600_000,
            g.num_nodes(),
            |u| u.index(),
            &mut rng,
        );
        let expected = vec![1.0 / g.num_nodes() as f64; g.num_nodes()];
        assert_tv_close(&freq, &expected, 0.02, "max-degree walk");
    }

    #[test]
    fn loose_bound_remains_unbiased() {
        let g = test_graph(302);
        let osn = SimulatedOsn::new(&g);
        let mut rng = StdRng::seed_from_u64(32);
        // Bound 4× the true maximum: more self-loops, same stationary dist.
        let walker = MaxDegreeWalk::with_bound(NodeId(0), 4 * osn.max_degree_bound());
        let freq = visit_frequencies(
            &osn,
            walker,
            1_200_000,
            g.num_nodes(),
            |u| u.index(),
            &mut rng,
        );
        let expected = vec![1.0 / g.num_nodes() as f64; g.num_nodes()];
        assert_tv_close(&freq, &expected, 0.03, "loose-bound max-degree walk");
    }

    #[test]
    fn self_loops_happen_on_skewed_graph() {
        let g = test_graph(303);
        let osn = SimulatedOsn::new(&g);
        let mut rng = StdRng::seed_from_u64(33);
        let mut walker = MaxDegreeWalk::new(&osn, NodeId(0));
        for _ in 0..5_000 {
            walker.step(&osn, &mut rng);
        }
        assert!(walker.self_loop_rate() > 0.1);
    }

    #[test]
    fn walk_off_a_deleted_edge_between_max_degree_nodes() {
        use labelcount_graph::{ChurnEvent, GraphBuilder, MutableGraph};
        use labelcount_osn::{LineGraphView, LineNode};

        // Hubs 0 and 1 are joined and each has three leaves. Churn deletes
        // the hub edge and gives each hub a new friend, so both are back at
        // the maximum degree 4 and the dead line node (0, 1) has degree
        // 4 + 4 = 8, above the line graph's bound 2·4 − 2 = 6.
        let mut b = GraphBuilder::new(10);
        b.add_edge(NodeId(0), NodeId(1));
        for leaf in 2..5 {
            b.add_edge(NodeId(0), NodeId(leaf));
            b.add_edge(NodeId(1), NodeId(leaf + 3));
        }
        let mut live = MutableGraph::new(&b.build(), 0);
        assert!(live.apply(ChurnEvent::DeleteEdge(NodeId(0), NodeId(1))));
        assert!(live.apply(ChurnEvent::InsertEdge(NodeId(0), NodeId(8))));
        assert!(live.apply(ChurnEvent::InsertEdge(NodeId(1), NodeId(9))));
        let g = live.to_labeled_graph();
        let osn = SimulatedOsn::new(&g);
        let lg = LineGraphView::new(&osn);
        let dead = LineNode::new(NodeId(0), NodeId(1));
        assert_eq!(lg.max_degree_bound(), 6);
        assert_eq!(lg.degree(dead), 8);

        let mut rng = StdRng::seed_from_u64(36);
        let mut walker = MaxDegreeWalk::new(&lg, dead);
        let first = walker.step(&lg, &mut rng);
        assert_ne!(first, dead, "a degree above the bound must move");
        assert!(first.u() == NodeId(0) || first.u() == NodeId(1));
        for _ in 0..200 {
            let e = walker.step(&lg, &mut rng);
            assert!(g.has_edge(e.u(), e.v()), "walked onto non-edge {e}");
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bound_rejected() {
        MaxDegreeWalk::<NodeId>::with_bound(NodeId(0), 0);
    }
}
