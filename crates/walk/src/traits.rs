//! The walkable-state-space abstraction and the walker interface.

use labelcount_graph::NodeId;
use labelcount_osn::{LineGraphView, LineNode, OsnApi, OsnApiExt, SimulatedOsn};
use rand::Rng;

/// A state space a random walk can move on through restricted access.
///
/// Implemented for [`SimulatedOsn`] (states = users) and for
/// [`LineGraphView`] (states = friendships, i.e. nodes of the implicit line
/// graph `G'`). Every operation maps to API calls on the underlying OSN, so
/// walks are automatically accounted and budget-limited.
pub trait WalkableGraph {
    /// The state (node) type.
    type Node: Copy + Eq + std::fmt::Debug;

    /// Degree of `u` in this state space.
    fn degree(&self, u: Self::Node) -> usize;

    /// A uniformly random neighbor of `u`, or `None` if `u` is isolated.
    fn sample_neighbor<R: Rng + ?Sized>(&self, u: Self::Node, rng: &mut R) -> Option<Self::Node>;

    /// A starting state for a walk. Not necessarily uniform — walks burn
    /// in past the start.
    fn random_node<R: Rng + ?Sized>(&self, rng: &mut R) -> Self::Node;

    /// An upper bound on the maximum degree of the state space, used by
    /// the maximum-degree walks.
    fn max_degree_bound(&self) -> usize;

    /// Number of states (`|V|` for the OSN, `|E|` for the line graph) —
    /// prior knowledge.
    fn num_states(&self) -> usize;
}

impl WalkableGraph for SimulatedOsn<'_> {
    type Node = NodeId;

    fn degree(&self, u: NodeId) -> usize {
        OsnApi::degree(self, u)
    }

    fn sample_neighbor<R: Rng + ?Sized>(&self, u: NodeId, rng: &mut R) -> Option<NodeId> {
        OsnApiExt::sample_neighbor(self, u, rng)
    }

    fn random_node<R: Rng + ?Sized>(&self, rng: &mut R) -> NodeId {
        OsnApiExt::random_node(self, rng)
    }

    fn max_degree_bound(&self) -> usize {
        OsnApi::max_degree_bound(self)
    }

    fn num_states(&self) -> usize {
        OsnApi::num_nodes(self)
    }
}

/// Any `dyn OsnApi` handle is walkable: this is how the estimators (which
/// take `&dyn OsnApi`) run their walks over the direct simulation and the
/// cached sessions with one compiled code path.
impl WalkableGraph for dyn OsnApi + '_ {
    type Node = NodeId;

    fn degree(&self, u: NodeId) -> usize {
        OsnApi::degree(self, u)
    }

    fn sample_neighbor<R: Rng + ?Sized>(&self, u: NodeId, rng: &mut R) -> Option<NodeId> {
        OsnApiExt::sample_neighbor(self, u, rng)
    }

    fn random_node<R: Rng + ?Sized>(&self, rng: &mut R) -> NodeId {
        OsnApiExt::random_node(self, rng)
    }

    fn max_degree_bound(&self) -> usize {
        OsnApi::max_degree_bound(self)
    }

    fn num_states(&self) -> usize {
        self.num_nodes()
    }
}

impl<A: OsnApi + ?Sized> WalkableGraph for LineGraphView<'_, A> {
    type Node = LineNode;

    fn degree(&self, e: LineNode) -> usize {
        LineGraphView::degree(self, e)
    }

    fn sample_neighbor<R: Rng + ?Sized>(&self, e: LineNode, rng: &mut R) -> Option<LineNode> {
        LineGraphView::sample_neighbor(self, e, rng)
    }

    fn random_node<R: Rng + ?Sized>(&self, rng: &mut R) -> LineNode {
        self.random_start(rng)
    }

    fn max_degree_bound(&self) -> usize {
        LineGraphView::max_degree_bound(self)
    }

    fn num_states(&self) -> usize {
        self.num_nodes()
    }
}

/// A random walk over a [`WalkableGraph`].
///
/// Walkers hold only their own state (current node, walk-specific memory);
/// the graph is passed per call so one graph handle can serve many walkers.
pub trait Walker<G: WalkableGraph + ?Sized> {
    /// The state the walk is currently at.
    fn current(&self) -> G::Node;

    /// Advances one step and returns the new state. Lazy walks may stay
    /// put; the returned state is the walk's position after the step
    /// either way.
    fn step<R: Rng + ?Sized>(&mut self, g: &G, rng: &mut R) -> G::Node;

    /// Runs `steps` steps discarding the visited states — the burn-in that
    /// takes the walk to (approximate) stationarity before sampling.
    fn burn_in<R: Rng + ?Sized>(&mut self, g: &G, steps: usize, rng: &mut R) {
        for _ in 0..steps {
            self.step(g, rng);
        }
    }

    /// Advances `buf.len()` steps, writing the visited states into `buf` in
    /// order. Equivalent to calling [`Walker::step`] once per slot, but
    /// batched so implementations can amortize per-step overhead (monomorphic
    /// dispatch, walker-state loads/stores) across the whole buffer; consumers
    /// that sample in bulk (throughput harnesses, vectorized estimators)
    /// should prefer it over a `step` loop. The default just loops `step`, so
    /// every walker gets the API with identical visit sequences either way.
    fn steps_into<R: Rng + ?Sized>(&mut self, g: &G, buf: &mut [G::Node], rng: &mut R) {
        for slot in buf.iter_mut() {
            *slot = self.step(g, rng);
        }
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared helpers for the per-walk stationarity tests.

    use labelcount_graph::gen::barabasi_albert;
    use labelcount_graph::LabeledGraph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A small connected BA graph with degree skew.
    pub fn test_graph(seed: u64) -> LabeledGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        barabasi_albert(60, 3, &mut rng)
    }

    /// Runs `walker` for `steps` steps on `g` and returns per-node visit
    /// frequencies (including repeats from lazy self-loops).
    pub fn visit_frequencies<G, W>(
        g: &G,
        mut walker: W,
        steps: usize,
        num_nodes: usize,
        index: impl Fn(G::Node) -> usize,
        rng: &mut StdRng,
    ) -> Vec<f64>
    where
        G: super::WalkableGraph,
        W: super::Walker<G>,
    {
        let mut counts = vec![0usize; num_nodes];
        for _ in 0..steps {
            let u = walker.step(g, rng);
            counts[index(u)] += 1;
        }
        counts
            .into_iter()
            .map(|c| c as f64 / steps as f64)
            .collect()
    }

    /// Asserts `observed` is close to `expected` in total-variation
    /// distance.
    pub fn assert_tv_close(observed: &[f64], expected: &[f64], tol: f64, what: &str) {
        let tv: f64 = observed
            .iter()
            .zip(expected)
            .map(|(o, e)| (o - e).abs())
            .sum::<f64>()
            / 2.0;
        assert!(tv < tol, "{what}: TV distance {tv} >= {tol}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use labelcount_graph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn simulated_osn_is_walkable() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(2));
        let g = b.build();
        let osn = SimulatedOsn::new(&g);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(WalkableGraph::degree(&osn, NodeId(1)), 2);
        assert_eq!(WalkableGraph::num_states(&osn), 3);
        assert_eq!(WalkableGraph::max_degree_bound(&osn), 2);
        let n = WalkableGraph::sample_neighbor(&osn, NodeId(0), &mut rng).unwrap();
        assert_eq!(n, NodeId(1));
    }

    #[test]
    fn line_graph_is_walkable() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(2));
        let g = b.build();
        let osn = SimulatedOsn::new(&g);
        let lg = LineGraphView::new(&osn);
        let mut rng = StdRng::seed_from_u64(2);
        let e = WalkableGraph::random_node(&lg, &mut rng);
        assert_eq!(WalkableGraph::degree(&lg, e), 1);
        assert_eq!(WalkableGraph::num_states(&lg), 2);
        let n = WalkableGraph::sample_neighbor(&lg, e, &mut rng).unwrap();
        assert_ne!(n, e);
    }
}
