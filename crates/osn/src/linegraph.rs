//! Implicit line graph `G'` for the baseline adaptations (paper §5.1).
//!
//! `G' = (H, R)` where each node of `H` is an edge of `G` and two nodes of
//! `H` are adjacent iff the corresponding edges of `G` share an endpoint.
//! Counting target *edges* in `G` equals counting target *nodes* in `G'`,
//! which lets the node-counting estimators of Li et al. (ICDE 2015) run
//! unchanged.
//!
//! `G'` is never materialized — it can be quadratically larger than `G`
//! (`|R| = Σ_u d(u)·(d(u)−1)/2`) and the whole point of the setting is
//! restricted access. [`LineGraphView`] translates every `G'` operation
//! into `OsnApi` calls on `G`:
//!
//! * `d'(u,v) = d(u) + d(v) − 2` (edges adjacent to `(u,v)`),
//! * a uniform `G'`-neighbor of `(u,v)` is drawn by indexing into the
//!   concatenation of `N(u)\{v}` and `N(v)\{u}`.
//!
//! Under churn the edge a walk stands on can be deleted. Both operations
//! then still mean `N(u)\{v} ⊎ N(v)\{u}`: an endpoint is excluded from
//! the other's side only when it is there.

use labelcount_graph::{NodeId, TargetLabel};
use rand::Rng;

use crate::api::{OsnApi, OsnApiExt};

/// A node of the line graph `G'`: an undirected edge of `G`, stored
/// normalized (`u() <= v()`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct LineNode {
    u: NodeId,
    v: NodeId,
}

impl LineNode {
    /// Creates a line-graph node for the edge `(u, v)`.
    ///
    /// # Panics
    /// Panics if `u == v` (the underlying graph has no self-loops).
    pub fn new(u: NodeId, v: NodeId) -> Self {
        assert_ne!(u, v, "line-graph nodes are edges; self-loops do not exist");
        if u < v {
            LineNode { u, v }
        } else {
            LineNode { u: v, v: u }
        }
    }

    /// The smaller endpoint.
    pub fn u(&self) -> NodeId {
        self.u
    }

    /// The larger endpoint.
    pub fn v(&self) -> NodeId {
        self.v
    }
}

impl std::fmt::Display for LineNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.u, self.v)
    }
}

/// The implicit line graph `G'` over an [`OsnApi`].
pub struct LineGraphView<'a, A: OsnApi + ?Sized> {
    api: &'a A,
}

impl<'a, A: OsnApi + ?Sized> LineGraphView<'a, A> {
    /// Wraps an OSN API handle.
    pub fn new(api: &'a A) -> Self {
        LineGraphView { api }
    }

    /// The underlying API handle.
    pub fn api(&self) -> &'a A {
        self.api
    }

    /// `|H|`: the number of nodes of `G'`, which equals `|E|` of `G` —
    /// prior knowledge, no API calls.
    pub fn num_nodes(&self) -> usize {
        self.api.num_edges()
    }

    /// Degree of a line node: `d(u) + d(v) − 2` while `(u, v)` is an edge
    /// of `G`, and `|N(u)∖{v}| + |N(v)∖{u}|` in general — churn can delete
    /// the edge a walk stands on. Two neighbor-list calls.
    pub fn degree(&self, e: LineNode) -> usize {
        let nu = self.api.neighbors(e.u);
        let nv = self.api.neighbors(e.v);
        let (su, sv) = Self::side_degrees(&nu, &nv, e);
        su + sv
    }

    /// Samples a uniformly random `G'`-neighbor of `e`, or `None` if `e`
    /// has none (both endpoints have no friend besides each other).
    ///
    /// The draw is exact (no rejection) and O(log d) past the neighbor-list
    /// fetches: an index into the multiset `N(u)\{v} ⊎ N(v)\{u}` is split
    /// by the endpoint side sizes, and the excluded endpoint is remapped
    /// with the swap-with-last trick (`N(w)\{x}` is sampled by drawing
    /// from the first `d(w)−1` slots and substituting the last slot
    /// whenever `x` itself comes up — each remaining neighbor keeps
    /// probability `1/(d(w)−1)`, no position scan needed). Exactly two
    /// neighbor-list calls, always.
    pub fn sample_neighbor<R: Rng + ?Sized>(&self, e: LineNode, rng: &mut R) -> Option<LineNode> {
        let nu = self.api.neighbors(e.u);
        let nv = self.api.neighbors(e.v);
        let (su, sv) = Self::side_degrees(&nu, &nv, e);
        if su + sv == 0 {
            return None;
        }
        let idx = rng.gen_range(0..su + sv);
        Some(Self::nth_adjacent(&nu, &nv, e, su, idx))
    }

    /// `(|N(u)∖{v}|, |N(v)∖{u}|)`: each side drops the other endpoint only
    /// when it is actually there. On a static graph both are present and
    /// this is `(d(u) − 1, d(v) − 1)`.
    fn side_degrees(nu: &[NodeId], nv: &[NodeId], e: LineNode) -> (usize, usize) {
        let su = nu.len() - usize::from(nu.binary_search(&e.v).is_ok());
        let sv = nv.len() - usize::from(nv.binary_search(&e.u).is_ok());
        (su, sv)
    }

    /// Maps index `idx < su + |N(v)∖{u}|` to an adjacent edge, where `su =
    /// |N(u)∖{v}|`: the index splits at `su`, and an excluded endpoint is
    /// remapped to its side's last slot (the swap-with-last trick; an
    /// absent endpoint never comes up, and then `su` covers the whole
    /// list).
    fn nth_adjacent(nu: &[NodeId], nv: &[NodeId], e: LineNode, su: usize, idx: usize) -> LineNode {
        if idx < su {
            // Pick slot idx of N(u) \ {v}.
            let w = nu[idx];
            let w = if w == e.v { nu[nu.len() - 1] } else { w };
            LineNode::new(e.u, w)
        } else {
            // Pick slot idx − su of N(v) \ {u}.
            let w = nv[idx - su];
            let w = if w == e.u { nv[nv.len() - 1] } else { w };
            LineNode::new(e.v, w)
        }
    }

    /// A starting line node for a walk: a random incident edge of a random
    /// user (retrying isolated users). Not uniform over `H` — walks burn in
    /// past the start anyway.
    ///
    /// # Panics
    /// Panics if no user with a friend is found after many retries (i.e.
    /// the OSN has no edges).
    pub fn random_start<R: Rng + ?Sized>(&self, rng: &mut R) -> LineNode {
        for _ in 0..10_000 {
            let u = self.api.random_node(rng);
            if let Some(v) = self.api.sample_neighbor(u, rng) {
                return LineNode::new(u, v);
            }
        }
        panic!("no edges reachable: cannot start a line-graph walk");
    }

    /// Whether the line node is a *target node* of `G'`, i.e. its edge is a
    /// target edge of `G`. Two profile calls.
    pub fn is_target(&self, e: LineNode, target: TargetLabel) -> bool {
        let (t1, t2) = (target.first(), target.second());
        (self.api.has_label(e.u, t1) && self.api.has_label(e.v, t2))
            || (self.api.has_label(e.v, t1) && self.api.has_label(e.u, t2))
    }

    /// Upper bound on the maximum degree of `G'`:
    /// `2 · max_degree(G) − 2` (two endpoints of maximal degree).
    pub fn max_degree_bound(&self) -> usize {
        (2 * self.api.max_degree_bound()).saturating_sub(2).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulated::SimulatedOsn;
    use labelcount_graph::{GraphBuilder, LabelId, LabeledGraph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    /// Triangle 0-1-2 plus tail 2-3; labels 0:[1] 1:[2] 2:[1] 3:[2].
    fn fixture() -> LabeledGraph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(2));
        b.add_edge(NodeId(2), NodeId(0));
        b.add_edge(NodeId(2), NodeId(3));
        b.set_labels(NodeId(0), &[LabelId(1)]);
        b.set_labels(NodeId(1), &[LabelId(2)]);
        b.set_labels(NodeId(2), &[LabelId(1)]);
        b.set_labels(NodeId(3), &[LabelId(2)]);
        b.build()
    }

    #[test]
    fn line_node_normalizes() {
        let a = LineNode::new(NodeId(3), NodeId(1));
        assert_eq!(a.u(), NodeId(1));
        assert_eq!(a.v(), NodeId(3));
        assert_eq!(a, LineNode::new(NodeId(1), NodeId(3)));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_line_node_rejected() {
        LineNode::new(NodeId(2), NodeId(2));
    }

    #[test]
    fn degree_identity() {
        let g = fixture();
        let osn = SimulatedOsn::new(&g);
        let lg = LineGraphView::new(&osn);
        // d'(0,1) = d(0)+d(1)-2 = 2+2-2 = 2.
        assert_eq!(lg.degree(LineNode::new(NodeId(0), NodeId(1))), 2);
        // d'(2,3) = 3+1-2 = 2.
        assert_eq!(lg.degree(LineNode::new(NodeId(2), NodeId(3))), 2);
        assert_eq!(lg.num_nodes(), 4);
    }

    #[test]
    fn neighbor_sampling_is_uniform_over_adjacent_edges() {
        let g = fixture();
        let osn = SimulatedOsn::new(&g);
        let lg = LineGraphView::new(&osn);
        let mut rng = StdRng::seed_from_u64(99);
        // Every edge, plus (0, 3) and (1, 3): pairs that are not edges, as
        // when churn deletes the edge a walk stands on.
        let pairs = g
            .edges()
            .chain([(NodeId(0), NodeId(3)), (NodeId(1), NodeId(3))]);
        for (u, v) in pairs {
            let e = LineNode::new(u, v);
            let adjacent: Vec<LineNode> = g
                .edges()
                .map(|(a, b)| LineNode::new(a, b))
                .filter(|&n| n != e && [n.u(), n.v()].iter().any(|&w| w == u || w == v))
                .collect();
            assert_eq!(lg.degree(e), adjacent.len(), "{e}");
            let trials = 10_000 * adjacent.len();
            let mut counts: HashMap<LineNode, usize> = HashMap::new();
            for _ in 0..trials {
                let n = lg.sample_neighbor(e, &mut rng).unwrap();
                *counts.entry(n).or_insert(0) += 1;
            }
            assert_eq!(
                counts.len(),
                adjacent.len(),
                "{e}: sampled a non-adjacent edge"
            );
            for n in &adjacent {
                let frac = counts[n] as f64 / trials as f64;
                assert!(
                    (frac - 1.0 / adjacent.len() as f64).abs() < 0.02,
                    "{e}: neighbor {n} frequency {frac}"
                );
            }
        }
    }

    #[test]
    fn neighbor_at_enumerates_each_adjacent_edge_once() {
        let g = fixture();
        let osn = SimulatedOsn::new(&g);
        let lg = LineGraphView::new(&osn);
        // The index space `sample_neighbor` draws from, over every edge and
        // over (0, 3) and (1, 3), pairs that are not edges.
        let pairs = g
            .edges()
            .chain([(NodeId(0), NodeId(3)), (NodeId(1), NodeId(3))]);
        for (u, v) in pairs {
            let e = LineNode::new(u, v);
            let (nu, nv) = (osn.neighbors(e.u()), osn.neighbors(e.v()));
            let (su, sv) = LineGraphView::<SimulatedOsn>::side_degrees(&nu, &nv, e);
            let d = lg.degree(e);
            assert_eq!(su + sv, d, "{e}");
            let mut seen: Vec<LineNode> = (0..d)
                .map(|i| LineGraphView::<SimulatedOsn>::nth_adjacent(&nu, &nv, e, su, i))
                .collect();
            seen.sort();
            seen.dedup();
            assert_eq!(seen.len(), d, "{e}: enumeration must be a bijection");
            for n in &seen {
                assert_ne!(*n, e);
                assert!(g.has_edge(n.u(), n.v()), "{n} is not an edge");
                assert!(
                    n.u() == e.u() || n.u() == e.v() || n.v() == e.u() || n.v() == e.v(),
                    "{n} does not share an endpoint with {e}"
                );
            }
        }
    }

    #[test]
    fn isolated_edge_has_no_neighbors() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(1));
        let g = b.build();
        let osn = SimulatedOsn::new(&g);
        let lg = LineGraphView::new(&osn);
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(
            lg.sample_neighbor(LineNode::new(NodeId(0), NodeId(1)), &mut rng),
            None
        );
    }

    #[test]
    fn is_target_matches_ground_truth() {
        let g = fixture();
        let osn = SimulatedOsn::new(&g);
        let lg = LineGraphView::new(&osn);
        let target = TargetLabel::new(LabelId(1), LabelId(2));
        // Target edges: (0,1) [1-2], (1,2) [2-1], (2,3) [1-2]; not (0,2) [1-1].
        assert!(lg.is_target(LineNode::new(NodeId(0), NodeId(1)), target));
        assert!(lg.is_target(LineNode::new(NodeId(1), NodeId(2)), target));
        assert!(lg.is_target(LineNode::new(NodeId(2), NodeId(3)), target));
        assert!(!lg.is_target(LineNode::new(NodeId(0), NodeId(2)), target));
    }

    #[test]
    fn random_start_returns_real_edge() {
        let g = fixture();
        let osn = SimulatedOsn::new(&g);
        let lg = LineGraphView::new(&osn);
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..20 {
            let e = lg.random_start(&mut rng);
            assert!(g.has_edge(e.u(), e.v()));
        }
    }

    #[test]
    fn max_degree_bound_valid() {
        let g = fixture();
        let osn = SimulatedOsn::new(&g);
        let lg = LineGraphView::new(&osn);
        let bound = lg.max_degree_bound();
        // Check against every edge's true line degree.
        for (u, v) in g.edges() {
            assert!(lg.degree(LineNode::new(u, v)) <= bound);
        }
    }

    #[test]
    fn api_calls_are_accounted() {
        let g = fixture();
        let osn = SimulatedOsn::new(&g);
        let lg = LineGraphView::new(&osn);
        let before = osn.stats().neighbor_calls;
        lg.degree(LineNode::new(NodeId(0), NodeId(1)));
        assert_eq!(osn.stats().neighbor_calls, before + 2);
    }
}
