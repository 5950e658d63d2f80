//! # labelcount-walk
//!
//! Random-walk engine for restricted-access graph sampling.
//!
//! The estimators of Wu et al. (EDBT 2018) and the baseline adaptations of
//! Li et al. (ICDE 2015) all reduce to "run some random walk, observe the
//! visited states". This crate provides those walks, generically over any
//! state space exposing restricted access ([`WalkableGraph`]), so the same
//! implementations run on the OSN itself (states = users) and on the
//! implicit line graph `G'` (states = friendships):
//!
//! * [`SimpleWalk`] — simple random walk; stationary distribution
//!   `π(u) = d(u) / 2|E|` (the basis of the paper's two samplers);
//! * [`MetropolisHastingsWalk`] — MH-corrected walk with uniform
//!   stationary distribution (baseline EX-MHRW);
//! * [`MaxDegreeWalk`] — lazy walk with self-loops padding every node to
//!   the maximum degree, uniform stationary distribution (EX-MDRW);
//! * [`RcmhWalk`] — rejection-controlled MH with exponent `α`,
//!   stationary `∝ d(u)^{1−α}` (EX-RCMH);
//! * [`GmdWalk`] — general maximum-degree walk with virtual degree `c`,
//!   stationary `∝ max(d(u), c)` (EX-GMD);
//! * [`NonBacktrackingWalk`] — never immediately reverses an edge
//!   (extension; cited in the paper as a more efficient alternative
//!   sampler, Lee et al. SIGMETRICS 2012).
//!
//! The [`mixing`] module computes the mixing time `T(ε)` of the simple
//! random walk exactly as the paper defines it (Eq. 23), by iterating the
//! transition operator and measuring total-variation distance to the
//! stationary distribution.

#![warn(missing_docs)]

pub mod gmd;
pub mod maxdeg;
pub mod mh;
pub mod mixing;
pub mod nonbacktracking;
pub mod rcmh;
pub mod simple;
pub mod traits;

pub use gmd::GmdWalk;
pub use maxdeg::MaxDegreeWalk;
pub use mh::MetropolisHastingsWalk;
pub use nonbacktracking::NonBacktrackingWalk;
pub use rcmh::RcmhWalk;
pub use simple::SimpleWalk;
pub use traits::{WalkableGraph, Walker};
