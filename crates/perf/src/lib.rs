//! # labelcount-perf
//!
//! The performance subsystem: a scenario-matrix harness that measures the
//! workspace's hot paths and persists the results as schema-versioned
//! `BENCH_<scenario>.json` files at the repository root, so every PR
//! accumulates a perf trajectory and CI can gate regressions.
//!
//! The matrix is **graph family** ([`scenario::Family`]: Barabási–Albert,
//! Erdős–Rényi, loaded edge lists) × **scale tier** ([`scenario::Tier`]:
//! `smoke` ~2k nodes, `standard` ~200k, `stress` ~2M) × **algorithm** (the
//! ten of the paper's Table 2 plus the motif and graph-size extensions).
//! Per scenario it records walk steps/sec (per-step and batched
//! `steps_into` paths, plus the line graph through the exact O(1) neighbor
//! sampler), API calls consumed, NRMSE against exact ground truth, wall
//! times (including serial vs parallel ground-truth counting), and a
//! counting-allocator peak-RSS proxy.
//!
//! Reports split into a deterministic `counters` section (bit-identical
//! across same-seed runs — tested) and a machine-dependent `measured`
//! section (gated by [`compare`] with a generous ratio threshold). Every
//! field of both is one row of [`report::METRICS`].
//!
//! Run it with `cargo run -p labelcount-perf -- --tier smoke`; compare with
//! `cargo run -p labelcount-perf -- compare --baseline . --current out/`.

#![warn(missing_docs)]
#![deny(unsafe_code)] // lifted only in alloc_track, the counting allocator

pub mod alloc_track;
pub mod compare;
pub mod json;
pub mod report;
pub mod scenario;

pub use compare::{compare_dirs, Comparison};
pub use report::{Report, SCHEMA_VERSION};
pub use scenario::{run_scenario, Family, ScenarioSpec, Tier, DEFAULT_SEED};
