//! The memory-hierarchy hot path: per-logical-call cost of the cached OSN
//! access layer, level by level.
//!
//! The session-L1 hit path (`hit_path/l1_hit`) should be at least 2×
//! faster than the shared-L2 hit path (`hit_path/l2_hit`): the cache
//! absorbs ~97% of logical calls, so the hit cost *is* the cost of a
//! logical call. Every benchmark touches the same probe set in the same
//! order, so the only variable is which layer serves the hit:
//!
//! * `uncached_direct` — `SimulatedOsn` borrowing straight from the CSR
//!   arrays (the floor: one bounds check and a `Cell` bump);
//! * `l2_hit` — a session with the L1 disabled: shard hash, `RwLock`
//!   read-lock, index probe, `Arc` clone + drop per call;
//! * `l1_hit` — the default session: direct-mapped probe and a non-atomic
//!   `Rc` clone + drop per call, no lock, no atomics;
//! * `cold_miss_fill` — the miss path (backend fetch + both fills),
//!   measured per *distinct* node over a fresh cache each iteration.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use labelcount_bench::fixtures;
use labelcount_graph::NodeId;
use labelcount_osn::{CacheConfig, CachedOsn, GraphOsn, OsnApi, SimulatedOsn};
use std::hint::black_box;

/// Upper bound on the probe set (clamped to half the fixture's nodes so
/// every probe id is a real, distinct node).
const MAX_PROBE_NODES: u32 = 256;
/// Lookups per measured iteration: PROBE_ROUNDS passes over the probe set.
const PROBE_ROUNDS: usize = 200;

fn probe_loop(api: &dyn OsnApi, probe_nodes: u32) -> usize {
    let mut acc = 0usize;
    for _ in 0..PROBE_ROUNDS {
        for u in 0..probe_nodes {
            acc += api.neighbors(NodeId(u)).len();
        }
    }
    acc
}

fn bench_hit_path(c: &mut Criterion) {
    let d = fixtures::facebook_like();
    let g = &d.graph;
    let probe_nodes = (g.num_nodes() as u32 / 2).clamp(1, MAX_PROBE_NODES);

    let mut group = c.benchmark_group("cache/hit_path");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(3));

    group.bench_function("uncached_direct", |b| {
        let osn = SimulatedOsn::new(g);
        b.iter(|| black_box(probe_loop(&osn, probe_nodes)))
    });

    group.bench_function("l2_hit", |b| {
        // L1 disabled: every repeat lookup takes the shared path (read
        // lock + index probe + atomic Arc refcount round trip).
        let cache =
            CachedOsn::with_config(GraphOsn::new(g), CacheConfig::builder().l1_slots(0).build());
        let session = cache.session();
        probe_loop(&session, probe_nodes); // warm the L2
        b.iter(|| black_box(probe_loop(&session, probe_nodes)))
    });

    group.bench_function("l1_hit", |b| {
        // Default session: repeats resolve in the private direct-mapped
        // L1 with plain (non-atomic) refcounting.
        let cache = CachedOsn::new(GraphOsn::new(g));
        let session = cache.session();
        probe_loop(&session, probe_nodes); // warm both layers
        b.iter(|| black_box(probe_loop(&session, probe_nodes)))
    });

    group.finish();

    let mut group = c.benchmark_group("cache/miss_path");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));
    group.bench_function("cold_miss_fill", |b| {
        // One pass over the probe set against a cold cache: backend fetch
        // + L2 insert + L1 fill per node. Cache construction is setup,
        // not measurement.
        b.iter_batched(
            || CachedOsn::new(GraphOsn::new(g)),
            |cache| {
                let session = cache.session();
                let mut acc = 0usize;
                for u in 0..probe_nodes {
                    acc += session.neighbors(NodeId(u)).len();
                }
                black_box(acc)
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_hit_path);
criterion_main!(benches);
