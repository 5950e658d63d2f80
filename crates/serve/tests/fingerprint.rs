//! Pinned report fingerprints: the `Debug` rendering of three fixed
//! reports, hashed with FNV-1a, must equal constants recorded when the
//! serving pipeline was last known good.
//!
//! The determinism suites compare runs *within* one build (shard counts,
//! worker counts, backends). This test compares a run against a number
//! fixed in the source, so a refactor of the runners that moves a single
//! bit of any estimate, counter, status or anytime answer fails here even
//! when every within-build comparison still agrees.
//!
//! The three reports:
//! * a contested [`ShardedService::run`] in which shed, quota-rejected
//!   and throttled requests all occur;
//! * a [`ShardedService::run_scheduled`] over an in-RAM, a paged and a
//!   churning graph in which every terminal status occurs;
//! * a hostile-fault single-graph workload run.

use labelcount_core::workload::{run_workload_on, Workload};
use labelcount_core::RunConfig;
use labelcount_graph::churn::ChurnConfig;
use labelcount_graph::gen::barabasi_albert;
use labelcount_graph::labels::{assign_binary_labels, with_labels};
use labelcount_graph::{EvictionPolicy, LabeledGraph, PagedCsrWriter, PoolConfig, TargetLabel};
use labelcount_osn::{
    CacheConfig, ChurnOsn, FaultConfig, GraphOsn, PagedGraphOsn, ResilienceConfig, RetryPolicy,
};
use labelcount_serve::{
    AdmissionConfig, GraphKey, QuotaPolicy, RateLimit, RateLimitPolicy, SchedulePolicy,
    ServiceReport, ServiceStatus, ServiceWorkload, ShardedService, TenantId,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// 64-bit FNV-1a: stable across platforms and toolchains, unlike
/// `DefaultHasher`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn fingerprint(report: &impl std::fmt::Debug) -> u64 {
    fnv1a(format!("{report:?}").as_bytes())
}

fn fixture(seed: u64) -> LabeledGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = barabasi_albert(200, 3, &mut rng);
    let mut labels = vec![Vec::new(); g.num_nodes()];
    assign_binary_labels(&mut labels, 0.4, &mut rng);
    with_labels(&g, &labels)
}

fn target() -> TargetLabel {
    TargetLabel::new(1.into(), 2.into())
}

fn cfg() -> RunConfig {
    RunConfig {
        burn_in: 20,
        thinning_frac: 0.0,
    }
}

/// Which terminal statuses a report contains, as
/// `[completed, shed, quota, throttled, deadline, unknown]`.
fn statuses(report: &ServiceReport) -> [bool; 6] {
    let mut seen = [false; 6];
    for o in &report.outcomes {
        let slot = match o.status {
            ServiceStatus::Completed(_) => 0,
            ServiceStatus::Shed { .. } => 1,
            ServiceStatus::QuotaExhausted { .. } => 2,
            ServiceStatus::Throttled { .. } => 3,
            ServiceStatus::DeadlineAnytime { .. } => 4,
            ServiceStatus::UnknownGraph => 5,
        };
        seen[slot] = true;
    }
    seen
}

#[test]
fn contested_run_fingerprint_is_pinned() {
    let g0 = fixture(1);
    let g1 = fixture(2);
    let gks = [GraphKey(0), GraphKey(1)];
    let mut svc = ShardedService::new(2, 11);
    svc.register(gks[0], &g0);
    svc.register(gks[1], &g1);
    let wl = ServiceWorkload::mixed_multi_tenant(30, &gks, 3, 0.4, target(), 40, 5, cfg())
        .builder()
        .faults(FaultConfig::hostile(5, 0.2), RetryPolicy::default())
        .admission(AdmissionConfig {
            queue_capacity: 4,
            drain_every: 3,
            shed_start: 0.4,
            ..AdmissionConfig::default()
        })
        .quotas(QuotaPolicy::unmetered().with_override(TenantId(1), 700))
        .rate_limits(RateLimitPolicy::unlimited().with_override(
            TenantId(2),
            RateLimit {
                capacity: 600,
                refill_interval_ticks: 0,
            },
        ))
        .build();
    let report = svc.run(wl, 2);
    let seen = statuses(&report);
    assert!(seen[0] && seen[1] && seen[2] && seen[3], "{seen:?}");
    assert_eq!(fingerprint(&report), 0xa1c5_774f_c84d_3db7, "{report:#?}");
}

#[test]
fn scheduled_run_fingerprint_is_pinned() {
    let g_ram = fixture(3);
    let g_paged = fixture(4);
    let g_churn = fixture(5);
    let path = std::env::temp_dir().join(format!(
        "labelcount_serve_fingerprint_{}.pcsr",
        std::process::id()
    ));
    PagedCsrWriter::new()
        .write(&g_paged, &path)
        .expect("write paged fixture");
    let gks = [GraphKey(0), GraphKey(1), GraphKey(2)];
    let mut svc = ShardedService::new(2, 13);
    svc.register(gks[0], &g_ram);
    svc.register_paged(
        gks[1],
        PagedGraphOsn::open(&path, PoolConfig::bounded(8, EvictionPolicy::Lru))
            .expect("open paged fixture"),
        CacheConfig::builder().capacity(256).build(),
    );
    svc.register_churn(
        gks[2],
        ChurnOsn::new(
            &g_churn,
            ChurnConfig {
                seed: 17,
                events_per_batch: 8,
                batch_interval_ticks: 25,
                region_shift: 2,
            },
        ),
        CacheConfig::builder()
            .capacity(128)
            .serve_stale(true)
            .build(),
    );
    let mut wl = ServiceWorkload::mixed_multi_tenant(36, &gks, 3, 0.4, target(), 40, 7, cfg())
        .builder()
        .faults(
            FaultConfig {
                base_latency_ticks: 1,
                latency_jitter_ticks: 3,
                ..FaultConfig::hostile(7, 0.1)
            },
            RetryPolicy::default(),
        )
        .resilience(ResilienceConfig {
            serve_stale: true,
            ..ResilienceConfig::default()
        })
        .admission(AdmissionConfig {
            queue_capacity: 4,
            shed_start: 0.5,
            service_ticks_per_item: 60,
            max_wait_ticks: Some(150),
            ..AdmissionConfig::default()
        })
        .quotas(QuotaPolicy::unmetered().with_override(TenantId(1), 900))
        .rate_limits(RateLimitPolicy::unlimited().with_override(
            TenantId(2),
            RateLimit {
                capacity: 700,
                refill_interval_ticks: 40,
            },
        ))
        .schedule(
            SchedulePolicy::default()
                .with_interarrival(12)
                .with_deadline(900)
                .with_priorities(0.2, 0.2)
                .with_replicates(2),
        )
        .build();
    wl.requests[5].graph = GraphKey(99);
    let report = svc.run_scheduled(wl, 2);
    drop(svc);
    let _ = std::fs::remove_file(&path);
    let seen = statuses(&report);
    assert!(seen.iter().all(|&s| s), "{seen:?}");
    assert_eq!(fingerprint(&report), 0x158f_4e93_5a95_1df2, "{report:#?}");
}

#[test]
fn hostile_workload_fingerprint_is_pinned() {
    let g = fixture(6);
    let wl = Workload::mixed(12, target(), 60, 9, cfg())
        .builder()
        .faults(FaultConfig::hostile(9, 0.35), RetryPolicy::default())
        .build();
    let report = run_workload_on(&GraphOsn::new(&g), &wl, 2);
    assert!(report.total_retry_charges() > 0);
    assert_eq!(fingerprint(&report), 0x401e_e8b0_4c92_7fb4, "{report:#?}");
}
