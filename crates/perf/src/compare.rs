//! The perf-regression gate: compares freshly produced BENCH_*.json files
//! against the committed baselines.
//!
//! Only the machine-dependent `measured` section gates, each metric by the
//! [`Gate`] rule its [`METRICS`] row names. Before
//! thresholding, every timing metric is **normalized by the run's
//! calibration score** (`measured.calibration_ops_per_sec`, a fixed
//! pointer-chasing workload measured alongside each scenario): a uniformly
//! slower machine scores proportionally lower on the calibration too, so
//! the normalized ratios cancel and committed baselines transfer across
//! machine generations. After normalization, a throughput metric fails
//! when it drops below `baseline / max_regression`, a wall-time metric
//! when it exceeds `baseline * max_regression`, and the allocator
//! peak-bytes proxy (already machine-independent) fails on the same ratio
//! when both sides measured it. The threshold stays generous (CI default
//! 2.5×) — the gate exists to catch order-of-magnitude cliffs (an
//! accidentally quadratic hot path, a debug assert in a loop), not 10%
//! noise.
//!
//! Deterministic `counters` drift (different estimates, API-call counts,
//! step counts) is reported as a **warning**, not a failure: algorithmic
//! changes legitimately move counters, and the PR that moves them is
//! expected to regenerate the baselines it changes.

use std::path::Path;

use crate::json::Json;
use crate::report::{Gate, Report, ReportError, METRICS};

/// Outcome of comparing one metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Finding {
    /// Scenario name.
    pub scenario: String,
    /// Metric path, e.g. `measured.per_step_steps_per_sec`.
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Whether this finding fails the gate (false = warning only).
    pub fatal: bool,
    /// Human-readable explanation.
    pub message: String,
}

/// Result of a whole comparison run.
#[derive(Clone, Debug, Default)]
pub struct Comparison {
    /// All findings, fatal and warnings.
    pub findings: Vec<Finding>,
    /// Scenarios compared.
    pub compared: usize,
}

impl Comparison {
    /// Whether the gate passes.
    pub fn passed(&self) -> bool {
        !self.findings.iter().any(|f| f.fatal)
    }
}

/// The absolute floor below which a metric's value cannot support a ratio
/// verdict. A baseline of `0.0` (a sub-resolution `hit_path_ns` rounding
/// to zero, a scenario too small for the millisecond clock) or the
/// non-finite JSON sentinel (`-1.0`) turns any ratio into noise —
/// `current / 0` is infinite, and a 0.0004 ms → 0.002 ms "5x regression"
/// is timer jitter. Ratios are computed over floored values, and a
/// finding whose baseline or current sits below the floor is downgraded
/// to a warning.
fn metric_floor(metric: &str) -> f64 {
    if metric.ends_with("_ns") {
        // Sub-nanosecond per-call costs are below timer resolution.
        0.5
    } else if metric.ends_with("_ms") {
        // Sub-microsecond wall times are clock-quantization artifacts.
        1e-3
    } else {
        // Throughputs below 1 op/sec only occur as sentinels or division
        // blow-ups.
        1.0
    }
}

/// The machine-speed scale factor: multiplying the current run's
/// throughput by this (or dividing its wall times) expresses it in the
/// baseline machine's units. Falls back to 1 (raw comparison) when either
/// side lacks a positive calibration score.
fn machine_scale(baseline: &Report, current: &Report) -> f64 {
    let (b, c) = (
        baseline.num("measured.calibration_ops_per_sec"),
        current.num("measured.calibration_ops_per_sec"),
    );
    if b > 0.0 && c > 0.0 {
        b / c
    } else {
        1.0
    }
}

/// Compares one current report against its baseline: each `measured`
/// metric by its [`Gate`] rule in [`METRICS`], then the `counters`
/// section as a whole.
pub fn compare_reports(baseline: &Report, current: &Report, max_regression: f64) -> Vec<Finding> {
    assert!(max_regression >= 1.0, "threshold must be >= 1");
    let scale = machine_scale(baseline, current);
    // A collapsing speedup is a real scalability regression exactly when
    // the baseline is multi-core and the current runner has at least as
    // many cores; a laptop, a 1-core container, or a core-count downgrade
    // of the CI pool keeps the warning.
    let speedup_gateable =
        baseline.meta.threads > 1 && current.meta.threads >= baseline.meta.threads;
    let scenario = &current.meta.name;
    let mut findings = Vec::new();
    let mut report = |metric: String, base: f64, cur: f64, fatal: bool, message: String| {
        findings.push(Finding {
            scenario: scenario.clone(),
            metric,
            baseline: base,
            current: cur,
            fatal,
            message,
        })
    };

    for m in METRICS.iter().filter(|m| m.is_measured()) {
        let metric = m.path();
        let floor = metric_floor(&metric);
        match m.gate {
            Gate::Throughput | Gate::SerialTime => {
                let (base, cur) = (baseline.num(&metric), current.num(&metric));
                let throughput = m.gate == Gate::Throughput;
                let cur_scaled = if throughput { cur * scale } else { cur / scale };
                let degenerate = base < floor || cur_scaled < floor;
                let (ratio, what) = if throughput {
                    (base.max(floor) / cur_scaled.max(floor), "throughput")
                } else {
                    (cur_scaled.max(floor) / base.max(floor), "wall time")
                };
                if ratio > max_regression {
                    let message = if degenerate {
                        format!(
                            "{what} ratio {ratio:.2}x is degenerate (baseline or current below the {floor:.0e} floor) — warning only"
                        )
                    } else {
                        format!(
                            "{what} regressed {ratio:.2}x machine-normalized (scale {scale:.2}, limit {max_regression}x)"
                        )
                    };
                    report(metric, base, cur, !degenerate, message);
                }
            }
            Gate::CoreDependent => {
                let (bp, cp) = (baseline.num(&metric), current.num(&metric));
                let ratio = (cp / scale).max(floor) / bp.max(floor);
                if ratio > max_regression {
                    let message =
                        format!("regressed {ratio:.2}x (core-count dependent; informational)");
                    report(metric, bp, cp, false, message);
                }
            }
            Gate::Speedup => {
                let (bs, cs) = (baseline.num(&metric), current.num(&metric));
                if bs > 0.0 && cs > 0.0 && cs < bs / max_regression {
                    let ratio = bs / cs;
                    let message = if speedup_gateable {
                        format!(
                            "parallel speedup regressed {ratio:.2}x with {} baseline / {} current cores (limit {max_regression}x)",
                            baseline.meta.threads, current.meta.threads
                        )
                    } else {
                        format!("regressed {ratio:.2}x (core-count dependent; informational)")
                    };
                    report(metric, bs, cs, speedup_gateable, message);
                }
            }
            Gate::AllocPeak => {
                // Byte-denominated, hence machine-independent: no
                // normalization, but only gate when both runs measured it.
                let measured =
                    |r: &Report| r.get("measured.alloc.measured") == Some(&Json::Bool(true));
                let (ba, ca) = (baseline.num(&metric), current.num(&metric));
                if measured(baseline) && measured(current) && ba > 0.0 && ca / ba > max_regression {
                    let ratio = ca / ba;
                    let message =
                        format!("allocator peak regressed {ratio:.2}x (limit {max_regression}x)");
                    report(metric, ba, ca, true, message);
                }
            }
            Gate::Calibration | Gate::NotGated => {}
        }
    }

    // Counter drift: warn so reviewers notice baselines that need
    // regeneration, but do not fail the gate.
    if baseline.counters != current.counters {
        report(
            "counters".to_string(),
            f64::NAN,
            f64::NAN,
            false,
            "deterministic counters differ from baseline — regenerate BENCH_*.json in this PR if the algorithmic change is intentional".to_string(),
        );
    }
    findings
}

/// Loads `BENCH_*.json` from `dir`, keyed by scenario name.
pub fn load_reports(dir: &Path) -> Result<Vec<Report>, String> {
    let mut reports = Vec::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|f| f.to_str())
                .is_some_and(|f| f.starts_with("BENCH_") && f.ends_with(".json"))
        })
        .collect();
    paths.sort();
    for path in paths {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let report = Report::from_json_text(&text)
            .map_err(|e: ReportError| format!("{}: {e}", path.display()))?;
        reports.push(report);
    }
    Ok(reports)
}

/// Compares every scenario present in **both** directories. A scenario
/// present only in the baseline (removed) or only in the current run (new)
/// is a warning; comparing zero scenarios is fatal (the gate would be
/// vacuous).
pub fn compare_dirs(
    baseline_dir: &Path,
    current_dir: &Path,
    max_regression: f64,
) -> Result<Comparison, String> {
    compare_dirs_opts(baseline_dir, current_dir, max_regression, false)
}

/// [`compare_dirs`] with optional **family fallback**: a current scenario
/// with no same-name baseline is compared against a same-family baseline
/// of a different tier, with every finding downgraded to a warning — the
/// tiers measure different scales, so cross-tier ratios inform but must
/// not gate. This is how the nightly standard/stress runs compare against
/// the committed smoke baselines.
pub fn compare_dirs_opts(
    baseline_dir: &Path,
    current_dir: &Path,
    max_regression: f64,
    match_family: bool,
) -> Result<Comparison, String> {
    let baselines = load_reports(baseline_dir)?;
    let currents = load_reports(current_dir)?;
    let mut cmp = Comparison::default();

    for cur in &currents {
        match baselines.iter().find(|b| b.meta.name == cur.meta.name) {
            Some(base) => {
                cmp.compared += 1;
                cmp.findings
                    .extend(compare_reports(base, cur, max_regression));
            }
            None => match baselines
                .iter()
                .find(|b| match_family && b.meta.family == cur.meta.family)
            {
                Some(base) => {
                    cmp.compared += 1;
                    cmp.findings.push(Finding {
                        scenario: cur.meta.name.clone(),
                        metric: "presence".into(),
                        baseline: f64::NAN,
                        current: f64::NAN,
                        fatal: false,
                        message: format!(
                            "tier mismatch: comparing against same-family baseline `{}` — all findings downgraded to warnings",
                            base.meta.name
                        ),
                    });
                    cmp.findings.extend(
                        compare_reports(base, cur, max_regression)
                            .into_iter()
                            .map(|f| Finding { fatal: false, ..f }),
                    );
                }
                None => cmp.findings.push(Finding {
                    scenario: cur.meta.name.clone(),
                    metric: "presence".into(),
                    baseline: f64::NAN,
                    current: f64::NAN,
                    fatal: false,
                    message: "no committed baseline for this scenario — commit its BENCH_*.json"
                        .into(),
                }),
            },
        }
    }
    for base in &baselines {
        if !currents.iter().any(|c| c.meta.name == base.meta.name) {
            cmp.findings.push(Finding {
                scenario: base.meta.name.clone(),
                metric: "presence".into(),
                baseline: f64::NAN,
                current: f64::NAN,
                fatal: false,
                message: "baseline scenario missing from current run".into(),
            });
        }
    }
    if cmp.compared == 0 {
        return Err(format!(
            "no overlapping scenarios between {} and {}",
            baseline_dir.display(),
            current_dir.display()
        ));
    }
    Ok(cmp)
}

/// The multi-core **self-gate** on parallel speedup: every current report
/// produced on a multi-core runner (`scenario.threads > 1`) must show an
/// engine parallel speedup of at least `min_speedup`, or the finding is
/// fatal. Single-core runners (dev containers, laptops pinned to one
/// core) get an informational note instead — they *cannot* exhibit a
/// speedup, so gating them would only teach people to ignore the gate.
///
/// This is deliberately baseline-free: committed baselines regenerated on
/// a single-core machine record `threads = 1`, which keeps the
/// baseline-relative speedup comparison warn-only — but CI's multi-core
/// runners must still prove the parallel path scales *at all*. The
/// absolute floor closes that gap until a multi-core regeneration is
/// committed (promote the `bench-smoke-json` artifact of a CI run).
pub fn min_speedup_findings(current_dir: &Path, min_speedup: f64) -> Result<Vec<Finding>, String> {
    assert!(min_speedup >= 1.0, "speedup floor must be >= 1");
    let currents = load_reports(current_dir)?;
    let mut findings = Vec::new();
    for r in &currents {
        let speedup = r.num("measured.engine_parallel_speedup");
        if r.meta.threads <= 1 {
            findings.push(Finding {
                scenario: r.meta.name.clone(),
                metric: "measured.engine_parallel_speedup".into(),
                baseline: min_speedup,
                current: speedup,
                fatal: false,
                message: "single-core runner: speedup floor not applicable".into(),
            });
        } else if speedup < min_speedup {
            findings.push(Finding {
                scenario: r.meta.name.clone(),
                metric: "measured.engine_parallel_speedup".into(),
                baseline: min_speedup,
                current: speedup,
                fatal: true,
                message: format!(
                    "parallel speedup {speedup:.2}x below the {min_speedup:.2}x floor on a {}-core runner",
                    r.meta.threads
                ),
            });
        }
    }
    Ok(findings)
}

/// Renders a comparison as a GitHub-flavored markdown verdict table — the
/// payload the CI perf job appends to `$GITHUB_STEP_SUMMARY` so reviewers
/// see the gate's reasoning without opening the log.
pub fn markdown_summary(cmp: &Comparison, max_regression: f64) -> String {
    let mut out = String::new();
    out.push_str("## Perf regression gate\n\n");
    out.push_str(&format!(
        "**{}** — compared {} scenario(s) at threshold {max_regression}×\n\n",
        if cmp.passed() { "✅ PASS" } else { "❌ FAIL" },
        cmp.compared,
    ));
    if cmp.findings.is_empty() {
        out.push_str("No findings: every measured metric is within threshold and all deterministic counters match their baselines.\n");
        return out;
    }
    out.push_str("| verdict | scenario | metric | baseline | current | note |\n");
    out.push_str("|---|---|---|---:|---:|---|\n");
    for f in &cmp.findings {
        let fmt_num = |x: f64| {
            if x.is_nan() {
                "—".to_string()
            } else {
                format!("{x:.3e}")
            }
        };
        out.push_str(&format!(
            "| {} | {} | `{}` | {} | {} | {} |\n",
            if f.fatal { "❌ FAIL" } else { "⚠️ warn" },
            f.scenario,
            f.metric,
            fmt_num(f.baseline),
            fmt_num(f.current),
            f.message.replace('|', "\\|"),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc_track::AllocDelta;
    use crate::report::tests::sample_report;

    fn report(name: &str, per_step: f64, total_ms: f64) -> Report {
        let mut r = sample_report();
        r.meta.name = name.into();
        r.meta.threads = 1;
        r.measured = Report::measured_section(
            &[
                ("total_ms", total_ms),
                ("per_step_steps_per_sec", per_step),
                ("batched_steps_per_sec", per_step * 1.2),
                ("line_steps_per_sec", per_step / 2.0),
                ("gt_serial_ms", 1.0),
                ("gt_parallel_ms", 0.5),
                ("engine_serial_ms", total_ms / 10.0),
                ("engine_parallel_ms", total_ms / 30.0),
                ("engine_parallel_speedup", 3.0),
                ("hit_path_ns", total_ms / 10.0),
                ("workload_serial_ms", total_ms / 5.0),
                ("workload_parallel_ms", total_ms / 15.0),
                ("workload_queries_per_sec", 120_000.0 / total_ms),
                ("serving_serial_ms", total_ms / 4.0),
                ("serving_parallel_ms", total_ms / 12.0),
                ("scheduler_ms", total_ms / 6.0),
                ("page_fault_ns", total_ms / 20.0),
                ("calibration_ops_per_sec", 1.0e8),
            ],
            AllocDelta::default(),
        );
        r
    }

    /// Overwrites the number at `path` (`measured.total_ms`,
    /// `counters.paging.evictions`).
    fn set(r: &mut Report, path: &str, x: f64) {
        let tree = match path.split_once('.') {
            Some(("counters", rest)) => r.counters.at_mut(rest),
            Some(("measured", rest)) => r.measured.at_mut(rest),
            _ => None,
        };
        *tree.expect(path) = Json::Num(x);
    }

    fn set_alloc(r: &mut Report, peak_bytes: u64, measured: bool) {
        set(r, "measured.alloc.peak_bytes", peak_bytes as f64);
        *r.measured.at_mut("alloc.measured").unwrap() = Json::Bool(measured);
    }

    #[test]
    fn within_threshold_passes() {
        let base = report("ba_smoke", 1.0e6, 100.0);
        let cur = report("ba_smoke", 0.5e6, 200.0); // 2x, limit 2.5x
        let findings = compare_reports(&base, &cur, 2.5);
        assert!(findings.iter().all(|f| !f.fatal), "{findings:?}");
    }

    #[test]
    fn throughput_cliff_is_fatal() {
        let base = report("ba_smoke", 1.0e6, 100.0);
        let cur = report("ba_smoke", 0.3e6, 100.0); // 3.3x down
        let findings = compare_reports(&base, &cur, 2.5);
        assert!(findings
            .iter()
            .any(|f| f.fatal && f.metric.contains("per_step")));
    }

    #[test]
    fn walltime_cliff_is_fatal() {
        let base = report("ba_smoke", 1.0e6, 100.0);
        let cur = report("ba_smoke", 1.0e6, 300.0); // 3x slower
        let findings = compare_reports(&base, &cur, 2.5);
        assert!(findings
            .iter()
            .any(|f| f.fatal && f.metric == "measured.total_ms"));
    }

    #[test]
    fn uniformly_slower_machine_passes_via_calibration() {
        // Current machine is 4x slower across the board — calibration
        // included — so normalized metrics are identical and even a tight
        // threshold passes.
        let base = report("ba_smoke", 1.0e6, 100.0);
        let mut cur = report("ba_smoke", 0.25e6, 400.0);
        set(
            &mut cur,
            "measured.batched_steps_per_sec",
            base.num("measured.batched_steps_per_sec") / 4.0,
        );
        set(
            &mut cur,
            "measured.line_steps_per_sec",
            base.num("measured.line_steps_per_sec") / 4.0,
        );
        set(
            &mut cur,
            "measured.calibration_ops_per_sec",
            base.num("measured.calibration_ops_per_sec") / 4.0,
        );
        let findings = compare_reports(&base, &cur, 1.2);
        assert!(findings.iter().all(|f| !f.fatal), "{findings:?}");
    }

    #[test]
    fn algorithmic_cliff_still_fails_on_a_slower_machine() {
        // Machine is 2x slower, but per-step throughput fell 10x: the 5x
        // machine-normalized drop must trip the 2.5x gate.
        let base = report("ba_smoke", 1.0e6, 100.0);
        let mut cur = report("ba_smoke", 0.1e6, 200.0);
        set(
            &mut cur,
            "measured.batched_steps_per_sec",
            base.num("measured.batched_steps_per_sec") / 2.0,
        );
        set(
            &mut cur,
            "measured.line_steps_per_sec",
            base.num("measured.line_steps_per_sec") / 2.0,
        );
        set(
            &mut cur,
            "measured.calibration_ops_per_sec",
            base.num("measured.calibration_ops_per_sec") / 2.0,
        );
        let findings = compare_reports(&base, &cur, 2.5);
        assert!(
            findings
                .iter()
                .any(|f| f.fatal && f.metric.contains("per_step")),
            "{findings:?}"
        );
        assert!(!findings
            .iter()
            .any(|f| f.fatal && f.metric == "measured.total_ms"));
    }

    #[test]
    fn missing_calibration_falls_back_to_raw_comparison() {
        let mut base = report("ba_smoke", 1.0e6, 100.0);
        set(&mut base, "measured.calibration_ops_per_sec", 0.0);
        let cur = report("ba_smoke", 0.3e6, 100.0); // 3.3x down, raw
        let findings = compare_reports(&base, &cur, 2.5);
        assert!(findings.iter().any(|f| f.fatal));
    }

    #[test]
    fn alloc_peak_gates_only_when_measured_on_both_sides() {
        let mut base = report("ba_smoke", 1.0e6, 100.0);
        let mut cur = report("ba_smoke", 1.0e6, 100.0);
        set_alloc(&mut base, 1 << 20, true);
        set_alloc(&mut cur, 4 << 20, true); // 4x
        let findings = compare_reports(&base, &cur, 2.5);
        assert!(findings
            .iter()
            .any(|f| f.fatal && f.metric == "measured.alloc.peak_bytes"));

        // Same blow-up but unmeasured on one side: no gate.
        set_alloc(&mut cur, 4 << 20, false);
        let findings = compare_reports(&base, &cur, 2.5);
        assert!(findings.iter().all(|f| !f.fatal), "{findings:?}");
    }

    #[test]
    fn hit_path_cliff_is_fatal() {
        let base = report("ba_smoke", 1.0e6, 100.0);
        let mut cur = report("ba_smoke", 1.0e6, 100.0);
        set(
            &mut cur,
            "measured.hit_path_ns",
            base.num("measured.hit_path_ns") * 3.0,
        ); // 3x slower hits
        let findings = compare_reports(&base, &cur, 2.5);
        assert!(findings
            .iter()
            .any(|f| f.fatal && f.metric == "measured.hit_path_ns"));
    }

    #[test]
    fn page_fault_cliff_is_fatal_and_zero_is_exempt() {
        let base = report("loaded-paged_smoke", 1.0e6, 100.0);
        let mut cur = report("loaded-paged_smoke", 1.0e6, 100.0);
        set(
            &mut cur,
            "measured.page_fault_ns",
            base.num("measured.page_fault_ns") * 3.0,
        ); // 3x slower faults
        let findings = compare_reports(&base, &cur, 2.5);
        assert!(findings
            .iter()
            .any(|f| f.fatal && f.metric == "measured.page_fault_ns"));

        // In-RAM scenarios report 0.0 on both sides: below the _ns floor,
        // so no finding at all.
        let mut base = report("ba_smoke", 1.0e6, 100.0);
        let mut cur = report("ba_smoke", 1.0e6, 100.0);
        set(&mut base, "measured.page_fault_ns", 0.0);
        set(&mut cur, "measured.page_fault_ns", 0.0);
        let findings = compare_reports(&base, &cur, 2.5);
        assert!(
            !findings
                .iter()
                .any(|f| f.metric == "measured.page_fault_ns"),
            "{findings:?}"
        );
    }

    #[test]
    fn paging_counter_drift_warns_but_does_not_fail() {
        let base = report("loaded-paged_smoke", 1.0e6, 100.0);
        let mut cur = report("loaded-paged_smoke", 1.0e6, 100.0);
        set(
            &mut cur,
            "counters.paging.evictions",
            base.num("counters.paging.evictions") + 7.0,
        ); // e.g. a different frame budget
        let findings = compare_reports(&base, &cur, 2.5);
        assert_eq!(findings.len(), 1);
        assert!(!findings[0].fatal);
        assert_eq!(findings[0].metric, "counters");
    }

    #[test]
    fn invalidation_counter_drift_warns_but_does_not_fail() {
        let base = report("ba_smoke", 1.0e6, 100.0);
        let mut cur = report("ba_smoke", 1.0e6, 100.0);
        set(
            &mut cur,
            "counters.invalidation.l2_stale_evictions",
            base.num("counters.invalidation.l2_stale_evictions") + 5.0,
        ); // e.g. a different churn rate
        let findings = compare_reports(&base, &cur, 2.5);
        assert_eq!(findings.len(), 1);
        assert!(!findings[0].fatal);
        assert_eq!(findings[0].metric, "counters");
    }

    #[test]
    fn fault_counter_drift_warns_but_does_not_fail() {
        let base = report("ba_smoke", 1.0e6, 100.0);
        let mut cur = report("ba_smoke", 1.0e6, 100.0);
        set(
            &mut cur,
            "counters.faults.breaker_opens",
            base.num("counters.faults.breaker_opens") + 2.0,
        ); // e.g. a different burst level
        let findings = compare_reports(&base, &cur, 2.5);
        assert_eq!(findings.len(), 1);
        assert!(!findings[0].fatal);
        assert_eq!(findings[0].metric, "counters");
    }

    #[test]
    fn speedup_floor_gates_multicore_runners_only() {
        let tmp = std::env::temp_dir().join(format!("lcperf_floor_{}", std::process::id()));
        std::fs::create_dir_all(&tmp).unwrap();

        // Multi-core runner, collapsed speedup: fatal.
        let mut bad = report("ba_smoke", 1.0e6, 100.0);
        bad.meta.threads = 4;
        set(&mut bad, "measured.engine_parallel_speedup", 1.02);
        std::fs::write(tmp.join(bad.file_name()), bad.to_json().to_pretty()).unwrap();
        let findings = min_speedup_findings(&tmp, 1.2).unwrap();
        assert!(findings.iter().any(|f| f.fatal), "{findings:?}");

        // Same numbers on a single-core runner: informational only.
        let mut single = bad.clone();
        single.meta.threads = 1;
        std::fs::write(tmp.join(single.file_name()), single.to_json().to_pretty()).unwrap();
        let findings = min_speedup_findings(&tmp, 1.2).unwrap();
        assert!(findings.iter().all(|f| !f.fatal), "{findings:?}");

        // Healthy multi-core speedup: no fatal finding.
        let mut good = bad.clone();
        set(&mut good, "measured.engine_parallel_speedup", 2.8);
        std::fs::write(tmp.join(good.file_name()), good.to_json().to_pretty()).unwrap();
        let findings = min_speedup_findings(&tmp, 1.2).unwrap();
        assert!(findings.iter().all(|f| !f.fatal), "{findings:?}");
        std::fs::remove_dir_all(&tmp).unwrap();
    }

    #[test]
    fn serving_walltime_cliff_is_fatal() {
        let base = report("ba_smoke", 1.0e6, 100.0);
        let mut cur = report("ba_smoke", 1.0e6, 100.0);
        set(
            &mut cur,
            "measured.serving_serial_ms",
            base.num("measured.serving_serial_ms") * 3.0,
        );
        let findings = compare_reports(&base, &cur, 2.5);
        assert!(findings
            .iter()
            .any(|f| f.fatal && f.metric == "measured.serving_serial_ms"));
        // The parallel serving time is core-count dependent: warn only.
        set(
            &mut cur,
            "measured.serving_serial_ms",
            base.num("measured.serving_serial_ms"),
        );
        set(
            &mut cur,
            "measured.serving_parallel_ms",
            base.num("measured.serving_parallel_ms") * 4.0,
        );
        let findings = compare_reports(&base, &cur, 2.5);
        let f = findings
            .iter()
            .find(|f| f.metric == "measured.serving_parallel_ms")
            .expect("parallel serving slowdown must be reported");
        assert!(!f.fatal, "{f:?}");
    }

    #[test]
    fn scheduler_walltime_cliff_is_fatal_and_counter_drift_warns() {
        let base = report("ba_smoke", 1.0e6, 100.0);
        let mut cur = report("ba_smoke", 1.0e6, 100.0);
        set(
            &mut cur,
            "measured.scheduler_ms",
            base.num("measured.scheduler_ms") * 3.0,
        );
        let findings = compare_reports(&base, &cur, 2.5);
        assert!(findings
            .iter()
            .any(|f| f.fatal && f.metric == "measured.scheduler_ms"));
        // Scheduling-counter drift (e.g. a different deadline tightness)
        // warns like every other deterministic counter.
        set(
            &mut cur,
            "measured.scheduler_ms",
            base.num("measured.scheduler_ms"),
        );
        set(
            &mut cur,
            "counters.scheduling.cancellations",
            base.num("counters.scheduling.cancellations") + 1.0,
        );
        let findings = compare_reports(&base, &cur, 2.5);
        assert_eq!(findings.len(), 1);
        assert!(!findings[0].fatal);
        assert_eq!(findings[0].metric, "counters");
    }

    #[test]
    fn zero_baseline_walltime_warns_instead_of_gating() {
        // Regression: a baseline `hit_path_ns` of 0.0 (sub-resolution
        // timer rounding) made `current / baseline` infinite; the old
        // `base > 0` guard silently skipped the metric instead, hiding
        // real cliffs. Now the ratio is computed over floored values and
        // the degenerate comparison surfaces as a warning.
        let base0 = report("ba_smoke", 1.0e6, 100.0);
        let mut base = base0.clone();
        set(&mut base, "measured.hit_path_ns", 0.0);
        let mut cur = base0.clone();
        set(&mut cur, "measured.hit_path_ns", 50.0);
        let findings = compare_reports(&base, &cur, 2.5);
        let f = findings
            .iter()
            .find(|f| f.metric == "measured.hit_path_ns")
            .expect("degenerate comparison must still be reported");
        assert!(!f.fatal, "zero baseline must not gate: {f:?}");
        assert!(f.message.contains("degenerate"), "{f:?}");
        // No finding carries a non-finite ratio into the message.
        for f in &findings {
            assert!(
                !f.message.contains("inf") && !f.message.contains("NaN"),
                "{f:?}"
            );
        }
    }

    #[test]
    fn near_zero_baseline_jitter_is_not_a_regression() {
        // 0.0004 ms -> 0.002 ms is a 5x raw ratio made entirely of clock
        // quantization; flooring the baseline at 1e-3 ms shrinks it to 2x,
        // under the 2.5x threshold, so the gate stays silent.
        let base0 = report("ba_smoke", 1.0e6, 100.0);
        let mut base = base0.clone();
        set(&mut base, "measured.workload_serial_ms", 0.0004);
        let mut cur = base0.clone();
        set(&mut cur, "measured.workload_serial_ms", 0.002);
        set(&mut cur, "measured.total_ms", base.num("measured.total_ms"));
        let findings = compare_reports(&base, &cur, 2.5);
        assert!(
            !findings
                .iter()
                .any(|f| f.metric == "measured.workload_serial_ms"),
            "{findings:?}"
        );
    }

    #[test]
    fn sentinel_baselines_never_produce_fatal_ratio_findings() {
        // The JSON sentinel for non-finite measurements is -1.0; a
        // baseline holding it must never fail the gate with an inf/NaN
        // verdict.
        let base0 = report("ba_smoke", 1.0e6, 100.0);
        let mut base = base0.clone();
        set(&mut base, "measured.hit_path_ns", -1.0);
        set(&mut base, "measured.per_step_steps_per_sec", -1.0);
        let cur = base0.clone();
        let findings = compare_reports(&base, &cur, 2.5);
        for f in &findings {
            assert!(
                !f.fatal,
                "sentinel baseline produced a fatal verdict: {f:?}"
            );
        }
    }

    #[test]
    fn markdown_summary_renders_verdicts() {
        let base = report("ba_smoke", 1.0e6, 100.0);
        let cur = report("ba_smoke", 0.1e6, 100.0); // 10x throughput cliff
        let cmp = Comparison {
            findings: compare_reports(&base, &cur, 2.5),
            compared: 1,
        };
        let md = markdown_summary(&cmp, 2.5);
        assert!(md.contains("❌ FAIL"), "{md}");
        assert!(md.contains("| verdict | scenario |"), "{md}");
        assert!(md.contains("per_step_steps_per_sec"), "{md}");

        let clean = Comparison {
            findings: vec![],
            compared: 3,
        };
        let md = markdown_summary(&clean, 2.5);
        assert!(md.contains("✅ PASS"), "{md}");
        assert!(md.contains("No findings"), "{md}");
    }

    #[test]
    fn counter_drift_warns_but_does_not_fail() {
        let base = report("ba_smoke", 1.0e6, 100.0);
        let mut cur = report("ba_smoke", 1.0e6, 100.0);
        set(&mut cur, "counters.ground_truth_f", 8.0);
        let findings = compare_reports(&base, &cur, 2.5);
        assert_eq!(findings.len(), 1);
        assert!(!findings[0].fatal);
        assert_eq!(findings[0].metric, "counters");
    }

    #[test]
    fn dir_comparison_round_trips_files() {
        let tmp = std::env::temp_dir().join(format!("lcperf_cmp_{}", std::process::id()));
        let base_dir = tmp.join("base");
        let cur_dir = tmp.join("cur");
        std::fs::create_dir_all(&base_dir).unwrap();
        std::fs::create_dir_all(&cur_dir).unwrap();

        let base = report("ba_smoke", 1.0e6, 100.0);
        let cur = report("ba_smoke", 0.9e6, 110.0);
        std::fs::write(base_dir.join(base.file_name()), base.to_json().to_pretty()).unwrap();
        std::fs::write(cur_dir.join(cur.file_name()), cur.to_json().to_pretty()).unwrap();
        // A brand-new scenario without baseline: warning only.
        let extra = report("er_smoke", 2.0e6, 50.0);
        std::fs::write(cur_dir.join(extra.file_name()), extra.to_json().to_pretty()).unwrap();

        let cmp = compare_dirs(&base_dir, &cur_dir, 2.5).unwrap();
        assert_eq!(cmp.compared, 1);
        assert!(cmp.passed(), "{:?}", cmp.findings);
        assert!(cmp.findings.iter().any(|f| f.metric == "presence"));
        std::fs::remove_dir_all(&tmp).unwrap();
    }

    #[test]
    fn empty_overlap_is_an_error() {
        let tmp = std::env::temp_dir().join(format!("lcperf_cmp_empty_{}", std::process::id()));
        std::fs::create_dir_all(tmp.join("a")).unwrap();
        std::fs::create_dir_all(tmp.join("b")).unwrap();
        assert!(compare_dirs(&tmp.join("a"), &tmp.join("b"), 2.5).is_err());
        std::fs::remove_dir_all(&tmp).unwrap();
    }

    #[test]
    fn speedup_gates_fatally_only_when_both_sides_are_multicore() {
        let mut base = report("ba_smoke", 1.0e6, 100.0);
        let mut cur = report("ba_smoke", 1.0e6, 100.0);
        set(&mut cur, "measured.engine_parallel_speedup", 1.0); // 3x collapse vs base's 3.0

        // Single-core baseline (the committed dev-container case): warn.
        base.meta.threads = 1;
        cur.meta.threads = 8;
        let findings = compare_reports(&base, &cur, 2.5);
        let f = findings
            .iter()
            .find(|f| f.metric == "measured.engine_parallel_speedup")
            .expect("speedup collapse must be reported");
        assert!(!f.fatal, "1-core baseline must keep the warning: {f:?}");

        // Multi-core baseline, current runner at least as wide: gate.
        base.meta.threads = 8;
        let findings = compare_reports(&base, &cur, 2.5);
        let f = findings
            .iter()
            .find(|f| f.metric == "measured.engine_parallel_speedup")
            .unwrap();
        assert!(f.fatal, "multi-core speedup collapse must gate: {f:?}");

        // Core-count downgrade (8-core baseline, 2-core runner): the
        // collapse is explained by the hardware — warn, don't gate.
        cur.meta.threads = 2;
        let findings = compare_reports(&base, &cur, 2.5);
        let f = findings
            .iter()
            .find(|f| f.metric == "measured.engine_parallel_speedup")
            .unwrap();
        assert!(
            !f.fatal,
            "core-count downgrade must keep the warning: {f:?}"
        );
        cur.meta.threads = 8;

        // Within threshold: no finding at all.
        set(&mut cur, "measured.engine_parallel_speedup", 2.0);
        let findings = compare_reports(&base, &cur, 2.5);
        assert!(!findings
            .iter()
            .any(|f| f.metric == "measured.engine_parallel_speedup"));
    }

    #[test]
    fn family_fallback_downgrades_tier_mismatch_to_warnings() {
        let tmp = std::env::temp_dir().join(format!("lcperf_cmp_family_{}", std::process::id()));
        let base_dir = tmp.join("base");
        let cur_dir = tmp.join("cur");
        std::fs::create_dir_all(&base_dir).unwrap();
        std::fs::create_dir_all(&cur_dir).unwrap();

        let base = report("ba_smoke", 1.0e6, 100.0);
        std::fs::write(base_dir.join(base.file_name()), base.to_json().to_pretty()).unwrap();
        // A standard-tier run with a catastrophic slowdown: would gate
        // fatally against a same-tier baseline.
        let mut cur = report("ba_standard", 0.01e6, 10_000.0);
        cur.meta.tier = "standard".into();
        std::fs::write(cur_dir.join(cur.file_name()), cur.to_json().to_pretty()).unwrap();

        // Strict mode: no overlap at all -> error (the gate would be
        // vacuous).
        assert!(compare_dirs(&base_dir, &cur_dir, 2.5).is_err());

        // Family mode: compared via the smoke baseline, everything
        // downgraded to warnings, gate passes.
        let cmp = compare_dirs_opts(&base_dir, &cur_dir, 2.5, true).unwrap();
        assert_eq!(cmp.compared, 1);
        assert!(cmp.passed(), "{:?}", cmp.findings);
        assert!(cmp
            .findings
            .iter()
            .any(|f| f.metric == "presence" && f.message.contains("tier mismatch")));
        assert!(
            cmp.findings
                .iter()
                .any(|f| f.metric.starts_with("measured.") && !f.fatal),
            "the cross-tier regression must still be reported (as a warning): {:?}",
            cmp.findings
        );
        std::fs::remove_dir_all(&tmp).unwrap();
    }
}
