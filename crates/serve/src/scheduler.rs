//! Deadline-aware scheduled serving: the second executor of the serving
//! pipeline — a deterministic discrete-event loop over **virtual latency
//! ticks**, with cancellation, priorities, and anytime answers.
//!
//! [`ShardedService::run`] and [`ShardedService::run_scheduled`] share one
//! admission pass, one per-query access stack
//! ([`labelcount_core::Workload::run_query`]) and one report assembly
//! (see [`crate::service`]). They differ in exactly these points, so the
//! two runs do not return the same report for the same workload:
//!
//! * **arrival order** — `run` admits in a seeded shuffle of the
//!   requests; `run_scheduled` in `(arrival_tick, id)` order;
//! * **queue model** — `run` drains the modelled queues by arrival count
//!   ([`AdmissionState::decide`](crate::admission::AdmissionState::decide));
//!   `run_scheduled` by virtual time, with wait-based shedding
//!   ([`AdmissionState::decide_scheduled`](crate::admission::AdmissionState::decide_scheduled));
//! * **executor** — `run` hands each graph's admitted queries to a worker
//!   pool that runs every query once, to completion, with no deadline
//!   enforced; `run_scheduled` runs each graph's queries in one serial
//!   event loop as [`SchedulePolicy::replicates`] replicate slices and
//!   cancels a query whose deadline passes;
//! * **seed streams** — per-graph seeds derive from different stream
//!   ids, and `run` draws one fault seed per query where `run_scheduled`
//!   draws one per replicate slice.
//!
//! The event loop:
//!
//! * every request carries a [`Schedule`] — an `arrival_tick`, an optional
//!   relative deadline, and a [`Priority`] — stamped by a seeded
//!   [`SchedulePolicy`] through the workload builder;
//! * a virtual clock advances by exactly the latency ticks each execution
//!   slice bills ([`labelcount_osn::FetchCost`]), never by wall time;
//! * before each slice the session's **tick ceiling** is set to the
//!   remaining slack (`deadline − clock + 1`, saturating), so the
//!   estimator's existing step-boundary budget poll doubles as the
//!   cancellation yield point — no estimator changes, no preemption;
//! * when a deadline passes, the query is cancelled into an **anytime
//!   answer** ([`ServiceStatus::DeadlineAnytime`]): the running mean ± a
//!   95% CI over the replicates that finished, falling back to the graph's
//!   live partial estimate when none did.
//!
//! # Determinism
//!
//! The event order inside a graph loop is a pure function of `(workload
//! seed, the tasks, their tick costs)`; tick costs are pure hashes
//! ([`labelcount_osn::AdversarialOsn`]); graph loops share no state and
//! derive their seeds from the graph key alone. The [`ServiceReport`] —
//! statuses, anytime answers, and [`SchedulingCounters`] — is therefore
//! **bit-identical at any shard count and any worker count**; shards and
//! workers only decide which OS thread hosts which graph's loop.

use labelcount_core::{
    EstimateError, Priority, ProgressSnapshot, QueryOutcome, QuerySpec, Schedule, Workload,
    WorkloadProgress,
};
use labelcount_osn::{ChurnOsn, OsnBackend};
use labelcount_stats::{replication_seed, RunningStats};

use crate::admission::unit_hash;
use crate::service::{
    AnyEngine, ServiceProgress, ServiceReport, ServiceStatus, ServiceWorkload, ShardedService,
};

/// Stream ids for the scheduler's internal seed derivations.
mod stream {
    pub const GRAPH_FAULT: u64 = 0x5c1d_0001;
    pub const ARRIVAL_GAP: u64 = 0x5c1d_0002;
    pub const PRIORITY: u64 = 0x5c1d_0003;
}

/// A seeded policy that stamps a [`Schedule`] onto every request of a
/// [`ServiceWorkload`] and configures the scheduled run.
///
/// The default policy is the degenerate schedule: everything arrives at
/// tick 0, no deadlines, all-normal priority, four replicates per query.
#[derive(Clone, Debug, PartialEq)]
pub struct SchedulePolicy {
    /// Mean virtual-tick gap between consecutive arrivals (in id order).
    /// `0` makes every request arrive at tick 0; a positive mean draws
    /// each gap uniformly from `[1, 2·mean − 1]` under a seeded hash.
    pub mean_interarrival_ticks: u64,
    /// Relative deadline stamped on every request (`None` = no
    /// deadlines). `Some(0)` is the degenerate ask-only-what-you-know
    /// request: cancelled into an anytime answer the moment it arrives.
    pub deadline_ticks: Option<u64>,
    /// Fraction of requests stamped [`Priority::High`].
    pub high_frac: f64,
    /// Fraction of requests stamped [`Priority::Low`].
    pub low_frac: f64,
    /// Replicate slices an admitted query executes; its completed
    /// estimate is the mean over them, and a cancelled query's anytime
    /// answer is the running mean over those that finished.
    pub replicates: usize,
}

impl Default for SchedulePolicy {
    fn default() -> Self {
        SchedulePolicy {
            mean_interarrival_ticks: 0,
            deadline_ticks: None,
            high_frac: 0.0,
            low_frac: 0.0,
            replicates: 4,
        }
    }
}

impl SchedulePolicy {
    /// Sets the mean interarrival gap.
    #[must_use = "returns the modified policy"]
    pub fn with_interarrival(mut self, mean_ticks: u64) -> SchedulePolicy {
        self.mean_interarrival_ticks = mean_ticks;
        self
    }

    /// Stamps this relative deadline on every request.
    #[must_use = "returns the modified policy"]
    pub fn with_deadline(mut self, deadline_ticks: u64) -> SchedulePolicy {
        self.deadline_ticks = Some(deadline_ticks);
        self
    }

    /// Sets the priority mix: a seeded `high_frac` of requests run High,
    /// `low_frac` run Low, the rest Normal.
    #[must_use = "returns the modified policy"]
    pub fn with_priorities(mut self, high_frac: f64, low_frac: f64) -> SchedulePolicy {
        self.high_frac = high_frac;
        self.low_frac = low_frac;
        self
    }

    /// Sets the replicate-slice count per admitted query.
    #[must_use = "returns the modified policy"]
    pub fn with_replicates(mut self, replicates: usize) -> SchedulePolicy {
        self.replicates = replicates;
        self
    }

    fn validate(&self) {
        assert!(self.replicates >= 1, "replicates must be >= 1");
        assert!(
            (0.0..=1.0).contains(&self.high_frac)
                && (0.0..=1.0).contains(&self.low_frac)
                && self.high_frac + self.low_frac <= 1.0,
            "priority fractions must be in [0, 1] and sum to at most 1"
        );
    }

    /// Stamps every request's [`Schedule`] deterministically under the
    /// workload seed: arrival ticks accumulate seeded interarrival gaps in
    /// id order, priorities are a seeded per-request draw, and the
    /// deadline is uniform. Invoked by
    /// [`crate::ServiceWorkloadBuilder::schedule`].
    pub fn stamp(&self, workload: &mut ServiceWorkload) {
        self.validate();
        let gap_seed = replication_seed(workload.seed, stream::ARRIVAL_GAP);
        let prio_seed = replication_seed(workload.seed, stream::PRIORITY);
        let mut clock = 0u64;
        for req in &mut workload.requests {
            let id = req.query.id;
            if self.mean_interarrival_ticks > 0 {
                // Saturating: huge means clamp arrivals at `u64::MAX`,
                // like `Schedule::deadline_tick`.
                let span = self.mean_interarrival_ticks.saturating_mul(2) - 1;
                let gap = 1 + (unit_hash(gap_seed, id) * span as f64) as u64;
                clock = clock.saturating_add(gap);
            }
            let u = unit_hash(prio_seed, id);
            let priority = if u < self.high_frac {
                Priority::High
            } else if u >= 1.0 - self.low_frac {
                Priority::Low
            } else {
                Priority::Normal
            };
            req.query.schedule = Schedule {
                arrival_tick: clock,
                deadline_ticks: self.deadline_ticks,
                priority,
            };
        }
    }
}

/// Deterministic counters of one scheduled run, merged over every graph's
/// event loop in registration order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SchedulingCounters {
    /// Deadline-carrying queries that completed at or before their
    /// deadline.
    pub deadline_hits: u64,
    /// Queries cancelled into anytime answers when their deadline passed.
    pub cancellations: u64,
    /// Mean slack (deadline tick − completion tick) over the deadline
    /// hits; 0 when nothing hit.
    pub mean_slack_ticks: f64,
    /// Priority inversions: arrivals of higher-priority work that landed
    /// while a lower-priority slice held a graph's loop (non-preemptive
    /// scheduling makes them wait out the slice).
    pub priority_inversions: u64,
}

/// Per-loop counter accumulator (slack kept as a sum until the final
/// merge; 128-bit, so slacks near `u64::MAX` cannot overflow it).
#[derive(Clone, Copy, Debug, Default)]
struct LoopCounters {
    deadline_hits: u64,
    cancellations: u64,
    slack_sum: u128,
    priority_inversions: u64,
}

impl LoopCounters {
    fn absorb(&mut self, other: &LoopCounters) {
        self.deadline_hits += other.deadline_hits;
        self.cancellations += other.cancellations;
        self.slack_sum += other.slack_sum;
        self.priority_inversions += other.priority_inversions;
    }

    fn finish(self) -> SchedulingCounters {
        SchedulingCounters {
            deadline_hits: self.deadline_hits,
            cancellations: self.cancellations,
            mean_slack_ticks: if self.deadline_hits == 0 {
                0.0
            } else {
                self.slack_sum as f64 / self.deadline_hits as f64
            },
            priority_inversions: self.priority_inversions,
        }
    }
}

/// Live execution state of one admitted query inside a graph loop.
struct TaskState<'w> {
    spec: &'w QuerySpec,
    next_rep: u64,
    stats: RunningStats,
    last_err: Option<EstimateError>,
    /// Counters summed over the slices run so far (`None` before the
    /// first); its estimate is replaced when the query completes.
    total: Option<QueryOutcome>,
    /// `Completed` or `DeadlineAnytime`, once decided.
    finished: Option<ServiceStatus>,
}

impl TaskState<'_> {
    fn arrival(&self) -> u64 {
        self.spec.schedule.arrival_tick
    }

    fn deadline(&self) -> Option<u64> {
        self.spec.schedule.deadline_tick()
    }

    fn rank(&self) -> u8 {
        self.spec.schedule.priority.rank()
    }
}

/// Adds one replicate slice's counters to a query's running total (the
/// first slice starts it).
fn absorb(total: &mut Option<QueryOutcome>, slice: &QueryOutcome) {
    match total.as_mut() {
        None => *total = Some(slice.clone()),
        Some(t) => {
            t.logical_calls += slice.logical_calls;
            t.retry_charges += slice.retry_charges;
            t.backend_attempts += slice.backend_attempts;
            t.rate_limited += slice.rate_limited;
            t.transient_errors += slice.transient_errors;
            t.latency_ticks += slice.latency_ticks;
            t.budget_exhausted |= slice.budget_exhausted;
            t.bursts += slice.bursts;
            t.breaker_opens += slice.breaker_opens;
            t.stale_served += slice.stale_served;
        }
    }
}

/// Runs one graph's discrete-event loop over the admitted queries of
/// `workload` to completion. Strictly serial: the loop IS the graph's
/// single virtual timeline, which is what makes the per-graph progress
/// fallback (and everything else) deterministic. Returns each query's
/// status ([`ServiceStatus::Completed`] or
/// [`ServiceStatus::DeadlineAnytime`]) in id order, plus the loop's
/// counters.
///
/// Generic over the backend: the in-RAM `GraphOsn` and the out-of-core
/// `labelcount_osn::PagedGraphOsn` both serve identical bytes, so the
/// loop's virtual timeline — and every counter derived from it — is
/// backend-independent.
///
/// For dynamic graphs, `churn` hands the loop the churn schedule behind
/// `shared`: every iteration applies the batches due by the current
/// virtual tick *before* any slice reads the graph. The loop is the
/// graph's single serial timeline, so batches land at deterministic
/// points — between slices, never mid-slice — and the report stays
/// bit-identical at any shard or worker count.
fn run_graph_loop<B: OsnBackend>(
    shared: &B,
    churn: Option<&ChurnOsn>,
    workload: &Workload,
    replicates: u64,
    progress: &WorkloadProgress,
) -> (Vec<(u64, ServiceStatus)>, LoopCounters) {
    let mut tasks: Vec<TaskState<'_>> = workload
        .queries
        .iter()
        .map(|spec| TaskState {
            spec,
            next_rep: 0,
            stats: RunningStats::new(),
            last_err: None,
            total: None,
            finished: None,
        })
        .collect();
    let mut counters = LoopCounters::default();
    let mut clock = 0u64;

    loop {
        // Dynamic graphs: drain the churn schedule up to the current
        // virtual tick. A batch due exactly at a slice boundary is applied
        // before that slice reads a byte.
        if let Some(c) = churn {
            c.advance_to(clock);
        }

        // Cancellation sweep: any unfinished task whose absolute deadline
        // the clock has reached can no longer produce a timely answer —
        // convert it to an anytime answer NOW, at the deadline tick it
        // missed, before any further slice runs.
        for t in tasks.iter_mut().filter(|t| t.finished.is_none()) {
            if let Some(d) = t.deadline() {
                if clock >= d {
                    counters.cancellations += 1;
                    let own = ProgressSnapshot::from(t.stats);
                    let (anytime, ci) = if !own.is_empty() {
                        (Some(own.mean()), own.ci_halfwidth())
                    } else {
                        let graph = progress.partial_estimates();
                        ((!graph.is_empty()).then(|| graph.mean()), 0.0)
                    };
                    t.finished = Some(ServiceStatus::DeadlineAnytime {
                        completed_replicates: t.next_rep,
                        anytime,
                        ci_halfwidth: ci,
                        cancelled_at_tick: d,
                    });
                    progress.record(None);
                }
            }
        }

        // Pick the runnable task: arrived, unfinished, best
        // (priority rank, arrival tick, id) — FIFO within a class,
        // non-preemptive.
        let running = tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.finished.is_none() && t.arrival() <= clock)
            .min_by_key(|(_, t)| (t.rank(), t.arrival(), t.spec.id))
            .map(|(i, _)| i);
        let ti = match running {
            Some(ti) => ti,
            None => {
                // Idle: jump the clock to the next arrival, or stop when
                // every task is finished.
                match tasks
                    .iter()
                    .filter(|t| t.finished.is_none())
                    .map(|t| t.arrival())
                    .min()
                {
                    Some(next) => {
                        debug_assert!(next > clock, "unfinished arrival in the past");
                        clock = next;
                        continue;
                    }
                    None => break,
                }
            }
        };

        // One replicate slice through the query's own access stack, with
        // a fault stream per (graph, query, replicate). The stack's burst
        // process and breaker run on the loop's virtual clock, not each
        // slice's private tick 0: a burst raging at tick 10_000 must hit
        // the slice that runs there. The slice's tick allowance is
        // whatever remains until the deadline; the session's tick ceiling
        // turns the estimator's step-boundary budget poll into the
        // cancellation yield point. The sweep above guarantees
        // `clock < deadline` here.
        let (slice_ticks, ticks_cut) = {
            let t = &mut tasks[ti];
            // Allowance is slack + 1: `ticks_exceeded` is `>=`, and a
            // slice that bills *exactly* the remaining slack ends ON the
            // deadline — a hit with zero slack, not a miss. Only going
            // strictly past the deadline cuts the slice. Saturating: a
            // deadline at the end of time grants every remaining tick.
            let ceiling = t.deadline().map(|d| (d - clock).saturating_add(1));
            let run = workload.run_query(
                shared,
                t.spec,
                replication_seed(replication_seed(workload.seed, t.spec.id), t.next_rep),
                replication_seed(t.spec.seed, t.next_rep),
                clock,
                ceiling,
            );
            let mut slice = run.outcome;
            let ticks_cut = run.ticks_exceeded && slice.estimate.is_err();
            // The loop bills what the session billed, and counts a spent
            // call budget only against a slice that failed for it (not
            // one the deadline cut).
            slice.latency_ticks = run.session_latency_ticks;
            slice.budget_exhausted = run.calls_out && slice.estimate.is_err() && !ticks_cut;
            absorb(&mut t.total, &slice);
            match slice.estimate {
                Ok(e) => {
                    if e.is_finite() {
                        t.stats.push(e);
                    }
                    t.next_rep += 1;
                }
                Err(err) if !ticks_cut => {
                    // An ordinary failure (e.g. the call budget ran out):
                    // the replicate is spent, the query keeps its slot.
                    t.last_err = Some(err);
                    t.next_rep += 1;
                }
                Err(_) => {
                    // The deadline fired mid-slice; the sweep at the top
                    // of the next iteration converts the task, after the
                    // clock has advanced past its deadline below.
                }
            }
            (run.session_latency_ticks, ticks_cut)
        };

        // Advance virtual time by exactly what the slice billed, and
        // charge priority inversions: higher-priority arrivals that landed
        // while this (lower-priority) slice held the loop.
        let before = clock;
        clock = clock.saturating_add(slice_ticks);
        let running_rank = tasks[ti].rank();
        counters.priority_inversions += tasks
            .iter()
            .enumerate()
            .filter(|&(i, t)| {
                i != ti
                    && t.finished.is_none()
                    && t.rank() < running_rank
                    && t.arrival() > before
                    && t.arrival() <= clock
            })
            .count() as u64;

        // A deadline cut consumes the slice but can complete nothing; make
        // sure the clock reached the deadline so the sweep fires (the
        // ceiling guarantees the billed ticks already did).
        if ticks_cut {
            debug_assert!(
                tasks[ti].deadline().is_some_and(|d| clock >= d),
                "tick ceiling fired before the deadline"
            );
            continue;
        }

        // Completion check.
        let t = &mut tasks[ti];
        if t.finished.is_none() && t.next_rep >= replicates {
            if let Some(d) = t.deadline() {
                if clock <= d {
                    counters.deadline_hits += 1;
                    counters.slack_sum += u128::from(d - clock);
                }
            }
            let mut outcome = t.total.take().expect("a finished query ran a slice");
            outcome.estimate = if t.stats.count() > 0 {
                Ok(t.stats.mean())
            } else {
                Err(t
                    .last_err
                    .take()
                    .expect("a no-estimate query recorded an error"))
            };
            progress.record(outcome.estimate.as_ref().ok().copied());
            t.finished = Some(ServiceStatus::Completed(outcome));
        }
    }

    let statuses = tasks
        .into_iter()
        .map(|t| {
            let status = t.finished.expect("event loop finished every task");
            (t.spec.id, status)
        })
        .collect();
    (statuses, counters)
}

impl<'g> ShardedService<'g> {
    /// Runs a **deadline-aware scheduled** workload: virtual-time
    /// admission in `(arrival_tick, id)` order, then one serial
    /// discrete-event loop per graph (distributed over shard threads and
    /// up to `workers` threads per shard), then assembly in request-id
    /// order with [`SchedulingCounters`] attached.
    ///
    /// Requests carry their [`Schedule`]s; stamp them with
    /// [`crate::ServiceWorkloadBuilder::schedule`]. This is the scheduled
    /// executor of the shared serving pipeline; what it does differently
    /// from [`ShardedService::run`] is listed in the
    /// [module docs](self). The returned [`ServiceReport`] is
    /// bit-identical at any shard count and any worker count.
    pub fn run_scheduled(&self, workload: ServiceWorkload, workers: usize) -> ServiceReport {
        let progress = ServiceProgress::for_service(self);
        self.run_scheduled_observed(workload, workers, &progress)
    }

    /// [`ShardedService::run_scheduled`] with a caller-owned
    /// [`ServiceProgress`] that another thread can poll for live anytime
    /// estimates — the same estimates a cancelled query's
    /// [`ServiceStatus::DeadlineAnytime`] falls back to.
    pub fn run_scheduled_observed(
        &self,
        workload: ServiceWorkload,
        workers: usize,
        progress: &ServiceProgress,
    ) -> ServiceReport {
        let policy = workload.scheduling.clone().unwrap_or_default();
        policy.validate();
        let replicates = policy.replicates as u64;
        let order = workload.scheduled_arrival_order();
        let (pending, work) = self.admit(
            workload,
            progress,
            &order,
            stream::GRAPH_FAULT,
            |state, req, gi| {
                let q = &req.query;
                state.decide_scheduled(
                    req.id(),
                    req.tenant,
                    gi,
                    q.hard_budget,
                    q.schedule.arrival_tick,
                )
            },
        );
        let loops = self.fan_out(
            work,
            progress,
            workers.max(1),
            |gi, wl, progress| match &self.graphs[gi].2 {
                AnyEngine::Ram(e) => run_graph_loop(e.backend(), None, wl, replicates, progress),
                AnyEngine::Paged(e) => run_graph_loop(e.backend(), None, wl, replicates, progress),
                AnyEngine::Churn(e) => {
                    run_graph_loop(e.backend(), Some(e.backend()), wl, replicates, progress)
                }
            },
        );
        let mut merged = LoopCounters::default();
        let statuses = loops
            .into_iter()
            .map(|l| {
                l.map(|(statuses, counters)| {
                    merged.absorb(&counters);
                    statuses
                })
            })
            .collect();
        let mut report = self.assemble(pending, statuses);
        report.scheduling = Some(merged.finish());
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::GraphKey;
    use labelcount_core::RunConfig;
    use labelcount_graph::TargetLabel;

    fn stamped(policy: SchedulePolicy) -> ServiceWorkload {
        ServiceWorkload::mixed_multi_tenant(
            20,
            &[GraphKey(0), GraphKey(1)],
            2,
            0.3,
            TargetLabel::new(1.into(), 2.into()),
            40,
            7,
            RunConfig::default(),
        )
        .builder()
        .schedule(policy)
        .build()
    }

    #[test]
    fn stamp_is_deterministic_and_monotone_in_id_order() {
        let p = SchedulePolicy::default()
            .with_interarrival(10)
            .with_deadline(50)
            .with_priorities(0.3, 0.3);
        let a = stamped(p.clone());
        let b = stamped(p);
        let mut last = 0u64;
        for (x, y) in a.requests.iter().zip(&b.requests) {
            assert_eq!(x.query.schedule, y.query.schedule, "stamp not reproducible");
            assert!(
                x.query.schedule.arrival_tick > last || x.query.id == 0,
                "arrivals must be strictly increasing under a positive gap"
            );
            last = x.query.schedule.arrival_tick;
            assert_eq!(x.query.schedule.deadline_ticks, Some(50));
        }
    }

    #[test]
    fn zero_interarrival_floods_tick_zero_and_mix_covers_all_priorities() {
        let wl = stamped(SchedulePolicy::default().with_priorities(0.4, 0.4));
        let mut seen = [false; 3];
        for r in &wl.requests {
            assert_eq!(r.query.schedule.arrival_tick, 0);
            seen[r.query.schedule.priority.rank() as usize] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "a 40/20/40 mix over 20 requests should hit every class"
        );
    }

    #[test]
    fn huge_interarrival_clamps_arrivals_at_the_end_of_time() {
        // Regression: `2 · mean − 1` overflowed for means above
        // `u64::MAX / 2`, and the arrival clock could overflow too.
        let wl = stamped(SchedulePolicy::default().with_interarrival(u64::MAX / 2 + 1));
        let arrivals: Vec<u64> = wl
            .requests
            .iter()
            .map(|r| r.query.schedule.arrival_tick)
            .collect();
        assert!(arrivals[0] >= 1);
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]), "{arrivals:?}");
        assert_eq!(*arrivals.last().unwrap(), u64::MAX, "{arrivals:?}");
        // Below the overflow threshold nothing changes: a mean of 10
        // still draws every gap from [1, 19].
        let small = stamped(SchedulePolicy::default().with_interarrival(10));
        let mut last = 0;
        for r in &small.requests {
            let gap = r.query.schedule.arrival_tick - last;
            assert!((1..=19).contains(&gap), "gap {gap}");
            last = r.query.schedule.arrival_tick;
        }
    }

    #[test]
    fn invalid_policies_are_rejected() {
        for bad in [
            SchedulePolicy::default().with_replicates(0),
            SchedulePolicy::default().with_priorities(0.8, 0.8),
            SchedulePolicy::default().with_priorities(-0.1, 0.0),
        ] {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                bad.stamp(&mut stamped(SchedulePolicy::default()))
            }));
            assert!(caught.is_err(), "policy {bad:?} must be rejected");
        }
    }
}
