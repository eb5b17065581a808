//! The sweep engine: deadlines, first-failure quarantine, and chaos
//! injection on top of [`crate::pool`].
//!
//! A sweep is a batch of `(workload, organization)` pairs, each a
//! *pure* function of `(pair, config)`. Purity is what makes the
//! failure policy simple: a job that panics would panic again on a
//! re-run, so a job that panics or overruns its deadline is
//! *quarantined* on its first attempt. The sweep completes with
//! partial results and a [`SweepReport`] naming each quarantined pair
//! together with a one-line replay artifact — the pair's serve `run`
//! request ([`crate::shard::request_line`]), which reproduces the
//! failure when piped into `cmp-serve`. Re-execution is kept only
//! where a second run can differ: the shard supervisor's watchdog and
//! SIGKILL restarts ([`crate::shard`]).
//!
//! Chaos testing reuses `cmp-audit`'s seeded-schedule discipline at
//! the lab layer: a [`ChaosSchedule`] arms worker panics and
//! cooperative stalls against specific jobs, and the suites in
//! `tests/` prove every armed job is quarantined exactly once while
//! every other pair stays bit-identical to a fault-free sweep.

use std::time::{Duration, Instant};

use cmp_audit::{ChaosEvent, ChaosSchedule};
use cmp_sim::{RunConfig, SimError};

use crate::lab::{simulate_pair, BatchSlot, Pair};
use crate::pool::{self, CancelToken, JobError};

/// Deadline/chaos policy for a sweep.
#[derive(Clone, Debug, Default)]
pub struct Resilience {
    /// Per-job wall-clock deadline enforced by the pool's watchdog;
    /// `None` disables the watchdog entirely (the fault-free default:
    /// a legitimate paper-scale simulation has no natural bound).
    pub deadline: Option<Duration>,
    /// Chaos schedule keyed by the job's index within the
    /// deduplicated miss batch. `None` in production.
    pub chaos: Option<ChaosSchedule>,
}

/// A job that failed its only attempt.
#[derive(Clone, Debug)]
pub struct Quarantined {
    /// The pair that failed.
    pub pair: Pair,
    /// Why its attempt failed.
    pub error: JobError,
    /// The pair's serve `run` request line; piping it into
    /// `cmp-serve` re-runs exactly this simulation.
    pub replay: String,
}

/// What a sweep survived: failure accounting plus the quarantine
/// list. `SweepReport::default()` is the clean report.
#[derive(Clone, Debug, Default)]
pub struct SweepReport {
    /// Jobs that ended in a captured panic.
    pub panicked: usize,
    /// Jobs cancelled by the per-job deadline.
    pub timed_out: usize,
    /// Results computed but undeliverable (receiver gone) — see
    /// [`crate::pool::BatchOutcome::orphaned`].
    pub orphaned: usize,
    /// Jobs quarantined on their first failure, in submission order.
    pub quarantined: Vec<Quarantined>,
}

impl SweepReport {
    /// Whether every job delivered a result with no faults observed.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty()
            && self.orphaned == 0
            && self.panicked == 0
            && self.timed_out == 0
    }

    /// The first quarantined job as a [`SimError`], for callers that
    /// need an all-or-nothing sweep.
    pub fn first_failure(&self) -> Option<SimError> {
        self.quarantined.first().map(|q| SimError::JobFailed {
            pair: format!("{}/{}", q.pair.0.name(), q.pair.1.name()),
            cause: q.error.to_string(),
        })
    }

    /// One-line human summary (binaries print this under their
    /// reports).
    pub fn summary(&self) -> String {
        format!(
            "{} panic(s), {} timeout(s), {} orphan(s), {} quarantined",
            self.panicked,
            self.timed_out,
            self.orphaned,
            self.quarantined.len(),
        )
    }
}

/// Runs every miss once through the supervised pool. Slots come back
/// aligned with `misses` (submission order), a fresh result carrying
/// its worker wall-clock milliseconds; a failed job is quarantined
/// (also named in the report) and the batch is never aborted.
pub(crate) fn run_pairs(
    misses: &[Pair],
    cfg: &RunConfig,
    threads: usize,
    resilience: &Resilience,
) -> (Vec<BatchSlot>, SweepReport) {
    let jobs: Vec<_> = misses
        .iter()
        .enumerate()
        .map(|(index, &pair)| {
            let cfg = *cfg;
            let chaos = resilience.chaos.clone();
            move |token: &CancelToken| {
                if let Some(plan) = &chaos {
                    apply_chaos(plan, index, token);
                }
                let t0 = Instant::now();
                let result = simulate_pair(pair, &cfg);
                (result, t0.elapsed().as_secs_f64() * 1e3)
            }
        })
        .collect();
    let outcome = pool::run_jobs_supervised(jobs, threads, resilience.deadline);
    let mut report = SweepReport { orphaned: outcome.orphaned.len(), ..SweepReport::default() };
    let mut slots = Vec::with_capacity(misses.len());
    for (index, job_result) in outcome.results.into_iter().enumerate() {
        match job_result {
            Ok((Ok(result), millis)) => {
                slots.push(BatchSlot::Done { result: Box::new(result), millis: Some(millis) })
            }
            Ok((Err(e), _)) => slots.push(BatchSlot::Failed(e)),
            Err(error) => {
                match error {
                    JobError::Panicked(_) => report.panicked += 1,
                    JobError::TimedOut => report.timed_out += 1,
                    JobError::Cancelled => {}
                }
                let pair = misses[index];
                let replay = crate::shard::request_line(index, pair, cfg);
                slots.push(BatchSlot::Quarantined(error.clone()));
                report.quarantined.push(Quarantined { pair, error, replay });
            }
        }
    }
    record_sweep(&report);
    (slots, report)
}

/// Folds one finished sweep's accounting into the metrics registry
/// and warns (capture-ably) about each quarantined pair with its
/// replay line. Called once per sweep, so the per-job hot path carries
/// no instrumentation.
fn record_sweep(report: &SweepReport) {
    static PANICS: cmp_obs::Counter = cmp_obs::Counter::new("sweep.panics");
    static TIMEOUTS: cmp_obs::Counter = cmp_obs::Counter::new("sweep.timeouts");
    static ORPHANS: cmp_obs::Counter = cmp_obs::Counter::new("sweep.orphans");
    static QUARANTINED: cmp_obs::Counter = cmp_obs::Counter::new("sweep.quarantined");
    PANICS.add(report.panicked as u64);
    TIMEOUTS.add(report.timed_out as u64);
    ORPHANS.add(report.orphaned as u64);
    QUARANTINED.add(report.quarantined.len() as u64);
    for q in &report.quarantined {
        let pair = format!("{}/{}", q.pair.0.name(), q.pair.1.name());
        let cause = q.error.to_string();
        cmp_obs::warn!(
            "sweep job quarantined",
            pair = pair,
            cause = cause,
            replay = q.replay.as_str()
        );
    }
}

/// Applies the chaos event (if any) armed for `job`: a panic unwinds
/// right here on the worker; a stall busy-waits with the cancellation
/// token polled, so a supervisor deadline cuts it short and the
/// timeout machinery is exercised deterministically.
fn apply_chaos(plan: &ChaosSchedule, job: usize, token: &CancelToken) {
    match plan.event(job) {
        Some(ChaosEvent::WorkerPanic) => panic!("chaos: injected worker panic (job {job})"),
        Some(ChaosEvent::JobStall { millis }) => {
            let until = Instant::now() + Duration::from_millis(millis);
            while Instant::now() < until && !token.is_cancelled() {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        None => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lab::WorkloadId;
    use cmp_audit::ChaosSpec;
    use cmp_sim::OrgKind;

    fn tiny_cfg() -> RunConfig {
        RunConfig::sized(100, 200, 5)
    }

    fn misses() -> Vec<Pair> {
        vec![
            (WorkloadId::Multithreaded("barnes"), OrgKind::Shared),
            (WorkloadId::Multithreaded("barnes"), OrgKind::Private),
            (WorkloadId::Mix("MIX1"), OrgKind::Shared),
        ]
    }

    #[test]
    fn fault_free_sweep_is_clean_and_complete() {
        let (slots, report) = run_pairs(&misses(), &tiny_cfg(), 2, &Resilience::default());
        assert!(report.is_clean(), "{}", report.summary());
        assert!(slots.iter().all(|s| matches!(s, BatchSlot::Done { millis: Some(_), .. })));
    }

    #[test]
    fn sim_errors_pass_through_as_answers() {
        let batch = vec![(WorkloadId::Multithreaded("tpch"), OrgKind::Shared)];
        let (slots, report) = run_pairs(&batch, &tiny_cfg(), 2, &Resilience::default());
        assert!(report.is_clean(), "a SimError is an answer, not a fault");
        match &slots[0] {
            BatchSlot::Failed(SimError::UnknownWorkload(name)) => assert_eq!(name, "tpch"),
            other => panic!("unexpected slot {other:?}"),
        }
    }

    #[test]
    fn first_failure_quarantines_with_a_replay_line() {
        crate::pool::quiet_injected_panics();
        let resilience = Resilience {
            chaos: Some(ChaosSchedule::new(vec![ChaosSpec {
                job: 1,
                event: cmp_audit::ChaosEvent::WorkerPanic,
            }])),
            ..Resilience::default()
        };
        let batch = misses();
        let capture = cmp_obs::Capture::install();
        let (slots, report) = run_pairs(&batch, &tiny_cfg(), 2, &resilience);
        assert!(matches!(slots[0], BatchSlot::Done { .. }));
        assert!(
            matches!(slots[1], BatchSlot::Quarantined(JobError::Panicked(_))),
            "job 1 must be quarantined"
        );
        assert!(matches!(slots[2], BatchSlot::Done { .. }));
        assert_eq!(report.panicked, 1, "one attempt, no retry");
        assert_eq!(report.quarantined.len(), 1);
        let q = &report.quarantined[0];
        assert_eq!(q.pair, batch[1]);
        assert_eq!(q.replay, crate::shard::request_line(1, batch[1], &tiny_cfg()));
        assert!(capture.contains("sweep job quarantined"), "{:?}", capture.lines());
        assert!(capture.contains(&format!("replay={}", q.replay)), "{:?}", capture.lines());
        let err = report.first_failure().unwrap();
        assert!(matches!(err, SimError::JobFailed { .. }), "{err}");
        assert!(err.to_string().contains("barnes/private"), "{err}");
    }

    #[test]
    fn report_summary_reads() {
        let report = SweepReport { panicked: 1, ..Default::default() };
        assert_eq!(report.summary(), "1 panic(s), 0 timeout(s), 0 orphan(s), 0 quarantined");
    }
}
