//! Seeded chaos schedules for the *lab* layer.
//!
//! [`FaultSpec`](crate::FaultSpec) corrupts state *inside* one
//! simulated machine; a [`ChaosSpec`] instead targets the fleet of
//! simulations a sweep engine fans out across worker threads. The
//! same design rules carry over from the single-run injector:
//!
//! * **deterministic** — a schedule is a pure function of its seed,
//!   so a chaos run reproduces exactly across machines and reruns;
//! * **quarantined, not retried** — a sweep engine runs each job
//!   once, so an armed job is quarantined on its only attempt and
//!   every other job must match the fault-free results bit for bit
//!   (what the chaos suite in `cmp-bench` proves);
//! * **isolated by construction** — the taxonomy covers the failure
//!   modes a supervised pool must contain (a worker panic unwinding
//!   mid-job, a job stalling past its deadline); the third lab-layer
//!   fault, a mid-sweep process kill, is simulated by truncating the
//!   checkpoint journal and needs no schedule entry.
//!
//! The schedule itself is plain data: the *application* of an event
//! (actually panicking, actually stalling) lives in the sweep engine,
//! which knows about cancellation tokens and worker threads.

use std::fmt;

use cmp_mem::Rng;

/// One class of lab-layer chaos event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChaosEvent {
    /// The worker thread panics mid-job (the job unwinds).
    WorkerPanic,
    /// The job stalls for up to `millis` wall-clock milliseconds
    /// (cooperatively cancellable, so a supervisor deadline cuts the
    /// stall short).
    JobStall {
        /// Stall duration ceiling in milliseconds.
        millis: u64,
    },
}

impl ChaosEvent {
    /// Compact stable token (mirrors [`crate::FaultKind::token`]).
    pub fn token(self) -> &'static str {
        match self {
            ChaosEvent::WorkerPanic => "panic",
            ChaosEvent::JobStall { .. } => "stall",
        }
    }
}

impl fmt::Display for ChaosEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosEvent::WorkerPanic => f.write_str("panic"),
            ChaosEvent::JobStall { millis } => write!(f, "stall({millis}ms)"),
        }
    }
}

/// A chaos event armed for one job of a sweep, displayed as
/// `event@job` (e.g. `panic@3`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ChaosSpec {
    /// Submission index of the targeted job within the sweep batch.
    pub job: usize,
    /// What happens to that job.
    pub event: ChaosEvent,
}

impl fmt::Display for ChaosSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.event, self.job)
    }
}

/// A deterministic schedule of [`ChaosSpec`]s over a sweep batch.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaosSchedule {
    specs: Vec<ChaosSpec>,
}

impl ChaosSchedule {
    /// Builds a schedule from explicit specs (tests that target one
    /// exact job).
    pub fn new(specs: Vec<ChaosSpec>) -> Self {
        ChaosSchedule { specs }
    }

    /// Seeds a schedule over a batch of `jobs`: `panics` distinct
    /// jobs get a [`ChaosEvent::WorkerPanic`], a further `stalls`
    /// distinct jobs a [`ChaosEvent::JobStall`] of `stall_millis`. Event counts are
    /// clamped to the batch size; equal seeds give equal schedules.
    pub fn seeded(seed: u64, jobs: usize, panics: usize, stalls: usize, stall_millis: u64) -> Self {
        let want = (panics + stalls).min(jobs);
        let mut rng = Rng::new(seed ^ 0xC4A0_5EED);
        let mut chosen: Vec<usize> = Vec::with_capacity(want);
        while chosen.len() < want {
            let job = rng.gen_range(jobs as u64) as usize;
            if !chosen.contains(&job) {
                chosen.push(job);
            }
        }
        let specs = chosen
            .into_iter()
            .enumerate()
            .map(|(i, job)| ChaosSpec {
                job,
                event: if i < panics.min(want) {
                    ChaosEvent::WorkerPanic
                } else {
                    ChaosEvent::JobStall { millis: stall_millis }
                },
            })
            .collect();
        ChaosSchedule { specs }
    }

    /// The event armed for `job`, if any.
    pub fn event(&self, job: usize) -> Option<ChaosEvent> {
        self.specs.iter().find(|s| s.job == job).map(|s| s.event)
    }

    /// Every armed spec, in arming order.
    pub fn specs(&self) -> &[ChaosSpec] {
        &self.specs
    }

    /// Number of armed events.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the schedule arms no events at all.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_schedules_are_deterministic_and_distinct_per_job() {
        let a = ChaosSchedule::seeded(42, 20, 3, 2, 500);
        let b = ChaosSchedule::seeded(42, 20, 3, 2, 500);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        let jobs: std::collections::HashSet<_> = a.specs().iter().map(|s| s.job).collect();
        assert_eq!(jobs.len(), 5, "each event targets a distinct job");
        assert!(a.specs().iter().all(|s| s.job < 20));
        assert_eq!(a.specs().iter().filter(|s| s.event == ChaosEvent::WorkerPanic).count(), 3);
    }

    #[test]
    fn event_counts_clamp_to_the_batch() {
        let s = ChaosSchedule::seeded(7, 2, 5, 5, 100);
        assert_eq!(s.len(), 2);
        let none = ChaosSchedule::seeded(7, 0, 5, 5, 100);
        assert!(none.is_empty());
    }

    #[test]
    fn lookup_matches_job() {
        let spec = ChaosSpec { job: 3, event: ChaosEvent::WorkerPanic };
        let s = ChaosSchedule::new(vec![spec]);
        assert_eq!(s.event(3), Some(ChaosEvent::WorkerPanic));
        assert_eq!(s.event(2), None);
    }

    #[test]
    fn display_formats() {
        let spec = ChaosSpec { job: 3, event: ChaosEvent::WorkerPanic };
        assert_eq!(spec.to_string(), "panic@3");
        let spec = ChaosSpec { job: 1, event: ChaosEvent::JobStall { millis: 250 } };
        assert_eq!(spec.to_string(), "stall(250ms)@1");
        assert_eq!(ChaosEvent::WorkerPanic.token(), "panic");
        assert_eq!(ChaosEvent::JobStall { millis: 1 }.token(), "stall");
    }
}
