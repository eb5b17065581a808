//! Quarantine suite: a sweep with one seeded worker panic and one
//! deadline-cancelled stall must attempt each faulty job exactly once
//! and quarantine it with a replay line, keep every other pair
//! bit-identical to the fault-free answer, and still serve the
//! quarantined pairs on demand — at 2 and at 8 worker threads.

use std::sync::Once;
use std::time::Duration;

use cmp_audit::{ChaosEvent, ChaosSchedule};
use cmp_bench::shard::request_line;
use cmp_bench::{figures, Lab, Pair, Resilience, ResultSource};
use cmp_sim::RunConfig;

/// Stalls run far past the deadline, so only the watchdog ends them.
const STALL_MILLIS: u64 = 30_000;
/// Generous against an oversubscribed CI box: a tiny-config pair
/// simulates in well under a millisecond.
const DEADLINE: Duration = Duration::from_secs(1);

fn tiny_cfg() -> RunConfig {
    RunConfig::sized(200, 400, 23)
}

fn quiet_injected_panics() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .unwrap_or_default();
            if !msg.contains("injected worker panic") {
                prev(info);
            }
        }));
    });
}

fn quarantines_at(threads: usize) {
    quiet_injected_panics();
    let submitted = figures::pairs::fig6();
    let mut seen = std::collections::HashSet::new();
    let unique: Vec<Pair> = submitted.iter().copied().filter(|p| seen.insert(*p)).collect();

    // Fault-free reference.
    let mut reference = Lab::with_threads(tiny_cfg(), threads);
    reference.prefetch(&submitted).unwrap();
    assert!(reference.last_report().is_clean(), "{}", reference.last_report().summary());
    let want_figure = figures::fig6(&mut reference);

    // One seeded panic and one stall the deadline cuts short.
    let schedule = ChaosSchedule::seeded(0xBAD_5EED, unique.len(), 1, 1, STALL_MILLIS);
    let armed: Vec<Pair> = schedule.specs().iter().map(|s| unique[s.job]).collect();
    let panicker = schedule.specs().iter().find(|s| s.event == ChaosEvent::WorkerPanic);
    let panicker = unique[panicker.unwrap().job];
    let mut chaos = Lab::with_threads(tiny_cfg(), threads);
    chaos.set_resilience(Resilience { deadline: Some(DEADLINE), chaos: Some(schedule) });
    let capture = cmp_obs::Capture::install();
    chaos.prefetch(&submitted).unwrap();

    // Each faulty job ran once and was quarantined; nothing else was.
    let report = chaos.last_report().clone();
    assert_eq!(report.panicked, 1, "the panic was attempted once: {}", report.summary());
    assert_eq!(report.timed_out, 1, "the stall was attempted once: {}", report.summary());
    let quarantined: Vec<Pair> = report.quarantined.iter().map(|q| q.pair).collect();
    assert_eq!(quarantined.len(), 2, "{}", report.summary());
    assert!(armed.iter().all(|p| quarantined.contains(p)), "{quarantined:?} vs {armed:?}");
    assert_eq!(chaos.simulations(), unique.len() - 2, "quarantined jobs are not retried");
    let panicked = report.quarantined.iter().find(|q| q.pair == panicker).unwrap();
    assert!(panicked.error.to_string().contains("injected worker panic"), "{}", panicked.error);

    // Each quarantine carries the pair's serve request as its replay
    // line, and its warning names it.
    for q in &report.quarantined {
        let index = unique.iter().position(|p| *p == q.pair).unwrap();
        assert_eq!(q.replay, request_line(index, q.pair, &tiny_cfg()));
        assert!(
            capture.contains(&format!("replay={}", q.replay)),
            "warning must carry the replay line: {:?}",
            capture.lines()
        );
    }
    drop(capture);

    // Every other pair is bit-identical to the fault-free sweep.
    for &(w, k) in unique.iter().filter(|p| !quarantined.contains(p)) {
        assert!(chaos.peek((w, k)).is_some(), "{}/{} missing", w.name(), k.name());
        assert_eq!(chaos.peek((w, k)), reference.peek((w, k)), "{}/{}", w.name(), k.name());
    }

    // A quarantined pair re-runs on demand, bit-identically (no chaos
    // outside the batch path), so the figure still renders the same
    // bytes.
    for &(w, k) in &quarantined {
        let want = reference.result(w, k).clone();
        assert_eq!(chaos.try_result(w, k).unwrap(), &want, "{}/{} replay", w.name(), k.name());
    }
    assert_eq!(figures::fig6(&mut chaos), want_figure, "figure bytes diverged");
}

#[test]
fn faulty_jobs_quarantine_once_on_two_threads() {
    quarantines_at(2);
}

#[test]
fn faulty_jobs_quarantine_once_on_eight_threads() {
    quarantines_at(8);
}
