//! Integration suite for the observability layer: proves the metrics
//! export round-trips through `cmp_bench::json`, that a golden figure
//! rendered with obs fully enabled is byte-identical to the stock
//! golden fixture (the zero-perturbation contract), and that a small
//! chaos-injected, journaled sweep actually fires the counter
//! taxonomy end to end (L2 accesses, bus snoops, sweep quarantines,
//! journal appends).
//!
//! Every test enables the layer and none disables it, so the tests
//! can run concurrently: counters are monotonic and the assertions
//! are all "nonzero"/"present", never absolute.

use std::path::PathBuf;
use std::sync::Once;

use cmp_audit::{ChaosEvent, ChaosSchedule, ChaosSpec};
use cmp_bench::obs_report::{snapshot_from_json, snapshot_to_json};
use cmp_bench::{figures, Json, Lab, Resilience, ResultSource, WorkloadId};
use cmp_sim::{OrgKind, RunConfig};

fn goldens_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("goldens")
}

/// Silences the default panic hook for the panics this suite injects
/// on purpose (real failures still print).
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

/// Live counters/histograms/spans, snapshotted mid-flight, must
/// survive a serialize → render → parse → deserialize round trip
/// bit-exactly.
#[test]
fn live_snapshot_roundtrips_through_json_text() {
    cmp_obs::set_enabled(true);
    // Touch the taxonomy so the snapshot is non-trivial.
    let mut lab = Lab::with_threads(RunConfig::sized(200, 400, 3), 2);
    lab.prefetch(&[(WorkloadId::Multithreaded("barnes"), OrgKind::Shared)]).unwrap();
    let snap = cmp_obs::snapshot();
    assert!(!snap.counters.is_empty(), "a sweep must register counters");
    let json = snapshot_to_json(&snap);
    let text = format!("{json}\n");
    let back = snapshot_from_json(&Json::parse(text.trim_end()).unwrap()).unwrap();
    assert_eq!(back, snap);
}

/// The zero-perturbation contract, pinned end to end: one golden
/// figure simulated with the obs layer fully enabled (counters,
/// spans, logging all live) must serialize byte-for-byte identical to
/// the stock golden fixture produced without it.
#[test]
fn golden_figure_is_byte_identical_with_obs_enabled() {
    cmp_obs::set_enabled(true);
    let cfg = RunConfig::default();
    let mut lab = Lab::new(cfg);
    let (name, pairs, extract) =
        figures::series::catalog().into_iter().next().expect("catalog is never empty");
    lab.prefetch(&pairs).unwrap();
    let series = extract(&mut lab);
    let current = format!("{}\n", figures::series::golden_json(name, lab.config(), &series));
    let path = goldens_dir().join(format!("{name}.json"));
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert_eq!(current, golden, "obs-enabled run must not perturb {name}");
}

/// A chaos-injected, journaled sweep drives the whole taxonomy: the
/// acceptance counters must all be nonzero afterwards, and the phase
/// spans must have fired.
#[test]
fn chaos_journaled_sweep_fires_the_counter_taxonomy() {
    cmp_obs::set_enabled(true);
    quiet_injected_panics();
    // Large enough that oltp/Nurapid sees read-write-shared misses
    // (the in-situ communication path behind coherence.c_transitions);
    // tiny runs never encounter a dirty remote copy.
    let cfg = RunConfig::sized(200, 5000, 9);
    let journal =
        std::env::temp_dir().join(format!("cmp_obs_metrics_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&journal);
    let mut lab = Lab::with_journal(cfg, 2, &journal).unwrap();
    // Panic job 0: it is quarantined, so sweep.panics and
    // sweep.quarantined go nonzero while the other pairs complete.
    lab.set_resilience(Resilience {
        chaos: Some(ChaosSchedule::new(vec![ChaosSpec { job: 0, event: ChaosEvent::WorkerPanic }])),
        ..Resilience::default()
    });
    let capture = cmp_obs::Capture::install();
    lab.prefetch(&[
        (WorkloadId::Multithreaded("barnes"), OrgKind::Shared),
        (WorkloadId::Multithreaded("barnes"), OrgKind::Private),
        (WorkloadId::Multithreaded("oltp"), OrgKind::Nurapid),
    ])
    .unwrap();
    assert_eq!(lab.last_report().quarantined.len(), 1, "{}", lab.last_report().summary());
    assert!(capture.contains("sweep job quarantined"), "{:?}", capture.lines());
    drop(capture);
    let _ = std::fs::remove_file(&journal);

    let snap = cmp_obs::snapshot();
    for name in [
        "cache.l2.accesses",
        "cache.l2.hits",
        "bus.snoops",
        "coherence.c_transitions",
        "sim.runs",
        "sim.accesses",
        "sweep.quarantined",
        "sweep.panics",
        "journal.appends",
    ] {
        assert!(snap.counter(name).unwrap_or(0) > 0, "counter {name} never fired: {snap:?}");
    }
    for span in ["bench.prefetch", "sim.run"] {
        let s = snap.spans.iter().find(|s| s.name == span).unwrap_or_else(|| {
            panic!("span {span} never registered");
        });
        assert!(s.count > 0, "span {span} never closed");
    }
    assert!(
        snap.histograms.iter().any(|h| h.name == "bus.arbitration_wait" && h.count > 0),
        "bus arbitration histogram never sampled"
    );
}
