//! Behavioural tests of the approximate (confidence-stopped) run
//! mode: determinism, budget discipline, and exactness of the
//! fall-through path.
//!
//! Early stopping is a pure function of simulation counters — batch
//! boundaries come from access counts and the stopping check from
//! closed-form arithmetic — so two same-seed approximate runs must
//! stop at the identical access count and agree on every counter,
//! the same bit-exact contract the determinism suite holds over the
//! exact mode.

use cmp_sim::{
    run_workload_mono, try_multithreaded_workload, OrgKind, RunConfig, RunResult, StopMetric,
    StopRule,
};

fn run_mt(workload: &str, kind: OrgKind, cfg: &RunConfig) -> RunResult {
    run_workload_mono(try_multithreaded_workload(workload, cfg.seed).unwrap(), kind, cfg)
}

fn approx_rule() -> StopRule {
    StopRule::Confidence { metric: StopMetric::MissRate, rel_half_width: 0.05, confidence: 0.95 }
}

/// A budget large enough for the CI check to fire well before the
/// fixed budget runs out on a stationary synthetic workload.
fn big_cfg() -> RunConfig {
    RunConfig::sized(20_000, 400_000, 0x15CA)
}

#[test]
fn same_seed_approx_runs_stop_at_identical_access_count() {
    let cfg = big_cfg().with_stop(approx_rule());
    let a = run_mt("oltp", OrgKind::Nurapid, &cfg);
    let b = run_mt("oltp", OrgKind::Nurapid, &cfg);
    assert_eq!(a.accesses, b.accesses, "same seed, same stopping point");
    assert_eq!(a, b, "approx runs are bit-deterministic");
}

#[test]
fn approx_stops_early_and_never_exceeds_the_fixed_budget() {
    let exact = run_mt("oltp", OrgKind::Shared, &big_cfg());
    let approx = run_mt("oltp", OrgKind::Shared, &big_cfg().with_stop(approx_rule()));
    assert!(
        approx.accesses < exact.accesses,
        "a stationary workload must trip the CI check before the full \
         budget: approx measured {} of {} accesses",
        approx.accesses,
        exact.accesses
    );
    // And the cap: a very tight interval cannot overrun the budget.
    let tight = StopRule::Confidence {
        metric: StopMetric::MissRate,
        rel_half_width: 1e-9,
        confidence: 0.999,
    };
    let capped = run_mt("oltp", OrgKind::Shared, &big_cfg().with_stop(tight));
    assert!(
        capped.accesses <= exact.accesses,
        "confidence stopping never costs more than the exact run"
    );
}

#[test]
fn explicit_fixed_rule_is_the_exact_path_bit_for_bit() {
    let plain = run_mt("apache", OrgKind::Private, &RunConfig::quick());
    let fixed = run_mt("apache", OrgKind::Private, &RunConfig::quick().with_stop(StopRule::Fixed));
    assert_eq!(plain, fixed, "StopRule::Fixed must not perturb the exact mode");
}

#[test]
fn ipc_metric_runs_are_deterministic_too() {
    let rule =
        StopRule::Confidence { metric: StopMetric::Ipc, rel_half_width: 0.05, confidence: 0.90 };
    let cfg = big_cfg().with_stop(rule);
    let a = run_mt("specjbb", OrgKind::Snuca, &cfg);
    let b = run_mt("specjbb", OrgKind::Snuca, &cfg);
    assert_eq!(a, b);
}
