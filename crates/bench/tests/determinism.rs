//! Determinism suite for the parallel experiment lab.
//!
//! The parallelization contract is: a pair's `RunResult` is a pure
//! function of `(workload, organization, RunConfig)`, so the thread
//! count must be unobservable in every output. These tests pin that
//! down at three levels — raw `RunResult`s (bit-exact equality over
//! every counter), rendered figure text, and the numeric series the
//! golden suite snapshots.

use cmp_bench::{figures, Lab, ResultSource, WorkloadId};
use cmp_sim::{OrgKind, RunConfig};

fn cfg() -> RunConfig {
    RunConfig::sized(1_000, 2_000, 0x15CA)
}

/// A representative workload (commercial, all sharing classes
/// exercised) crossed with every organization the runner can build.
fn grid() -> Vec<(WorkloadId, OrgKind)> {
    OrgKind::ALL.into_iter().map(|k| (WorkloadId::Multithreaded("specjbb"), k)).collect()
}

#[test]
fn parallel_lab_matches_sequential_at_1_2_8_and_16_threads() {
    let mut seq = Lab::new(cfg());
    for &(w, k) in &grid() {
        seq.try_result(w, k).expect("sequential run");
    }
    for threads in [1, 2, 8, 16] {
        let mut par = Lab::with_threads(cfg(), threads);
        par.prefetch(&grid()).expect("parallel sweep");
        for (w, k) in grid() {
            assert_eq!(
                par.result(w, k),
                seq.result(w, k),
                "bit-identity violated at {threads} thread(s) for {}/{}",
                w.name(),
                k.name()
            );
        }
    }
}

/// Observability must be a pure observer: with `CMP_OBS=1` the
/// sharded metric counters fire on every L2 access and bus snoop from
/// every worker thread, and none of it may perturb results. Runs the
/// same sweep twice with the layer enabled (16 workers, so the
/// thread-local shard assignment differs between runs) and asserts
/// both parallel sweeps are bit-identical to sequential.
#[test]
fn sweep_under_enabled_obs_is_bit_identical_across_runs() {
    let was_enabled = cmp_obs::enabled();
    cmp_obs::set_enabled(true);
    let mut seq = Lab::new(cfg());
    for &(w, k) in &grid() {
        seq.try_result(w, k).expect("sequential run");
    }
    let mut runs = Vec::new();
    for _ in 0..2 {
        let mut par = Lab::with_threads(cfg(), 16);
        par.prefetch(&grid()).expect("parallel sweep under CMP_OBS=1");
        runs.push(par);
    }
    cmp_obs::set_enabled(was_enabled);
    for (run, par) in runs.iter_mut().enumerate() {
        for (w, k) in grid() {
            assert_eq!(
                par.result(w, k),
                seq.result(w, k),
                "CMP_OBS=1 perturbed run #{run} for {}/{}",
                w.name(),
                k.name()
            );
        }
    }
}

#[test]
fn second_run_at_same_seed_is_bit_identical() {
    let mut first = Lab::new(cfg());
    let mut second = Lab::new(cfg());
    for (w, k) in grid() {
        assert_eq!(
            first.result(w, k),
            second.result(w, k),
            "rerun at the same seed diverged for {}/{}",
            w.name(),
            k.name()
        );
    }
}

#[test]
fn mixes_are_thread_count_invariant_too() {
    let pairs: Vec<_> = OrgKind::ALL.into_iter().map(|k| (WorkloadId::Mix("MIX2"), k)).collect();
    let mut seq = Lab::new(cfg());
    let mut par = Lab::with_threads(cfg(), 8);
    par.prefetch(&pairs).expect("parallel sweep");
    for (w, k) in pairs {
        assert_eq!(par.result(w, k), seq.result(w, k), "{}/{}", w.name(), k.name());
    }
}

#[test]
fn every_figure_renders_byte_identically_from_the_parallel_lab() {
    let mut seq = Lab::new(cfg());
    let mut par = Lab::with_threads(cfg(), 8);
    par.prefetch(&figures::pairs::all()).expect("parallel sweep");

    let figures_seq: Vec<String> = vec![
        figures::fig5(&mut seq),
        figures::fig6(&mut seq),
        figures::fig7(&mut seq),
        figures::fig8(&mut seq),
        figures::fig9(&mut seq),
        figures::fig10(&mut seq),
        figures::fig11(&mut seq),
        figures::fig12(&mut seq),
        figures::closest_dgroup_share(&mut seq),
    ];
    let figures_par: Vec<String> = vec![
        figures::fig5(&mut par),
        figures::fig6(&mut par),
        figures::fig7(&mut par),
        figures::fig8(&mut par),
        figures::fig9(&mut par),
        figures::fig10(&mut par),
        figures::fig11(&mut par),
        figures::fig12(&mut par),
        figures::closest_dgroup_share(&mut par),
    ];
    for (i, (s, p)) in figures_seq.iter().zip(&figures_par).enumerate() {
        assert_eq!(s, p, "figure #{i} diverged between sequential and parallel labs");
    }

    // The numeric series (what the golden suite snapshots and what
    // the figure JSON is built from) must agree exactly as well.
    for (name, _, extract) in figures::series::catalog() {
        assert_eq!(extract(&mut seq), extract(&mut par), "series {name} diverged");
    }

    // And the parallel sweep took no more simulations than the
    // sequential one — the memo dedup works across figures.
    assert_eq!(par.simulations(), seq.simulations());
}
