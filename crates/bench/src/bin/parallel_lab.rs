//! Parallel-lab benchmark and self-check: runs the full figure sweep
//! (the union of every figure's (workload, organization) pairs) once
//! pair at a time through one `Lab` and once as a parallel batch
//! through another,
//! verifies that every `RunResult`, every rendered figure, and every
//! numeric series is byte-identical, and writes a
//! `BENCH_parallel_lab.json` report (wall-clock sequential vs
//! parallel, per-pair timings, thread count) so the perf trajectory
//! is tracked across PRs. Any divergence makes the binary exit
//! nonzero, so CI can use it as a determinism gate as well as a perf
//! report.
//!
//! Usage: `parallel_lab [quick|paper|REFS]` (worker count from
//! `CMP_BENCH_THREADS`, default: available parallelism; set
//! `CMP_SWEEP_JOURNAL=path` to checkpoint the parallel sweep and
//! resume it after an interruption — resumed pairs are still checked
//! bit-for-bit against the fresh sequential sweep)

use std::collections::HashSet;
use std::time::Instant;

use cmp_bench::{config_from_args, figures, ok_or_exit, Json, Lab, ResultSource};

const REPORT_PATH: &str = "BENCH_parallel_lab.json";

fn main() {
    let cfg = config_from_args();
    let submitted = figures::pairs::all();
    let mut seen = HashSet::new();
    let unique: Vec<_> = submitted.iter().copied().filter(|p| seen.insert(*p)).collect();

    // Sequential sweep, one pair at a time.
    let mut seq = Lab::new(cfg);
    let t0 = Instant::now();
    for &(wl, kind) in &unique {
        ok_or_exit(seq.try_result(wl, kind).map(|_| ()));
    }
    let sequential_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Parallel sweep of the same batch through the lab's batch front
    // door (journal-resumed when CMP_SWEEP_JOURNAL is set) — the same
    // one the cmp-serve service drives, so this binary's determinism
    // gate also covers the serving path.
    let mut par = ok_or_exit(Lab::from_env(cfg));
    if let Some(path) = par.journal_path() {
        eprintln!(
            "journal {}: resumed {} pair(s), checkpointing the rest",
            path.display(),
            par.restored()
        );
    }
    let t0 = Instant::now();
    let timings = ok_or_exit(par.prefetch(&submitted));
    let parallel_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Determinism check 1: bit-identical results per pair.
    let mut mismatches = Vec::new();
    for &(wl, kind) in &unique {
        if seq.result(wl, kind) != par.result(wl, kind) {
            mismatches.push(format!("{}/{}", wl.name(), kind.name()));
        }
    }
    // Determinism check 2: byte-identical rendered figures and
    // numeric series.
    type Renderer = (&'static str, fn(&mut Lab) -> String);
    let renderers: [Renderer; 9] = [
        ("fig5", figures::fig5),
        ("fig6", figures::fig6),
        ("fig7", figures::fig7),
        ("fig8", figures::fig8),
        ("fig9", figures::fig9),
        ("fig10", figures::fig10),
        ("fig11", figures::fig11),
        ("fig12", figures::fig12),
        ("closest_dgroup_share", figures::closest_dgroup_share),
    ];
    for (name, render) in renderers {
        if render(&mut seq) != render(&mut par) {
            mismatches.push(format!("figure {name}"));
        }
    }
    for (name, _, extract) in figures::series::catalog() {
        if extract(&mut seq) != extract(&mut par) {
            mismatches.push(format!("series {name}"));
        }
    }

    let identical = mismatches.is_empty();
    // A single worker runs the same sequential sweep twice; calling
    // the ratio of two identical jobs a "speedup" would be noise
    // dressed up as a result, so the field is null unless the batch
    // actually fanned out.
    let workers = par.threads().min(unique.len());
    let speedup = if workers > 1 { Json::Num(sequential_ms / parallel_ms) } else { Json::Null };

    // Scaling study: the same batch across the worker ladder through
    // the scaling harness — best-of-3 per worker count with every
    // sample recorded, so the regression gate reads a noise-robust
    // number instead of one wall-clock roll of the dice.
    let ladder: Vec<usize> = cmp_bench::scaling::DEFAULT_WORKER_COUNTS
        .into_iter()
        .filter(|&n| n <= par.threads().max(1) || n <= cmp_bench::scaling::available_workers())
        .collect();
    let study = ok_or_exit(cmp_bench::scaling::run_scaling(
        cfg,
        &ladder,
        cmp_bench::scaling::DEFAULT_SAMPLES,
    ));
    if !study.identical {
        cmp_obs::error!("determinism violation: scaling study diverged from sequential");
        std::process::exit(1);
    }

    let mut report = Json::obj();
    let mut config = Json::obj();
    config.set("warmup_accesses", Json::Num(cfg.warmup_accesses as f64));
    config.set("measure_accesses", Json::Num(cfg.measure_accesses as f64));
    config.set("seed", Json::Num(cfg.seed as f64));
    report.set("config", config);
    report.set("threads", Json::Num(par.threads() as f64));
    report.set("workers", Json::Num(workers as f64));
    report.set("pairs", Json::Num(unique.len() as f64));
    report.set("sequential_ms", Json::Num(sequential_ms));
    report.set("parallel_ms", Json::Num(parallel_ms));
    report.set("speedup", speedup);
    report.set("identical", Json::Bool(identical));
    report.set("resumed", Json::Num(par.restored() as f64));
    let sweep = par.last_report();
    let mut resilience = Json::obj();
    resilience.set("panicked", Json::Num(sweep.panicked as f64));
    resilience.set("timed_out", Json::Num(sweep.timed_out as f64));
    resilience.set("orphaned", Json::Num(sweep.orphaned as f64));
    resilience.set("quarantined", Json::Num(sweep.quarantined.len() as f64));
    report.set("resilience", resilience);
    report.set("scaling", study.to_json());
    let per_pair = timings
        .iter()
        .map(|t| {
            let mut row = Json::obj();
            row.set("workload", Json::Str(t.workload.name().to_string()));
            row.set("org", Json::Str(t.kind.name().to_string()));
            row.set("ms", Json::Num((t.millis * 1000.0).round() / 1000.0));
            row
        })
        .collect();
    report.set("per_pair", Json::Arr(per_pair));
    // With the obs layer on, embed the metrics snapshot in the main
    // report and also export it standalone as BENCH_obs.json.
    if let Some(obs) = ok_or_exit(cmp_bench::obs_report::export_if_enabled()) {
        report.set("obs", obs);
    }
    println!("{report}");
    ok_or_exit(cmp_bench::obs_report::write_report(REPORT_PATH, &report));

    if workers > 1 {
        eprintln!(
            "{} pairs: sequential {sequential_ms:.0} ms, parallel {parallel_ms:.0} ms \
             on {workers} worker(s) ({:.2}x)",
            unique.len(),
            sequential_ms / parallel_ms,
        );
    } else {
        eprintln!(
            "{} pairs: sequential {sequential_ms:.0} ms, parallel {parallel_ms:.0} ms \
             on 1 worker (no speedup to report single-threaded)",
            unique.len(),
        );
    }
    for row in &study.rows {
        eprintln!(
            "scaling: {} worker(s) best-of-{} {:.0} ms ({:.2}x vs sequential {:.0} ms)",
            row.workers, study.samples, row.best_ms, row.speedup, study.sequential_best_ms,
        );
    }
    for (workers, floor, measured) in study.floors_met() {
        cmp_obs::warn!(
            "scaling floor missed (regression suite enforces this)",
            workers = workers,
            floor = floor,
            measured = measured
        );
    }
    if !identical {
        let diverged = mismatches.join(", ");
        cmp_obs::error!("determinism violation: parallel sweep diverged", on = diverged);
        std::process::exit(1);
    }
    if !par.last_report().quarantined.is_empty() {
        let summary = par.last_report().summary();
        cmp_obs::error!("sweep incomplete", report = summary);
        std::process::exit(1);
    }
}
