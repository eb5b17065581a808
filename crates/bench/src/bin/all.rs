//! Regenerates every table and figure of the paper in one run,
//! sharing simulation results across figures.
//!
//! The union of every figure's (workload, organization) pairs is
//! prefetched through the parallel lab up front — the full sweep
//! fans out across `CMP_BENCH_THREADS` workers (default: available
//! parallelism) and the figures then render from cache, byte-identical
//! to the sequential path.
//!
//! Set `CMP_SWEEP_JOURNAL=path` to checkpoint the sweep: every
//! completed pair is fsync'd to an append-only journal, and a rerun
//! of the same command resumes from the journal instead of
//! re-simulating — a killed `all paper` run loses at most the pair in
//! flight and renders byte-identical figures on resume.
//!
//! Usage: all `[quick|paper|<refs>]`

use cmp_bench::{config_from_args, figures, ok_or_exit, Lab};

fn main() {
    let cfg = config_from_args();
    println!(
        "CMP-NuRAPID reproduction: all experiments (warmup {} / measure {} refs/core)\n",
        cfg.warmup_accesses, cfg.measure_accesses
    );
    println!("{}", figures::table1());
    println!("{}", figures::table2());
    println!("{}", figures::table3());
    let mut lab = ok_or_exit(Lab::from_env(cfg));
    if let Some(path) = lab.journal_path() {
        eprintln!(
            "journal {}: resumed {} pair(s), checkpointing the rest",
            path.display(),
            lab.restored()
        );
    }
    let t0 = std::time::Instant::now();
    ok_or_exit(lab.prefetch(&figures::pairs::all()));
    let sweep_ms = t0.elapsed().as_secs_f64() * 1e3;
    if !lab.last_report().quarantined.is_empty() {
        // The sweep engine already warned once per quarantined pair.
        let summary = lab.last_report().summary();
        cmp_obs::warn!(
            "partial sweep: quarantined pairs will be re-simulated sequentially \
             as figures demand them",
            report = summary
        );
    }
    println!("{}", figures::fig5(&mut lab));
    println!("{}", figures::fig6(&mut lab));
    println!("{}", figures::fig7(&mut lab));
    println!("{}", figures::fig8(&mut lab));
    println!("{}", figures::fig9(&mut lab));
    println!("{}", figures::fig10(&mut lab));
    println!("{}", figures::fig11(&mut lab));
    println!("{}", figures::fig12(&mut lab));
    println!("{}", figures::closest_dgroup_share(&mut lab));
    eprintln!(
        "({} simulation runs, {:.0} ms sweep on {} thread(s))",
        lab.simulations(),
        sweep_ms,
        lab.threads()
    );
    if ok_or_exit(cmp_bench::obs_report::export_if_enabled()).is_some() {
        eprintln!("(metrics exported to {})", cmp_bench::OBS_REPORT_PATH);
    }
}
