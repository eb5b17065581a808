//! Regenerates the paper's tables and figures and the studies beyond
//! them, one at a time or all in one run.
//!
//! Usage: `repro <name|all> [quick|paper|<refs>]`, where `<name>` is
//! one of [`figures::ENTRIES`] (`table1`, `fig5`, ..., `ablations`,
//! `dnuca`, ...) and the sizing defaults to `paper`.
//!
//! The requested entries' (workload, organization) pairs are
//! prefetched through the lab up front — the sweep fans out across
//! `CMP_BENCH_THREADS` workers (default: available parallelism) and
//! the figures then render from cache, byte-identical to the
//! sequential path. `all` shares every simulation across figures.
//!
//! Set `CMP_SWEEP_JOURNAL=path` to checkpoint the sweep: every
//! completed pair is fsync'd to an append-only journal, and a rerun
//! of the same command resumes from the journal instead of
//! re-simulating — a killed `repro all paper` run loses at most the
//! pairs in flight and renders byte-identical figures on resume.

use cmp_bench::figures::{self, Entry};
use cmp_bench::{ok_or_exit, parse_config, Lab};
use cmp_sim::RunConfig;

fn usage() -> ! {
    let names: Vec<&str> = figures::ENTRIES.iter().map(|e| e.name).collect();
    eprintln!("usage: repro <all|{}> [quick|paper|<refs>]", names.join("|"));
    std::process::exit(2);
}

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| usage());
    let all = name == "all";
    let entries: Vec<&Entry> = if all {
        figures::ENTRIES.iter().collect()
    } else {
        vec![figures::entry(&name).unwrap_or_else(|| usage())]
    };
    let cfg = parse_config(std::env::args().nth(2).as_deref(), RunConfig::paper());
    if all {
        println!(
            "CMP-NuRAPID reproduction: all experiments (warmup {} / measure {} refs/core)\n",
            cfg.warmup_accesses, cfg.measure_accesses
        );
    }
    let mut lab = ok_or_exit(Lab::from_env(cfg));
    if let Some(path) = lab.journal_path() {
        eprintln!(
            "journal {}: resumed {} pair(s), checkpointing the rest",
            path.display(),
            lab.restored()
        );
    }
    let t0 = std::time::Instant::now();
    let pairs: Vec<_> = entries.iter().flat_map(|e| (e.pairs)()).collect();
    ok_or_exit(lab.prefetch(&pairs));
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
    for e in entries {
        let text = (e.render)(&mut lab);
        if all {
            println!("{text}");
        } else {
            print!("{text}");
        }
    }
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
