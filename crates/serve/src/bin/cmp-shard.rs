//! The multi-process sweep supervisor CLI: the multithreaded sweep
//! with OS-process fault isolation.
//!
//! Partitions the paper's multithreaded sweep (five workloads x all
//! eight organizations) across `--workers` `cmp-shard-worker`
//! processes via [`cmp_bench::shard::run_sharded`]: each worker owns
//! its simulations in its own address space, heartbeats for the
//! supervisor's watchdog, and — with `--journal` — checkpoints every
//! result to a crash-consistent per-shard journal so a restarted
//! worker re-simulates only what its journal does not already hold.
//! A worker that keeps dying is quarantined after its restart budget
//! and the sweep completes partially rather than not at all.
//!
//! ```text
//! cargo build --release -p cmp-serve --bins   # worker binary too
//! target/release/cmp-shard quick --workers 4 --journal shard.jsonl
//! ```
//!
//! `--check` re-runs the sweep in-process through the same
//! [`cmp_bench::Lab`] the CLI batch path uses and asserts
//! every shard-computed result is byte-identical — the OS-process
//! split is an isolation boundary, never a numerics fork. The merged
//! [`cmp_bench::MultiShardReport`] is written to `BENCH_shard.json`.
//!
//! Exit status: 0 clean and complete; 1 quarantined pairs or a
//! `--check` mismatch; 2 usage or missing worker binary.

use std::path::PathBuf;

use cmp_bench::journal::run_result_to_json;
use cmp_bench::shard::{run_sharded, ShardOptions, ShardSlot};
use cmp_bench::{Lab, Pair, WorkloadId, MULTITHREADED};
use cmp_serve::{env, worker_binary};
use cmp_sim::{OrgKind, RunConfig};

const REPORT_PATH: &str = "BENCH_shard.json";

fn usage() -> ! {
    eprintln!(
        "usage: cmp-shard [quick|paper|<measure_accesses>] [--workers N] \
         [--journal BASE] [--check]"
    );
    std::process::exit(2);
}

fn main() {
    let mut cfg_arg: Option<String> = None;
    let mut workers = 2usize;
    let mut journal: Option<PathBuf> = None;
    let mut check = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workers" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => workers = n,
                _ => usage(),
            },
            "--journal" => match args.next() {
                Some(base) => journal = Some(PathBuf::from(base)),
                None => usage(),
            },
            "--check" => check = true,
            _ if cfg_arg.is_none() => cfg_arg = Some(arg),
            _ => usage(),
        }
    }
    let cfg = match cfg_arg.as_deref() {
        None | Some("quick") => RunConfig::quick(),
        Some("paper") => RunConfig::paper(),
        Some(n) => match n.parse::<u64>() {
            Ok(measure) => RunConfig::sized(measure / 2, measure, 0x15CA),
            Err(_) => usage(),
        },
    };

    let explicit = std::env::var(env::SHARD_WORKER).ok().map(PathBuf::from);
    let Some(worker) = worker_binary(explicit.as_deref()) else {
        eprintln!(
            "cmp-shard: cmp-shard-worker not found (build with \
             `cargo build --release -p cmp-serve --bins` or set {})",
            env::SHARD_WORKER
        );
        std::process::exit(2);
    };

    let pairs: Vec<Pair> = MULTITHREADED
        .iter()
        .flat_map(|w| OrgKind::ALL.iter().map(|&org| (WorkloadId::Multithreaded(w), org)))
        .collect();

    let mut opts = ShardOptions::new(workers);
    opts.journal_base = journal;
    eprintln!(
        "cmp-shard: {} pairs over {workers} workers (worker: {})",
        pairs.len(),
        worker.display()
    );
    let report = run_sharded(&worker, &pairs, &cfg, &opts);
    eprintln!("cmp-shard: {}", report.summary());

    if let Err(e) = cmp_bench::obs_report::write_report(REPORT_PATH, &report.to_json()) {
        eprintln!("cmp-shard: cannot write {REPORT_PATH}: {e}");
        std::process::exit(2);
    }
    eprintln!("cmp-shard: merged report written to {REPORT_PATH}");

    let mut code = 0;
    if !report.is_complete() {
        for (pair, slot) in report.pairs.iter().zip(&report.slots) {
            if let ShardSlot::Quarantined { cause, .. } = slot {
                eprintln!("cmp-shard: quarantined {}/{}: {cause}", pair.0.name(), pair.1.name());
            }
        }
        code = 1;
    }
    if check {
        let mismatches = check_against_in_process(&pairs, &cfg, &report);
        if mismatches > 0 {
            eprintln!("cmp-shard: --check FAILED: {mismatches} byte-level mismatches");
            code = 1;
        } else {
            eprintln!("cmp-shard: --check passed: all completed pairs byte-identical");
        }
    }
    std::process::exit(code);
}

/// Re-simulates the sweep in-process and byte-compares serialized
/// results; returns the mismatch count over completed pairs.
fn check_against_in_process(
    pairs: &[Pair],
    cfg: &RunConfig,
    report: &cmp_bench::MultiShardReport,
) -> usize {
    let mut lab = Lab::new(*cfg);
    lab.run_batch(pairs);
    let mut mismatches = 0;
    for (pair, slot) in pairs.iter().zip(&report.slots) {
        let ShardSlot::Done { result, .. } = slot else { continue };
        let sharded = run_result_to_json(result).compact();
        let reference = match lab.peek(*pair) {
            Some(r) => run_result_to_json(r).compact(),
            None => {
                eprintln!(
                    "cmp-shard: {}/{} missing from the in-process reference",
                    pair.0.name(),
                    pair.1.name()
                );
                mismatches += 1;
                continue;
            }
        };
        if sharded != reference {
            eprintln!(
                "cmp-shard: {}/{} diverges from the in-process reference",
                pair.0.name(),
                pair.1.name()
            );
            mismatches += 1;
        }
    }
    mismatches
}
