//! Self-checking `kill -9` chaos gate for the multi-process shard
//! supervisor — the OS-process analogue of `serve_chaos`.
//!
//! Three phases, each asserting against a single-process
//! [`cmp_bench::Lab`] reference on serialized bytes:
//!
//! * **Phase A — fault-free**: a sharded sweep with no chaos must be
//!   clean (every worker finishes on its first life) and
//!   byte-identical to the in-process reference.
//! * **Phase B — kill -9 and resume**: a seeded [`KillSchedule`]
//!   SIGKILLs every worker mid-partition (attempt 0, after its first
//!   result; `job_delay` paces jobs so the kill lands mid-sweep, not
//!   after the fact). Journals are on, so each restarted worker must
//!   resume — re-answering journaled pairs from cache — and the
//!   merged report must still be complete and byte-identical, with
//!   the kills visible in the `exit_signals` / `resumed` stats. This
//!   phase's merged report is written to `BENCH_shard.json`.
//! * **Phase C — quarantine**: [`KillSchedule::exhaust`] kills shard
//!   0 on every life. The sweep must complete *partially*: shard 0's
//!   pairs quarantined with causes, every other shard's pairs still
//!   byte-identical.
//!
//! Any violated assertion prints `FAIL` and exits 1 (the CI gate).
//! `--workers N` sets the worker count (CI runs 2 and 4).

use std::path::PathBuf;
use std::time::Duration;

use cmp_bench::journal::run_result_to_json;
use cmp_bench::shard::{run_sharded, KillSchedule, MultiShardReport, ShardOptions, ShardSlot};
use cmp_bench::{Lab, Pair, WorkloadId, MULTITHREADED};
use cmp_serve::{env, worker_binary};
use cmp_sim::{OrgKind, RunConfig};

const REPORT_PATH: &str = "BENCH_shard.json";
const SEED: u64 = 0x5EED_C4A0;

fn main() {
    let mut workers = 2usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workers" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 2 => workers = n,
                _ => usage(),
            },
            _ => usage(),
        }
    }

    let explicit = std::env::var(env::SHARD_WORKER).ok().map(PathBuf::from);
    let Some(worker) = worker_binary(explicit.as_deref()) else {
        eprintln!("shard_chaos: cmp-shard-worker not found (build -p cmp-serve --bins first)");
        std::process::exit(2);
    };

    // Three organizations per workload keep the gate fast while still
    // spanning the paper's design space (baseline, private, NuRAPID).
    let cfg = RunConfig::sized(2_000, 4_000, 7);
    let orgs = [OrgKind::Shared, OrgKind::Private, OrgKind::Nurapid];
    let pairs: Vec<Pair> = MULTITHREADED
        .iter()
        .flat_map(|w| orgs.iter().map(|&org| (WorkloadId::Multithreaded(w), org)))
        .collect();

    // The single-process reference every phase compares against.
    let mut reference = Lab::new(cfg);
    reference.run_batch(&pairs);

    let scratch =
        std::env::temp_dir().join(format!("cmp-shard-chaos-{}-{workers}", std::process::id()));
    let _ = std::fs::create_dir_all(&scratch);

    let mut failures = 0usize;

    // Phase A: fault-free.
    eprintln!("shard_chaos: phase A — fault-free, {workers} workers, {} pairs", pairs.len());
    let opts = ShardOptions::new(workers);
    let report = run_sharded(&worker, &pairs, &cfg, &opts);
    check(&mut failures, report.is_clean(), &format!("phase A clean: {}", report.summary()));
    failures += byte_mismatches("A", &pairs, &report, &reference);

    // Phase B: seeded kill -9 on every worker, resume from journals.
    eprintln!("shard_chaos: phase B — seeded kill -9 on all {workers} workers, journaled resume");
    let mut opts = ShardOptions::new(workers);
    opts.journal_base = Some(scratch.join("phase-b.jsonl"));
    opts.kills = Some(KillSchedule::seeded(SEED, workers, workers, 1));
    opts.job_delay = Some(Duration::from_millis(10));
    let report = run_sharded(&worker, &pairs, &cfg, &opts);
    check(&mut failures, report.is_complete(), &format!("phase B complete: {}", report.summary()));
    failures += byte_mismatches("B", &pairs, &report, &reference);
    let signals: u32 = report.shards.iter().map(|s| s.exit_signals).sum();
    let restarts: u32 = report.shards.iter().map(|s| s.lives.saturating_sub(1)).sum();
    let resumed: usize = report.shards.iter().map(|s| s.resumed).sum();
    check(&mut failures, signals >= 1, &format!("phase B saw a SIGKILL exit (signals={signals})"));
    check(
        &mut failures,
        restarts >= 1,
        &format!("phase B restarted a worker (restarts={restarts})"),
    );
    check(
        &mut failures,
        resumed >= 1,
        &format!("phase B resumed from a journal (resumed={resumed})"),
    );
    if let Err(e) = cmp_bench::obs_report::write_report(REPORT_PATH, &report.to_json()) {
        check(&mut failures, false, &format!("phase B report written: {e}"));
    }

    // Phase C: one shard's restart budget is exhausted — partial
    // completion with quarantine, not a wedged or failed sweep.
    eprintln!("shard_chaos: phase C — shard 0 killed on every life (quarantine)");
    let mut opts = ShardOptions::new(workers);
    opts.kills = Some(KillSchedule::exhaust(0, opts.max_attempts));
    opts.job_delay = Some(Duration::from_millis(10));
    let report = run_sharded(&worker, &pairs, &cfg, &opts);
    check(
        &mut failures,
        !report.is_complete() && report.quarantined() > 0,
        &format!("phase C quarantined shard 0's pairs: {}", report.summary()),
    );
    let shard0_quarantined = report.shards.first().is_some_and(|s| s.quarantined);
    check(&mut failures, shard0_quarantined, "phase C marked shard 0 quarantined");
    let mut surviving = 0usize;
    for (i, (pair, slot)) in pairs.iter().zip(&report.slots).enumerate() {
        match slot {
            ShardSlot::Done { result, .. } => {
                surviving += 1;
                let got = run_result_to_json(result).compact();
                let want = reference
                    .peek(*pair)
                    .map(|r| run_result_to_json(r).compact())
                    .unwrap_or_default();
                if got != want {
                    check(&mut failures, false, &format!("phase C pair {i} byte-identical"));
                }
            }
            ShardSlot::Quarantined { shard, .. } => {
                check(
                    &mut failures,
                    *shard == 0,
                    &format!("phase C quarantine confined to shard 0 (pair {i})"),
                );
            }
            ShardSlot::Failed(e) => {
                check(&mut failures, false, &format!("phase C pair {i} failed: {e}"));
            }
        }
    }
    let expected_surviving =
        pairs.len() - pairs.iter().enumerate().filter(|(i, _)| i % workers == 0).count();
    check(
        &mut failures,
        surviving == expected_surviving,
        &format!("phase C surviving shards all completed ({surviving}/{expected_surviving})"),
    );

    let _ = std::fs::remove_dir_all(&scratch);
    if failures > 0 {
        eprintln!("shard_chaos: FAIL ({failures} assertion(s))");
        std::process::exit(1);
    }
    eprintln!("shard_chaos: PASS — clean, kill -9 converged bit-identically, quarantine contained");
}

fn usage() -> ! {
    eprintln!("usage: shard_chaos [--workers N>=2]");
    std::process::exit(2);
}

fn check(failures: &mut usize, ok: bool, what: &str) {
    if ok {
        eprintln!("shard_chaos:   ok: {what}");
    } else {
        eprintln!("shard_chaos: FAIL: {what}");
        *failures += 1;
    }
}

/// Byte-compares every completed slot against the reference lab;
/// returns (and prints) the mismatch count.
fn byte_mismatches(
    phase: &str,
    pairs: &[Pair],
    report: &MultiShardReport,
    reference: &Lab,
) -> usize {
    let mut mismatches = 0;
    for (i, (pair, slot)) in pairs.iter().zip(&report.slots).enumerate() {
        let ShardSlot::Done { result, .. } = slot else {
            eprintln!("shard_chaos: FAIL: phase {phase} pair {i} not completed");
            mismatches += 1;
            continue;
        };
        let got = run_result_to_json(result).compact();
        let want =
            reference.peek(*pair).map(|r| run_result_to_json(r).compact()).unwrap_or_default();
        if got != want {
            eprintln!(
                "shard_chaos: FAIL: phase {phase} {}/{} diverges from the in-process reference",
                pair.0.name(),
                pair.1.name()
            );
            mismatches += 1;
        }
    }
    if mismatches == 0 {
        eprintln!("shard_chaos:   ok: phase {phase} byte-identical ({} pairs)", pairs.len());
    }
    mismatches
}
