//! Integration suite for the multi-process shard supervisor: spawns
//! the real `cmp-shard-worker` binary (cargo builds it for this test
//! via `CARGO_BIN_EXE_*`) and asserts the OS-process split changes
//! fault isolation, never results.

use std::path::{Path, PathBuf};
use std::time::Duration;

use cmp_bench::journal::run_result_to_json;
use cmp_bench::shard::{run_sharded, KillSchedule, MultiShardReport, ShardOptions, ShardSlot};
use cmp_bench::{Lab, Pair, ScenarioSpec, WorkloadId};
use cmp_serve::{ServeOptions, Service};
use cmp_sim::{OrgKind, RunConfig};

fn worker() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_cmp-shard-worker"))
}

fn tiny_cfg() -> RunConfig {
    RunConfig::sized(500, 1_000, 7)
}

fn pairs() -> Vec<Pair> {
    ["barnes", "ocean", "apache"]
        .iter()
        .flat_map(|w| {
            [OrgKind::Shared, OrgKind::Private, OrgKind::Nurapid]
                .iter()
                .map(|&org| (WorkloadId::Multithreaded(w), org))
        })
        .collect()
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cmp-shard-it-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Byte-compares every completed slot against a single-process lab.
fn assert_byte_identical(pairs: &[Pair], report: &MultiShardReport, reference: &mut Lab) {
    reference.run_batch(pairs);
    for (i, (pair, slot)) in pairs.iter().zip(&report.slots).enumerate() {
        let ShardSlot::Done { result, .. } = slot else {
            panic!("pair {i} not completed: {slot:?}");
        };
        let got = run_result_to_json(result).compact();
        let want = run_result_to_json(reference.peek(*pair).expect("reference result")).compact();
        assert_eq!(got, want, "pair {i} ({}/{}) diverges", pair.0.name(), pair.1.name());
    }
}

#[test]
fn fault_free_sharded_sweep_is_byte_identical_to_single_process() {
    let pairs = pairs();
    let report = run_sharded(worker(), &pairs, &tiny_cfg(), &ShardOptions::new(2));
    assert!(report.is_clean(), "no restarts expected: {}", report.summary());
    assert_eq!(report.completed(), pairs.len());
    assert_byte_identical(&pairs, &report, &mut Lab::new(tiny_cfg()));
    // Partitioning is deterministic: pair i went to shard i % 2.
    for (shard, stats) in report.shards.iter().enumerate() {
        assert_eq!(stats.shard, shard);
        assert_eq!(
            stats.assigned,
            pairs.iter().enumerate().filter(|(i, _)| i % 2 == shard).count()
        );
        assert_eq!(stats.lives, 1);
    }
}

/// SIGKILL *every* worker on its first life, after its first result,
/// at two fleet widths: each shard must restart once, resume what its
/// journal holds, and the merged sweep must stay byte-identical.
#[test]
fn killed_worker_resumes_from_journal_and_converges() {
    let pairs = pairs();
    let mut reference = Lab::new(tiny_cfg());
    for workers in [2, 4] {
        let dir = scratch(&format!("resume-{workers}"));
        let mut opts = ShardOptions::new(workers);
        opts.journal_base = Some(dir.join("sweep.jsonl"));
        opts.kills = Some(KillSchedule::seeded(0x5EED_C4A0, workers, workers, 1));
        // The delay paces jobs so each kill lands mid-partition.
        opts.job_delay = Some(Duration::from_millis(10));
        let report = run_sharded(worker(), &pairs, &tiny_cfg(), &opts);
        assert!(report.is_complete(), "kills must not lose pairs: {}", report.summary());
        for s in &report.shards {
            assert_eq!(s.chaos_kills, 1, "{workers} workers: the armed kill fired: {s:?}");
            assert!(s.exit_signals >= 1, "{workers} workers: the SIGKILL exit was recorded: {s:?}");
            assert_eq!(s.lives, 2, "{workers} workers: one restart: {s:?}");
            assert!(s.resumed >= 1, "{workers} workers: life 2 resumed journaled pairs: {s:?}");
        }
        assert_byte_identical(&pairs, &report, &mut reference);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn exhausted_restart_budget_quarantines_only_that_shard() {
    let pairs = pairs();
    let mut opts = ShardOptions::new(3);
    opts.max_attempts = 2;
    opts.kills = Some(KillSchedule::exhaust(1, opts.max_attempts));
    opts.job_delay = Some(Duration::from_millis(10));
    let capture = cmp_obs::Capture::install();
    let report = run_sharded(worker(), &pairs, &tiny_cfg(), &opts);
    assert!(capture.contains("shard quarantined"), "{:?}", capture.lines());
    drop(capture);
    assert!(!report.is_complete());
    assert!(report.shards[1].quarantined);
    assert_eq!(report.shards[1].lives, opts.max_attempts);
    for (i, slot) in report.slots.iter().enumerate() {
        match slot {
            ShardSlot::Quarantined { shard, cause } => {
                assert_eq!(i % 3, 1, "quarantine confined to shard 1's partition");
                assert_eq!(*shard, 1);
                assert!(cause.contains("lives"), "cause names the exhausted budget: {cause}");
            }
            ShardSlot::Done { .. } => assert_ne!(i % 3, 1),
            ShardSlot::Failed(e) => panic!("unexpected failure for pair {i}: {e}"),
        }
    }
    // The surviving shards' results are still correct.
    let mut reference = Lab::new(tiny_cfg());
    reference.run_batch(&pairs);
    for (pair, slot) in pairs.iter().zip(&report.slots) {
        if let ShardSlot::Done { result, .. } = slot {
            let want = run_result_to_json(reference.peek(*pair).expect("ref")).compact();
            assert_eq!(run_result_to_json(result).compact(), want);
        }
    }
}

/// Spec pairs travel as whole scenarios: two distinct specs — one
/// named like a catalog workload — match the in-process lab.
#[test]
fn sharded_spec_pairs_match_the_in_process_lab() {
    let spec = |text: &str| {
        WorkloadId::Spec(cmp_bench::spec::intern(&ScenarioSpec::parse_str(text).unwrap()))
    };
    let pairs = vec![
        (spec(r#"{"name":"oltp","cores":16}"#), OrgKind::Shared),
        (spec(r#"{"name":"web8","cores":8,"base":"apache"}"#), OrgKind::Nurapid),
    ];
    let report = run_sharded(worker(), &pairs, &tiny_cfg(), &ShardOptions::new(2));
    assert!(report.is_clean(), "{}", report.summary());
    assert_byte_identical(&pairs, &report, &mut Lab::new(tiny_cfg()));
}

#[test]
fn watchdog_kills_a_hung_worker_and_the_restart_finishes_the_partition() {
    let pairs = pairs();
    let mut opts = ShardOptions::new(2);
    // Shard 0, first life, hangs (heartbeats off) after answering one
    // job; the watchdog must SIGKILL it and the restarted life — the
    // hook no longer matches attempt 1 — finishes the partition.
    opts.worker_env.push(("CMP_SHARD_TEST_HANG".into(), "0:0:1".into()));
    opts.heartbeat_interval = Duration::from_millis(20);
    opts.heartbeat_timeout = Duration::from_millis(400);
    let report = run_sharded(worker(), &pairs, &tiny_cfg(), &opts);
    assert!(report.is_complete(), "hang must not lose pairs: {}", report.summary());
    let s0 = &report.shards[0];
    assert!(s0.watchdog_kills >= 1, "the watchdog fired: {s0:?}");
    assert_eq!(s0.lives, 2, "one restart after the hang");
    assert_byte_identical(&pairs, &report, &mut Lab::new(tiny_cfg()));
}

#[test]
fn service_sharded_batches_answer_byte_identically_to_in_process() {
    let sweep =
        r#"{"type":"sweep","id":"s1","workloads":["barnes","ocean"],"orgs":["shared","nurapid"]}"#;
    let answer = |svc: &mut Service| -> Vec<String> {
        svc.handle_line(sweep);
        let responses = svc.process_ready();
        responses
            .iter()
            .map(|r| {
                assert_eq!(
                    r.get("type").and_then(|t| t.as_str()),
                    Some("result"),
                    "unexpected response: {}",
                    r.compact()
                );
                r.get("result").expect("result payload").compact()
            })
            .collect()
    };

    let mut reference = Service::new(ServeOptions::new(tiny_cfg()));
    let want = answer(&mut reference);

    let mut opts = ServeOptions::new(tiny_cfg());
    opts.shard_workers = 2;
    opts.shard_worker = Some(worker().to_path_buf());
    let mut sharded = Service::new(opts);
    let got = answer(&mut sharded);

    assert_eq!(got, want, "the sharded batch path is an isolation change, not a numerics change");
    // Adopted worker-process results count as simulations performed
    // on this service's behalf — same accounting as the in-process
    // worker threads.
    assert_eq!(sharded.simulations(), 4);

    // A repeat of the same sweep is answered from the adopted cache
    // without spawning workers again.
    let again = answer(&mut sharded);
    assert_eq!(again, want);
    assert_eq!(sharded.simulations(), 4, "the repeat was a pure cache hit");
}
