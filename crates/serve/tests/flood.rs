//! Overload and crash-recovery integration tests for the serving
//! layer: the bounded queue under a request flood with injected
//! worker panics, and journal resume after a mid-run kill.

use std::collections::HashMap;

use cmp_audit::ChaosSchedule;
use cmp_bench::journal::run_result_to_json;
use cmp_bench::{Json, Lab, ResultSource, WorkloadId};
use cmp_serve::{parse_line, shard_journal_path, Request, ServeOptions, Service};
use cmp_sim::{OrgKind, RunConfig};

fn tiny_cfg() -> RunConfig {
    RunConfig::sized(200, 400, 0xF100D)
}

fn opts(queue: usize) -> ServeOptions {
    let mut o = ServeOptions::new(tiny_cfg());
    o.queue_capacity = queue;
    o.threads = 2;
    o
}

/// The five workloads crossed with two organizations: ten distinct
/// pairs to flood with.
fn flood_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for (i, w) in cmp_bench::MULTITHREADED.iter().enumerate() {
        for org in ["shared", "private"] {
            lines.push(format!(
                r#"{{"type":"run","id":"f{i}-{org}","workload":"{w}","org":"{org}"}}"#
            ));
        }
    }
    lines
}

fn workload_org(resp: &Json) -> (&str, &str) {
    let field = |k| resp.get(k).and_then(|v| v.as_str()).expect("response names its pair");
    (field("workload"), field("org"))
}

/// An armed job's answer: a job-failed error whose replay line is a
/// `run` request for the same pair and sizing.
fn assert_failed_with_replay(resp: &Json) {
    assert_eq!(resp.get("type").and_then(|t| t.as_str()), Some("error"), "{resp}");
    assert_eq!(resp.get("kind").and_then(|k| k.as_str()), Some("failed"), "{resp}");
    let replay = resp.get("replay").and_then(|r| r.as_str()).expect("replay line");
    let Ok(Request::Jobs(jobs)) = parse_line(replay, tiny_cfg(), 65_536) else {
        panic!("replay {replay} is not a run request");
    };
    assert_eq!(jobs.len(), 1, "{replay}");
    let (w, o) = workload_org(resp);
    assert_eq!((jobs[0].pair.0.name(), jobs[0].pair.1.name()), (w, o), "{replay}");
    let sizing = |c: &RunConfig| (c.warmup_accesses, c.measure_accesses, c.seed);
    assert_eq!(sizing(&jobs[0].cfg), sizing(&tiny_cfg()), "{replay}");
}

#[test]
fn flood_bounds_the_queue_sheds_explicitly_and_loses_nothing() {
    const CAPACITY: usize = 4;
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !info.to_string().contains("injected worker panic") {
            prev(info);
        }
    }));
    // Two seeded worker panics in the first batch, which is the
    // admitted jobs in admission order (all distinct pairs), so chaos
    // job i is admitted line i.
    let schedule = ChaosSchedule::seeded(0x5EED, CAPACITY, 2, 0, 0);
    let armed: Vec<usize> = schedule.specs().iter().map(|s| s.job).collect();
    let mut o = opts(CAPACITY);
    o.chaos = Some(schedule);
    let mut svc = Service::new(o);

    // Admit the whole flood before processing anything: the queue
    // must cap at CAPACITY and everything else must shed, each with
    // a structured response.
    let lines = flood_lines();
    let mut admitted_ids = Vec::new();
    let mut shed_ids = Vec::new();
    for line in &lines {
        let responses = svc.handle_line(line);
        assert!(svc.pending() <= CAPACITY, "queue depth stayed bounded");
        if responses.is_empty() {
            admitted_ids.push(Json::parse(line).unwrap().get("id").unwrap().compact());
        } else {
            for resp in responses {
                assert_eq!(resp.get("type").and_then(|t| t.as_str()), Some("shed"));
                assert_eq!(resp.get("reason").and_then(|r| r.as_str()), Some("queue full"));
                assert!(resp.get("id").is_some(), "shed response echoes the id");
                shed_ids.push(resp.get("id").unwrap().compact());
            }
        }
    }
    assert_eq!(admitted_ids.len(), CAPACITY);
    assert_eq!(shed_ids.len(), lines.len() - CAPACITY);
    assert_eq!(svc.stats().shed as usize, shed_ids.len());

    // One pass answers every admitted job exactly once — zero lost,
    // nothing held back for a retry.
    let capture = cmp_obs::Capture::install();
    let responses = svc.process_ready();
    assert!(capture.contains("sweep job quarantined"), "{:?}", capture.lines());
    drop(capture);
    assert_eq!(responses.len(), CAPACITY, "one response per admitted job");
    let by_id: HashMap<String, &Json> =
        responses.iter().map(|r| (r.get("id").unwrap().compact(), r)).collect();
    assert_eq!(by_id.len(), CAPACITY, "no job answered twice");
    assert_eq!(svc.pending(), 0);
    assert_eq!(svc.stats().failed as usize, armed.len(), "failed == armed");

    // Armed jobs fail with a replay line; every other served result
    // is byte-identical to the CLI batch path's serialization.
    let mut lab = Lab::new(tiny_cfg());
    for (job, id) in admitted_ids.iter().enumerate() {
        let resp = by_id.get(id).unwrap_or_else(|| panic!("admitted job {id} got no response"));
        if armed.contains(&job) {
            assert_failed_with_replay(resp);
            continue;
        }
        assert_eq!(resp.get("type").and_then(|t| t.as_str()), Some("result"), "{resp}");
        let (w, o) = workload_org(resp);
        let workload = WorkloadId::from_catalog(w).unwrap();
        let org = OrgKind::from_name(o).unwrap();
        let expect = run_result_to_json(lab.result(workload, org)).compact();
        let served = resp.get("result").unwrap().compact();
        assert_eq!(served, expect, "served bytes diverge from CLI for {w}/{o}");
    }
}

#[test]
fn repeated_floods_coalesce_through_the_memo_cache() {
    let mut svc = Service::new(opts(16));
    for line in flood_lines() {
        assert!(svc.handle_line(&line).is_empty());
    }
    let first = svc.process_ready();
    let sims_after_first = svc.simulations();
    assert_eq!(sims_after_first, first.len(), "first flood simulates every distinct pair");

    // The same flood again: all answered, zero new simulations.
    for line in flood_lines() {
        assert!(svc.handle_line(&line).is_empty());
    }
    let second = svc.process_ready();
    assert_eq!(second.len(), first.len());
    assert_eq!(svc.simulations(), sims_after_first, "second flood is fully coalesced");
    assert!(second.iter().all(|r| r.get("cached") == Some(&Json::Bool(true))));
    assert_eq!(svc.stats().deduped as usize, second.len());
}

#[test]
fn kill_and_restart_resumes_from_the_journal_and_serves_from_cache() {
    let dir = std::env::temp_dir().join(format!("serve-flood-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let base = dir.join("journal");
    let lines: Vec<String> = flood_lines().into_iter().take(6).collect();

    // First life: journaling, group commit of 2; killed (dropped)
    // right after answering, without a drain.
    let mut expected: HashMap<String, String> = HashMap::new();
    {
        let mut o = opts(16);
        o.journal_base = Some(base.clone());
        o.fsync_every = 2;
        let mut svc = Service::new(o);
        for line in &lines {
            assert!(svc.handle_line(line).is_empty());
        }
        for resp in svc.process_ready() {
            assert_eq!(resp.get("type").and_then(|t| t.as_str()), Some("result"));
            let id = resp.get("id").unwrap().compact();
            expected.insert(id, resp.get("result").unwrap().compact());
        }
        assert_eq!(expected.len(), lines.len());
    }

    // Tear the journal's tail mid-record — the on-disk state a kill
    // between group commits can leave behind.
    let journal = shard_journal_path(&base, &tiny_cfg());
    let bytes = std::fs::read(&journal).expect("journal exists after kill");
    std::fs::write(&journal, &bytes[..bytes.len() - 25]).unwrap();

    // Second life: the intact prefix is restored and served from
    // cache; only the torn record is re-simulated; every byte
    // matches the first life.
    let mut o = opts(16);
    o.journal_base = Some(base.clone());
    let capture = cmp_obs::Capture::install();
    let mut svc = Service::new(o);
    for line in &lines {
        assert!(svc.handle_line(line).is_empty());
    }
    let responses = svc.process_ready();
    assert!(capture.contains("dropping torn tail"), "{:?}", capture.lines());
    drop(capture);
    assert_eq!(responses.len(), lines.len());
    let restored = svc.restored();
    assert!(restored > 0, "journal resume restored the intact prefix");
    assert!(restored < lines.len(), "the torn record was dropped");
    assert_eq!(svc.simulations(), lines.len() - restored, "only the torn record re-simulates");
    let cached = responses.iter().filter(|r| r.get("cached") == Some(&Json::Bool(true))).count();
    assert_eq!(cached, restored, "restored pairs are served from cache");
    for resp in &responses {
        let id = resp.get("id").unwrap().compact();
        assert_eq!(
            resp.get("result").unwrap().compact(),
            expected[&id],
            "post-restart bytes diverge for {id}"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mixes_and_multithreaded_share_one_service() {
    let mut svc = Service::new(opts(8));
    svc.handle_line(
        r#"{"type":"sweep","id":"s","workloads":["MIX1","barnes"],"orgs":["shared","nurapid"]}"#,
    );
    let responses = svc.process_ready();
    assert_eq!(responses.len(), 4);
    let mut lab = Lab::new(tiny_cfg());
    for resp in &responses {
        assert_eq!(resp.get("type").and_then(|t| t.as_str()), Some("result"));
        let w = resp.get("workload").and_then(|v| v.as_str()).unwrap();
        let workload = WorkloadId::from_catalog(w).unwrap();
        let org = OrgKind::from_name(resp.get("org").and_then(|v| v.as_str()).unwrap()).unwrap();
        let expect = run_result_to_json(lab.result(workload, org)).compact();
        assert_eq!(resp.get("result").unwrap().compact(), expect);
    }
}
