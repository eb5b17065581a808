//! Self-checking chaos acceptance run for the serving layer.
//!
//! Drives an in-process [`Service`] through the failure modes the
//! robustness work claims to survive, and exits nonzero if any
//! property does not hold:
//!
//! 1. **Seeded chaos flood** — a request flood exceeding the bounded
//!    queue's capacity more than 4×, with worker panics and a stall
//!    injected into the first batch by a seeded [`ChaosSchedule`].
//!    Checks: the queue never admits past capacity, every refused
//!    job gets a structured `shed` response, every admitted job is
//!    answered in one pass (zero lost responses), each panicked job
//!    is answered with a structured job-failed error whose `replay`
//!    line parses back to the same pair and sizing, and every other
//!    served result is byte-identical to the [`Lab`] path's result
//!    for the same pair.
//! 2. **Deadline cancellation fencing** — requests with a 1 ms
//!    deadline must come back `deadline-expired`, never with a
//!    result, and must not poison the cache for later requests.
//! 3. **Mid-run kill/restart** — a journaling service is killed
//!    mid-run (simulated, per the repo's established idiom, by
//!    dropping the service and truncating the journal's tail
//!    mid-record — exactly what a SIGKILL between group commits
//!    leaves behind); a restarted service must resume the intact
//!    prefix and serve those pairs from cache without re-simulating.
//! 4. **Two front doors at once** — two threads answer rounds of
//!    their own requests through one [`SharedService`], racing on
//!    shared misses, with worker panics armed on the first batch.
//!    Checks: every request comes back exactly once and only to the
//!    thread that sent it, each armed panic answers job-failed with a
//!    replay line, and every result is byte-identical to the [`Lab`]
//!    path.
//!
//! Usage: `serve_chaos [quick|paper|<refs>]` (default: a
//! small fixed sizing — the properties under test are scale-free).

use std::collections::HashMap;
use std::time::Duration;

use cmp_audit::ChaosSchedule;
use cmp_bench::journal::run_result_to_json;
use cmp_bench::{parse_config, Json, Lab, Pair, ResultSource, WorkloadId, MULTITHREADED};
use cmp_serve::{parse_line, shard_journal_path, Request, ServeOptions, Service, SharedService};
use cmp_sim::{OrgKind, RunConfig};

fn main() {
    let cfg =
        parse_config(std::env::args().nth(1).as_deref(), RunConfig::sized(2_000, 4_000, 0xC4A05));
    let mut failures: Vec<String> = Vec::new();

    // The reference: the same pairs looked up one at a time in a Lab,
    // serialized to the exact bytes the journal/wire use.
    let orgs = [OrgKind::Shared, OrgKind::Private, OrgKind::Nurapid];
    let pairs: Vec<Pair> = MULTITHREADED
        .iter()
        .flat_map(|w| orgs.iter().map(move |&o| (WorkloadId::from_catalog(w).unwrap(), o)))
        .collect();
    let mut reference: HashMap<String, String> = HashMap::new();
    let mut lab = Lab::new(cfg);
    for &(w, o) in &pairs {
        let bytes = run_result_to_json(lab.result(w, o)).compact();
        reference.insert(format!("{}/{}", w.name(), o.name()), bytes);
    }
    eprintln!("serve_chaos: reference built ({} pairs)", pairs.len());

    flood_phase(cfg, &pairs, &reference, &mut failures);
    kill_restart_phase(cfg, &pairs, &reference, &mut failures);
    concurrent_phase(cfg, &pairs, &reference, &mut failures);

    if failures.is_empty() {
        eprintln!("serve_chaos: all properties held");
    } else {
        for f in &failures {
            cmp_obs::error!("serve_chaos property violated", what = f.as_str());
        }
        std::process::exit(1);
    }
}

fn key_of(resp: &Json) -> String {
    format!(
        "{}/{}",
        resp.get("workload").and_then(|v| v.as_str()).unwrap_or("?"),
        resp.get("org").and_then(|v| v.as_str()).unwrap_or("?"),
    )
}

/// Phase 1+2: chaos flood with deadlines.
fn flood_phase(
    cfg: RunConfig,
    pairs: &[Pair],
    reference: &HashMap<String, String>,
    failures: &mut Vec<String>,
) {
    const CAPACITY: usize = 8;
    let mut opts = ServeOptions::new(cfg);
    opts.queue_capacity = CAPACITY;
    opts.threads = 4;
    // One-shot chaos on the first batch: 2 panics + 1 stall across
    // the batch. The panics quarantine on their only attempt and must
    // come back as job-failed errors with replay lines; the 20 ms
    // stall just delays its job, proving slow work is not mistaken
    // for failure.
    let schedule = ChaosSchedule::seeded(0x5EED, CAPACITY.min(pairs.len()), 2, 1, 20);
    // The first batch is the admitted jobs f0..f7 in order, all
    // distinct pairs, so chaos job i is request f{i}.
    let armed: Vec<String> = schedule
        .specs()
        .iter()
        .filter(|s| s.event == cmp_audit::ChaosEvent::WorkerPanic)
        .map(|s| format!("f{}", s.job))
        .collect();
    opts.chaos = Some(schedule);
    let mut svc = Service::new(opts);

    // Flood: 5x capacity of run requests submitted before any
    // processing happens — the worker being behind is exactly the
    // overload scenario, so exactly `capacity` jobs may be admitted
    // and everything beyond must shed.
    let flood = CAPACITY * 5;
    let mut sheds = 0;
    let mut expected_answers = Vec::new();
    for i in 0..flood {
        let (w, o) = pairs[i % CAPACITY.min(pairs.len())];
        let line = format!(
            r#"{{"type":"run","id":"f{i}","workload":"{}","org":"{}"}}"#,
            w.name(),
            o.name()
        );
        let responses = svc.handle_line(&line);
        for resp in &responses {
            match resp.get("type").and_then(|t| t.as_str()) {
                Some("shed") => {
                    sheds += 1;
                    if resp.get("reason").and_then(|r| r.as_str()) != Some("queue full") {
                        failures.push(format!("shed without a structured reason: {resp}"));
                    }
                }
                other => failures.push(format!("unexpected pre-process response {other:?}")),
            }
        }
        if responses.is_empty() {
            expected_answers.push(format!("f{i}"));
        }
    }
    if svc.pending() > CAPACITY {
        failures.push(format!("queue exceeded capacity: {} > {CAPACITY}", svc.pending()));
    }
    if sheds != flood - CAPACITY {
        failures.push(format!("expected {} sheds, saw {sheds}", flood - CAPACITY));
    }

    // One pass answers every admitted job: nothing waits for a retry.
    let mut answered: HashMap<String, Json> = HashMap::new();
    for resp in svc.process_ready() {
        let id = resp.get("id").and_then(|v| v.as_str()).unwrap_or("?").to_string();
        answered.insert(id, resp);
    }
    if svc.pending() != 0 {
        failures.push(format!("{} job(s) still queued after one pass", svc.pending()));
    }
    for id in &expected_answers {
        match answered.get(id) {
            None => failures.push(format!("admitted job {id} got no response (lost in-flight)")),
            Some(resp) if armed.contains(id) => check_replay(cfg, id, resp, failures),
            Some(resp) => {
                if resp.get("type").and_then(|t| t.as_str()) != Some("result") {
                    failures.push(format!("admitted job {id} did not answer a result: {resp}"));
                } else {
                    let served = resp.get("result").map(|r| r.compact()).unwrap_or_default();
                    let expect = reference.get(&key_of(resp));
                    if Some(&served) != expect {
                        failures.push(format!(
                            "byte divergence vs CLI for {} (job {id})",
                            key_of(resp)
                        ));
                    }
                }
            }
        }
    }
    let stats = svc.stats();
    eprintln!(
        "serve_chaos flood: admitted={} shed={} failed={} deduped={} completed={}",
        stats.admitted, stats.shed, stats.failed, stats.deduped, stats.completed
    );
    if stats.failed != armed.len() as u64 {
        failures.push(format!("{} armed panic(s) but {} failed job(s)", armed.len(), stats.failed));
    }

    // Phase 2: deadline fencing. A 1 ms deadline on a pair that was
    // never simulated in this service cannot be met (the queue check
    // runs after a 5 ms sleep) and must come back deadline-expired.
    let victim = pairs[pairs.len() - 1];
    let line = format!(
        r#"{{"type":"run","id":"dl","workload":"{}","org":"{}","deadline-ms":1,"seed":999}}"#,
        victim.0.name(),
        victim.1.name()
    );
    let immediate = svc.handle_line(&line);
    if !immediate.is_empty() {
        failures.push(format!("deadline request was not admitted: {immediate:?}"));
    }
    std::thread::sleep(Duration::from_millis(5));
    let responses = svc.process_ready();
    let dl: Vec<&Json> =
        responses.iter().filter(|r| r.get("id").and_then(|v| v.as_str()) == Some("dl")).collect();
    if dl.len() != 1 || dl[0].get("kind").and_then(|k| k.as_str()) != Some("deadline-expired") {
        failures.push(format!("expected one deadline-expired response, got {dl:?}"));
    }
    // Fencing: the expired job must not have simulated anything under
    // its private seed (its shard would exist with one simulation).
    let sims_before = svc.simulations();
    let follow_up = format!(
        r#"{{"type":"run","id":"dl2","workload":"{}","org":"{}","seed":999}}"#,
        victim.0.name(),
        victim.1.name()
    );
    svc.handle_line(&follow_up);
    let responses = svc.process_ready();
    let fresh = responses
        .iter()
        .find(|r| r.get("id").and_then(|v| v.as_str()) == Some("dl2"))
        .and_then(|r| r.get("cached"));
    if fresh != Some(&Json::Bool(false)) {
        failures.push(format!(
            "expired deadline leaked state: follow-up was {fresh:?}, expected fresh (cached=false)"
        ));
    }
    if svc.simulations() != sims_before + 1 {
        failures.push("expired job left a partial simulation behind".into());
    }
}

/// An armed job's answer: a structured job-failed error whose replay
/// line is a valid `run` request for the same pair and sizing.
fn check_replay(cfg: RunConfig, id: &str, resp: &Json, failures: &mut Vec<String>) {
    let kind = resp.get("kind").and_then(|k| k.as_str());
    if resp.get("type").and_then(|t| t.as_str()) != Some("error") || kind != Some("failed") {
        failures.push(format!("armed job {id} was not answered job-failed: {resp}"));
        return;
    }
    let Some(replay) = resp.get("replay").and_then(|r| r.as_str()) else {
        failures.push(format!("armed job {id} failed without a replay line: {resp}"));
        return;
    };
    match parse_line(replay, cfg, 65_536) {
        Ok(Request::Jobs(jobs))
            if jobs.len() == 1
                && format!("{}/{}", jobs[0].pair.0.name(), jobs[0].pair.1.name())
                    == key_of(resp)
                && jobs[0].cfg.measure_accesses == cfg.measure_accesses
                && jobs[0].cfg.seed == cfg.seed => {}
        other => failures.push(format!("job {id} replay {replay} parses to {other:?}")),
    }
}

/// Phase 3: mid-run kill (torn journal tail) and restart.
fn kill_restart_phase(
    cfg: RunConfig,
    pairs: &[Pair],
    reference: &HashMap<String, String>,
    failures: &mut Vec<String>,
) {
    let dir = std::env::temp_dir().join(format!("serve-chaos-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        failures.push(format!("cannot create scratch dir: {e}"));
        return;
    }
    let base = dir.join("journal");
    let take = pairs.len().min(6);

    // First life: journaling service, group commit of 2, runs `take`
    // pairs, then dies without draining; we then tear the journal
    // tail mid-record, which is what a kill between group commits
    // can leave on disk.
    {
        let mut opts = ServeOptions::new(cfg);
        opts.threads = 2;
        opts.journal_base = Some(base.clone());
        opts.fsync_every = 2;
        let mut svc = Service::new(opts);
        for (i, (w, o)) in pairs[..take].iter().enumerate() {
            svc.handle_line(&format!(
                r#"{{"type":"run","id":"k{i}","workload":"{}","org":"{}"}}"#,
                w.name(),
                o.name()
            ));
        }
        let responses = svc.process_ready();
        let results = responses
            .iter()
            .filter(|r| r.get("type").and_then(|t| t.as_str()) == Some("result"))
            .count();
        if results != take {
            failures.push(format!("first life answered {results}/{take} jobs"));
        }
        // No drain, no sync: drop is the "kill".
    }
    let journal = shard_journal_path(&base, &cfg);
    let torn = match std::fs::read(&journal) {
        Ok(bytes) => bytes,
        Err(e) => {
            failures.push(format!("journal {} missing after kill: {e}", journal.display()));
            return;
        }
    };
    // Tear the tail mid-record: cut 40 bytes off the end, leaving a
    // record without its newline terminator.
    let cut = torn.len().saturating_sub(40);
    if std::fs::write(&journal, &torn[..cut]).is_err() {
        failures.push("cannot tear journal tail".into());
        return;
    }

    // Second life: resume. The torn record is dropped, the intact
    // prefix is restored, and re-requests are served from cache.
    let mut opts = ServeOptions::new(cfg);
    opts.threads = 2;
    opts.journal_base = Some(base.clone());
    let mut svc = Service::new(opts);
    for (i, (w, o)) in pairs[..take].iter().enumerate() {
        svc.handle_line(&format!(
            r#"{{"type":"run","id":"r{i}","workload":"{}","org":"{}"}}"#,
            w.name(),
            o.name()
        ));
    }
    let responses = svc.process_ready();
    let restored = svc.restored();
    if restored == 0 {
        failures.push("restart restored nothing from the journal".into());
    }
    if restored >= take {
        failures.push(format!(
            "torn tail was not dropped: restored {restored} of {take} journaled pairs"
        ));
    }
    let mut cached = 0;
    for resp in &responses {
        if resp.get("type").and_then(|t| t.as_str()) != Some("result") {
            failures.push(format!("restart response is not a result: {resp}"));
            continue;
        }
        if resp.get("cached") == Some(&Json::Bool(true)) {
            cached += 1;
        }
        let served = resp.get("result").map(|r| r.compact()).unwrap_or_default();
        if Some(&served) != reference.get(&key_of(resp)) {
            failures.push(format!("post-restart byte divergence for {}", key_of(resp)));
        }
    }
    if cached != restored {
        failures.push(format!(
            "journal resume served {cached} cached responses for {restored} restored pairs"
        ));
    }
    if svc.simulations() != take - restored {
        failures.push(format!(
            "restart re-simulated {} pairs, expected {} (torn tail only)",
            svc.simulations(),
            take - restored
        ));
    }
    eprintln!(
        "serve_chaos kill/restart: restored={restored} resimulated={} cached-responses={cached}",
        svc.simulations()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Phase 4: two front doors at once, faults armed.
fn concurrent_phase(
    cfg: RunConfig,
    pairs: &[Pair],
    reference: &HashMap<String, String>,
    failures: &mut Vec<String>,
) {
    const ROUND: usize = 3;
    let mut opts = ServeOptions::new(cfg);
    opts.threads = 2;
    // Both threads' rounds fit in flight together.
    opts.queue_capacity = 2 * ROUND;
    // The first round planned is ROUND distinct misses; its armed
    // jobs panic, whichever thread it belongs to.
    let schedule = ChaosSchedule::seeded(0xC0C0, ROUND, 2, 0, 0);
    let panics =
        schedule.specs().iter().filter(|s| s.event == cmp_audit::ChaosEvent::WorkerPanic).count();
    opts.chaos = Some(schedule);
    let shared = SharedService::new(Service::new(opts));
    // Thread 1 walks the pairs backwards, so the two threads start on
    // different misses and meet on shared ones.
    let answers: Vec<(Vec<String>, Vec<Json>)> = std::thread::scope(|s| {
        let shared = &shared;
        let handles: Vec<_> = (0..2)
            .map(|t| {
                s.spawn(move || {
                    let caller = shared.caller();
                    let order: Vec<Pair> =
                        if t == 0 { pairs.to_vec() } else { pairs.iter().rev().copied().collect() };
                    let (mut sent, mut got) = (Vec::new(), Vec::new());
                    for round in order.chunks(ROUND) {
                        let lines: Vec<String> = round
                            .iter()
                            .map(|(w, o)| {
                                let id = format!("t{t}-{}", sent.len());
                                sent.push(id.clone());
                                format!(
                                    r#"{{"type":"run","id":"{id}","workload":"{}","org":"{}"}}"#,
                                    w.name(),
                                    o.name()
                                )
                            })
                            .collect();
                        got.extend(shared.answer(caller, &lines));
                    }
                    (sent, got)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("front-door thread panicked")).collect()
    });

    let mut failed = 0;
    for (sent, got) in &answers {
        let mut seen: HashMap<String, usize> = HashMap::new();
        for resp in got {
            let id = resp.get("id").and_then(|v| v.as_str()).unwrap_or("?").to_string();
            *seen.entry(id.clone()).or_default() += 1;
            match resp.get("type").and_then(|t| t.as_str()) {
                Some("result") => {
                    let served = resp.get("result").map(|r| r.compact()).unwrap_or_default();
                    if Some(&served) != reference.get(&key_of(resp)) {
                        failures.push(format!("concurrent byte divergence for {}", key_of(resp)));
                    }
                }
                Some("error") => {
                    failed += 1;
                    check_replay(cfg, &id, resp, failures);
                }
                other => failures.push(format!("concurrent job {id} answered {other:?}")),
            }
        }
        for id in sent {
            if seen.remove(id) != Some(1) {
                failures.push(format!("concurrent job {id} was not answered exactly once"));
            }
        }
        for id in seen.keys() {
            failures.push(format!("response {id} reached a front door that did not send it"));
        }
    }
    if failed != panics {
        failures.push(format!("{panics} armed panic(s) but {failed} failed concurrent job(s)"));
    }
    eprintln!(
        "serve_chaos concurrent: answered={} failed={failed} simulations={}",
        answers.iter().map(|(_, got)| got.len()).sum::<usize>(),
        shared.lock().simulations()
    );
}
