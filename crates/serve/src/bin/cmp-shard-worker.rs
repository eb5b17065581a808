//! One shard of a multi-process sweep: the simulation-owning side of
//! the supervisor/worker split (`cmp_bench::shard`).
//!
//! The supervisor (`cmp-shard`, or the service's sharded batch path)
//! spawns this binary once per partition, writes one `run` request
//! line per assigned pair on stdin — the exact NDJSON schema
//! `cmp-serve` speaks, validated by the same `parse_line` — and
//! closes the pipe. The worker answers each with a `result` line
//! (`cached: true` when the pair came from its journal) and exits 0
//! after a `done` line.
//!
//! Liveness is a dedicated heartbeat thread writing a line every
//! `--heartbeat-ms`, so the supervisor's watchdog distinguishes "slow
//! simulation" from "hung process" without guessing at simulation
//! cost. Durability is a per-shard checkpoint journal (`--journal`,
//! fsync per record): a SIGKILLed worker restarted with the same flag
//! re-answers journaled pairs from cache and re-simulates only the
//! rest. An unopenable journal degrades gracefully — warn, keep
//! serving, lose only resume.
//!
//! Test hooks (chaos harnesses only): `--delay-ms N` sleeps before
//! each simulation so a seeded kill lands mid-partition;
//! `CMP_SHARD_TEST_HANG=shard:attempt[:after]` makes exactly that
//! life stop heartbeating and hang after `after` answered jobs, which
//! is how the watchdog test produces a deterministic hang.

use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cmp_bench::journal::run_result_to_json;
use cmp_bench::{BatchSlot, Json, Lab, ResultSource};
use cmp_serve::request::{error_response, parse_line, JobSpec, Request};
use cmp_sim::{RunConfig, SimError};

/// Request lines above this are refused (matches the serve default).
const MAX_LINE_BYTES: usize = 65_536;

struct Args {
    shard: usize,
    attempt: u32,
    journal: Option<PathBuf>,
    heartbeat: Duration,
    delay: Option<Duration>,
}

fn usage() -> ! {
    eprintln!(
        "usage: cmp-shard-worker --shard N --attempt N [--journal PATH] \
         [--heartbeat-ms N] [--delay-ms N]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        shard: 0,
        attempt: 0,
        journal: None,
        heartbeat: Duration::from_millis(100),
        delay: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().unwrap_or_else(|| usage_missing(name));
        match arg.as_str() {
            "--shard" => args.shard = value("--shard").parse().unwrap_or_else(|_| usage()),
            "--attempt" => args.attempt = value("--attempt").parse().unwrap_or_else(|_| usage()),
            "--journal" => args.journal = Some(PathBuf::from(value("--journal"))),
            "--heartbeat-ms" => {
                let ms: u64 = value("--heartbeat-ms").parse().unwrap_or_else(|_| usage());
                args.heartbeat = Duration::from_millis(ms.max(1));
            }
            "--delay-ms" => {
                let ms: u64 = value("--delay-ms").parse().unwrap_or_else(|_| usage());
                args.delay = Some(Duration::from_millis(ms));
            }
            _ => usage(),
        }
    }
    args
}

fn usage_missing(name: &str) -> String {
    eprintln!("cmp-shard-worker: {name} needs a value");
    usage()
}

/// Writes one NDJSON line to stdout. The per-call stdout lock keeps
/// heartbeat lines and result lines from interleaving mid-line.
fn emit(value: &Json) {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{}", value.compact());
    let _ = out.flush();
}

fn status_line(kind: &str, shard: usize, attempt: u32) -> Json {
    let mut v = Json::obj();
    v.set("type", Json::Str(kind.into()));
    v.set("shard", Json::Num(shard as f64));
    v.set("attempt", Json::Num(attempt as f64));
    v
}

/// The hang hook: `CMP_SHARD_TEST_HANG=shard:attempt[:after]`.
fn hang_spec() -> Option<(usize, u32, usize)> {
    let spec = std::env::var("CMP_SHARD_TEST_HANG").ok()?;
    let mut parts = spec.split(':');
    let shard = parts.next()?.parse().ok()?;
    let attempt = parts.next()?.parse().ok()?;
    let after = parts.next().map_or(Some(0), |a| a.parse().ok())?;
    Some((shard, attempt, after))
}

/// Two run configurations that must share a journal/memo cache.
fn same_shard_config(a: &RunConfig, b: &RunConfig) -> bool {
    a.warmup_accesses == b.warmup_accesses
        && a.measure_accesses == b.measure_accesses
        && a.seed == b.seed
        && a.stop == b.stop
}

fn main() {
    let args = parse_args();
    let hang = hang_spec();

    // Heartbeats from a dedicated thread: they keep flowing while a
    // simulation runs, so the watchdog only fires on a truly hung
    // process (or on the hang hook switching them off).
    let alive = Arc::new(AtomicBool::new(true));
    {
        let alive = Arc::clone(&alive);
        let (shard, attempt, interval) = (args.shard, args.attempt, args.heartbeat);
        std::thread::spawn(move || {
            while alive.load(Ordering::Acquire) {
                std::thread::sleep(interval);
                if !alive.load(Ordering::Acquire) {
                    return;
                }
                emit(&status_line("heartbeat", shard, attempt));
            }
        });
    }
    emit(&status_line("hello", args.shard, args.attempt));

    // The lab is built lazily from the first job's run configuration
    // (which binds the journal header); the supervisor sends one
    // partition per process, so later jobs must agree.
    let mut lab: Option<Lab> = None;
    let mut jobs_done = 0usize;
    let mut simulated = 0usize;
    let defaults = RunConfig::quick();

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let specs = match parse_line(&line, defaults, MAX_LINE_BYTES) {
            Ok(Request::Jobs(specs)) => specs,
            Ok(_) => {
                let err = SimError::InvalidRequest {
                    field: "type".into(),
                    expected: "run/sweep (shard workers simulate; admin goes to cmp-serve)".into(),
                    got: "an admin request".into(),
                };
                emit(&error_response(&Json::Null, &err));
                continue;
            }
            Err(e) => {
                let id = Json::parse(line.trim())
                    .ok()
                    .and_then(|v| v.get("id").cloned())
                    .unwrap_or(Json::Null);
                emit(&error_response(&id, &e));
                continue;
            }
        };
        for spec in specs {
            if let Some((h_shard, h_attempt, h_after)) = hang {
                if h_shard == args.shard && h_attempt == args.attempt && jobs_done == h_after {
                    // Deterministic hang: stop heartbeating and stall
                    // so the supervisor's watchdog must SIGKILL us.
                    alive.store(false, Ordering::Release);
                    loop {
                        std::thread::sleep(Duration::from_secs(3600));
                    }
                }
            }
            if let Some(d) = args.delay {
                std::thread::sleep(d);
            }
            let (cached, response) = run_job(&args, &mut lab, &spec);
            if !cached {
                simulated += 1;
            }
            jobs_done += 1;
            emit(&response);
        }
    }

    if let Some(lab) = &mut lab {
        if let Err(e) = lab.sync_journal() {
            let msg = e.to_string();
            cmp_obs::warn!("shard worker journal sync failed", error = msg);
        }
    }
    let mut done = status_line("done", args.shard, args.attempt);
    done.set("jobs", Json::Num(jobs_done as f64));
    done.set("simulated", Json::Num(simulated as f64));
    alive.store(false, Ordering::Release);
    emit(&done);
}

/// Runs (or re-answers from the journal-backed cache) one job.
/// Returns `(cached, response_line)`.
fn run_job(args: &Args, lab: &mut Option<Lab>, spec: &JobSpec) -> (bool, Json) {
    if lab.is_none() {
        *lab = Some(build_lab(args, &spec.cfg));
    }
    let lab = lab.as_mut().expect("just built");
    if !same_shard_config(lab.config(), &spec.cfg) {
        let err = SimError::InvalidRequest {
            field: "warmup-accesses".into(),
            expected: "one run configuration per shard partition".into(),
            got: "a second configuration mid-partition".into(),
        };
        return (true, job_error(spec, &err));
    }
    let cached = lab.contains(spec.pair.0, spec.pair.1);
    let started = Instant::now();
    let slot = lab.run_batch(std::slice::from_ref(&spec.pair)).pop();
    match slot {
        Some(BatchSlot::Done { result, .. }) => {
            let mut resp = Json::obj();
            resp.set("type", Json::Str("result".into()));
            resp.set("id", spec.id.clone());
            resp.set("workload", Json::Str(spec.pair.0.name().into()));
            resp.set("org", Json::Str(spec.pair.1.name().into()));
            resp.set("cached", Json::Bool(cached));
            if !cached {
                resp.set("millis", Json::Num(started.elapsed().as_secs_f64() * 1e3));
            }
            resp.set("result", run_result_to_json(&result));
            (cached, resp)
        }
        Some(BatchSlot::Failed(e)) => (true, job_error(spec, &e)),
        Some(BatchSlot::Quarantined(je)) => {
            let err = SimError::JobFailed {
                pair: format!("{}/{}", spec.pair.0.name(), spec.pair.1.name()),
                cause: je.to_string(),
            };
            (true, job_error(spec, &err))
        }
        None => (
            true,
            job_error(
                spec,
                &SimError::JobFailed {
                    pair: format!("{}/{}", spec.pair.0.name(), spec.pair.1.name()),
                    cause: "empty batch slot".into(),
                },
            ),
        ),
    }
}

fn job_error(spec: &JobSpec, err: &SimError) -> Json {
    let mut resp = error_response(&spec.id, err);
    resp.set("workload", Json::Str(spec.pair.0.name().into()));
    resp.set("org", Json::Str(spec.pair.1.name().into()));
    resp
}

/// A single-threaded journal-backed lab for this partition. fsync is
/// per record: a shard worker's entire reason to exist is surviving
/// `kill -9`, so group commit's batching trade is wrong here.
fn build_lab(args: &Args, cfg: &RunConfig) -> Lab {
    match &args.journal {
        Some(path) => match Lab::with_journal(*cfg, 1, path) {
            Ok(mut lab) => {
                lab.set_journal_fsync_every(1);
                let mut resumed = status_line("resumed", args.shard, args.attempt);
                resumed.set("count", Json::Num(lab.restored() as f64));
                emit(&resumed);
                lab
            }
            Err(err) => {
                let msg = err.to_string();
                let shown = path.display().to_string();
                cmp_obs::warn!(
                    "shard journal unavailable, continuing without checkpointing",
                    path = shown,
                    error = msg
                );
                emit_resumed_zero(args);
                Lab::with_threads(*cfg, 1)
            }
        },
        None => {
            emit_resumed_zero(args);
            Lab::with_threads(*cfg, 1)
        }
    }
}

fn emit_resumed_zero(args: &Args) {
    let mut resumed = status_line("resumed", args.shard, args.attempt);
    resumed.set("count", Json::Num(0.0));
    emit(&resumed);
}
