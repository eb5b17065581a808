//! OS-process shard supervisor: fault isolation one level above the
//! supervised thread pool.
//!
//! [`crate::pool`] isolates worker *panics*; it cannot survive an
//! abort, an OOM kill, or a wedged allocator, because those take the
//! whole process down. This module moves the fault domain boundary to
//! the process: a supervisor (this code) owns only orchestration
//! state — partitions, attempt counts, journaling paths — and N
//! worker processes (`cmp-shard-worker`, in `cmp-serve`) own only
//! simulation state, talking NDJSON over stdin/stdout pipes. Losing a
//! worker to `kill -9` loses at most the pairs that worker had not
//! yet journaled.
//!
//! The robustness loop, in order of escalation:
//!
//! * **Deterministic partitioning**: pair `i` of the submitted batch
//!   belongs to shard `i % workers`, so a re-run (or a resumed run)
//!   assigns identical partitions and the per-shard journals line up.
//! * **Heartbeats + watchdog**: workers emit a heartbeat line every
//!   [`ShardOptions::heartbeat_interval`] from a dedicated thread; a
//!   shard silent for [`ShardOptions::heartbeat_timeout`] is SIGKILLed
//!   by the supervisor (`Child::kill`), which converts a hang into the
//!   crash path below.
//! * **Restart with backoff + journal resume**: a crashed or killed
//!   worker is restarted after an exponentially growing backoff and
//!   re-sent its *full* partition; its per-shard journal answers the
//!   already-simulated pairs from cache (`cached: true`), so only
//!   unjournaled pairs are re-simulated. Exit codes and signals are
//!   recorded per shard and folded into `shard.*` obs counters.
//! * **Quarantine**: a shard that fails [`ShardOptions::max_attempts`]
//!   lives stops being restarted; its still-missing pairs become
//!   [`ShardSlot::Quarantined`] entries of a *partial*
//!   [`MultiShardReport`] instead of aborting the sweep.
//!
//! Simulation purity makes all of this safe: a pair's result is a
//! pure function of `(pair, config)`, so a restarted worker's results
//! are bit-identical to the lost worker's, and the merged report is
//! byte-identical to a single-process [`crate::lab::Lab`]
//! sweep — `cmp-serve`'s shard suite proves that equality on
//! serialized bytes while SIGKILLing every worker mid-sweep from a
//! seeded [`KillSchedule`].

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use cmp_mem::Rng;
use cmp_obs::Counter;
use cmp_sim::{RunConfig, RunResult, SimError, StopRule};

use crate::journal::{run_result_from_json, run_result_to_json};
use crate::json::Json;
use crate::lab::{BatchPlan, BatchSlot, Pair, RanBatch, WorkloadId};
use crate::pool::JobError;
use crate::sweep::{Quarantined, SweepReport};

/// `shard.*` metrics taxonomy (inert unless `CMP_OBS=1`), folded once
/// per [`run_sharded`] call from the per-shard stats.
static SPAWNS: Counter = Counter::new("shard.spawns");
static RESTARTS: Counter = Counter::new("shard.restarts");
static WATCHDOG_KILLS: Counter = Counter::new("shard.watchdog_kills");
static CHAOS_KILLS: Counter = Counter::new("shard.chaos_kills");
static EXIT_SIGNALS: Counter = Counter::new("shard.exit_signals");
static EXIT_NONZERO: Counter = Counter::new("shard.exit_nonzero");
static RESULTS: Counter = Counter::new("shard.results");
static RESUMED: Counter = Counter::new("shard.resumed");
static HEARTBEATS: Counter = Counter::new("shard.heartbeats");
static QUARANTINED: Counter = Counter::new("shard.quarantined");

/// One armed SIGKILL of the chaos schedule: shard `shard` is killed
/// on life `attempt` (0-based) once the supervisor has received
/// `after_results` result lines from that life (`0` = kill on the
/// worker's hello, before any result).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KillSpec {
    /// Target shard index.
    pub shard: usize,
    /// 0-based life of that shard the kill is armed for.
    pub attempt: u32,
    /// Result lines to let through before the SIGKILL.
    pub after_results: usize,
}

/// A deterministic SIGKILL schedule for the supervisor, mirroring the
/// lab layer's `ChaosSchedule`: a pure function of its seed, armed at
/// attempt 0 by [`KillSchedule::seeded`], so a supervisor with at
/// least one restart left must converge to the fault-free results bit
/// for bit.
#[derive(Clone, Debug, Default)]
pub struct KillSchedule {
    specs: Vec<KillSpec>,
}

impl KillSchedule {
    /// A schedule from explicit specs (tests, quarantine drills).
    pub fn new(specs: Vec<KillSpec>) -> Self {
        KillSchedule { specs }
    }

    /// Seeded schedule: SIGKILL `kills` distinct shards (capped at
    /// `shards`) on their first life, each after letting
    /// `after_results` results through. Deterministic in `seed`.
    pub fn seeded(seed: u64, shards: usize, kills: usize, after_results: usize) -> Self {
        let want = kills.min(shards);
        let mut rng = Rng::new(seed ^ 0xDEAD_05EED);
        let mut chosen: Vec<usize> = Vec::with_capacity(want);
        while chosen.len() < want {
            let shard = rng.gen_range(shards as u64) as usize;
            if !chosen.contains(&shard) {
                chosen.push(shard);
            }
        }
        let specs =
            chosen.into_iter().map(|shard| KillSpec { shard, attempt: 0, after_results }).collect();
        KillSchedule { specs }
    }

    /// A schedule that kills `shard` on *every* life up to
    /// `max_attempts` — the quarantine drill: no restart can succeed,
    /// so the partition must land in the partial report.
    pub fn exhaust(shard: usize, max_attempts: u32) -> Self {
        let specs = (0..max_attempts)
            .map(|attempt| KillSpec { shard, attempt, after_results: 0 })
            .collect();
        KillSchedule { specs }
    }

    /// Whether a kill is armed for this exact (shard, life,
    /// results-received) state.
    pub fn armed(&self, shard: usize, attempt: u32, results: usize) -> bool {
        self.specs
            .iter()
            .any(|s| s.shard == shard && s.attempt == attempt && s.after_results == results)
    }

    /// The armed kills.
    pub fn specs(&self) -> &[KillSpec] {
        &self.specs
    }

    /// Number of armed kills.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

/// Tuning of one [`run_sharded`] call.
#[derive(Clone, Debug)]
pub struct ShardOptions {
    /// Worker processes to spawn (clamped to at least 1 and at most
    /// the pair count).
    pub workers: usize,
    /// Lives per shard before its remaining pairs are quarantined.
    pub max_attempts: u32,
    /// Heartbeat period workers are asked to emit at.
    pub heartbeat_interval: Duration,
    /// Silence threshold after which the watchdog SIGKILLs a shard.
    pub heartbeat_timeout: Duration,
    /// Base restart backoff; doubles per failed life.
    pub restart_backoff: Duration,
    /// Base path for per-shard worker journals
    /// (see [`worker_journal_path`]); `None` disables journaling, so
    /// a restarted worker re-simulates its whole partition.
    pub journal_base: Option<PathBuf>,
    /// Armed SIGKILL schedule (chaos tests only).
    pub kills: Option<KillSchedule>,
    /// Per-job pacing delay forwarded to workers (chaos tests only:
    /// keeps a kill mid-partition instead of racing worker exit).
    pub job_delay: Option<Duration>,
    /// Extra environment for spawned workers (test hooks).
    pub worker_env: Vec<(String, String)>,
}

impl ShardOptions {
    /// Defaults: 3 lives per shard, 100 ms heartbeats, 5 s watchdog,
    /// 50 ms base backoff, no journal, no chaos.
    pub fn new(workers: usize) -> ShardOptions {
        ShardOptions {
            workers,
            max_attempts: 3,
            heartbeat_interval: Duration::from_millis(100),
            heartbeat_timeout: Duration::from_secs(5),
            restart_backoff: Duration::from_millis(50),
            journal_base: None,
            kills: None,
            job_delay: None,
            worker_env: Vec::new(),
        }
    }
}

/// Per-shard robustness accounting, reported in
/// [`MultiShardReport::shards`] and folded into the `shard.*` obs
/// counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Pairs assigned to this shard's partition.
    pub assigned: usize,
    /// Lives started (1 = fault-free; more = restarts happened).
    pub lives: u32,
    /// Result lines received across all lives (journal-cached
    /// re-answers included).
    pub results: usize,
    /// Pairs the last-started life restored from its journal.
    pub resumed: usize,
    /// Heartbeat lines received.
    pub heartbeats: u64,
    /// Hung workers the watchdog SIGKILLed.
    pub watchdog_kills: u32,
    /// SIGKILLs delivered by the armed [`KillSchedule`].
    pub chaos_kills: u32,
    /// Lives that ended on a signal.
    pub exit_signals: u32,
    /// Lives that ended on a nonzero exit code.
    pub exit_nonzero: u32,
    /// Whether the shard exhausted its lives and was quarantined.
    pub quarantined: bool,
}

impl BatchPlan {
    /// Runs the plan's misses across `cmp-shard-worker` processes
    /// ([`run_sharded`]) instead of the in-process pool. A pair whose
    /// shard is quarantined comes back as [`BatchSlot::Quarantined`]
    /// and in the batch's report, with its replay line; the merge is
    /// [`crate::lab::Lab::commit`], same as an in-process batch.
    pub fn run_sharded(self, worker: &Path, opts: &ShardOptions) -> RanBatch {
        let cfg = *self.config();
        let outcome = run_sharded(worker, self.misses(), &cfg, opts);
        let mut report = SweepReport::default();
        let slots = outcome
            .pairs
            .iter()
            .zip(outcome.slots)
            .enumerate()
            .map(|(index, (&pair, slot))| match slot {
                ShardSlot::Done { result, millis } => BatchSlot::Done { result, millis },
                ShardSlot::Failed(e) => BatchSlot::Failed(e),
                ShardSlot::Quarantined { shard, cause } => {
                    let error = JobError::Panicked(format!("shard {shard} {cause}"));
                    let replay = request_line(index, pair, &cfg);
                    report.quarantined.push(Quarantined { pair, error: error.clone(), replay });
                    BatchSlot::Quarantined(error)
                }
            })
            .collect();
        self.ran(slots, report)
    }
}

/// Per-pair outcome of a sharded sweep, aligned with the submitted
/// pair slice (the process analogue of [`crate::lab::BatchSlot`]).
#[derive(Clone, Debug)]
pub enum ShardSlot {
    /// The worker's result for this pair.
    Done {
        /// The bit-exact result, round-tripped through the wire
        /// format (lossless by the journal's self-verify guarantee).
        result: Box<RunResult>,
        /// Worker wall-clock milliseconds when this life actually
        /// simulated the pair; `None` when it was answered from the
        /// worker's journal or memo cache.
        millis: Option<f64>,
    },
    /// The worker answered with a deterministic error (never
    /// retried).
    Failed(SimError),
    /// The owning shard exhausted its lives before this pair was
    /// delivered.
    Quarantined {
        /// The shard whose partition this pair belonged to.
        shard: usize,
        /// Human-readable cause of the shard's final failed life.
        cause: String,
    },
}

/// The merged outcome of a multi-process sweep: one slot per
/// submitted pair (submission order), plus per-shard robustness
/// stats. Partial by design — quarantined partitions appear as slots,
/// they never abort the sweep.
#[derive(Clone, Debug)]
pub struct MultiShardReport {
    /// Worker process count actually used (after clamping).
    pub workers: usize,
    /// The submitted pairs, in submission order.
    pub pairs: Vec<Pair>,
    /// One outcome per pair, aligned with `pairs`.
    pub slots: Vec<ShardSlot>,
    /// Per-shard robustness accounting.
    pub shards: Vec<ShardStats>,
}

impl MultiShardReport {
    /// Pairs answered with a result.
    pub fn completed(&self) -> usize {
        self.slots.iter().filter(|s| matches!(s, ShardSlot::Done { .. })).count()
    }

    /// Pairs lost to quarantined shards.
    pub fn quarantined(&self) -> usize {
        self.slots.iter().filter(|s| matches!(s, ShardSlot::Quarantined { .. })).count()
    }

    /// Whether every pair was answered with a result.
    pub fn is_complete(&self) -> bool {
        self.completed() == self.pairs.len()
    }

    /// Whether the sweep was both complete and fault-free (every
    /// shard finished on its first life).
    pub fn is_clean(&self) -> bool {
        self.is_complete() && self.shards.iter().all(|s| s.lives <= 1)
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        let lives: u32 = self.shards.iter().map(|s| s.lives).sum();
        let restarts = lives.saturating_sub(self.shards.len() as u32);
        format!(
            "{} pairs over {} workers: {} done, {} quarantined, {} restarts",
            self.pairs.len(),
            self.workers,
            self.completed(),
            self.quarantined(),
            restarts,
        )
    }

    /// The report as JSON: counters, per-shard stats, quarantined
    /// pairs, and every merged result in submission order (the
    /// `BENCH_shard.json` artifact shape).
    pub fn to_json(&self) -> Json {
        let mut report = Json::obj();
        report.set("workers", Json::Num(self.workers as f64));
        report.set("pairs", Json::Num(self.pairs.len() as f64));
        report.set("completed", Json::Num(self.completed() as f64));
        report.set("quarantined-pairs", Json::Num(self.quarantined() as f64));
        let mut shards = Vec::new();
        for s in &self.shards {
            let mut o = Json::obj();
            o.set("shard", Json::Num(s.shard as f64));
            o.set("assigned", Json::Num(s.assigned as f64));
            o.set("lives", Json::Num(s.lives as f64));
            o.set("results", Json::Num(s.results as f64));
            o.set("resumed", Json::Num(s.resumed as f64));
            o.set("heartbeats", Json::Num(s.heartbeats as f64));
            o.set("watchdog-kills", Json::Num(s.watchdog_kills as f64));
            o.set("chaos-kills", Json::Num(s.chaos_kills as f64));
            o.set("exit-signals", Json::Num(s.exit_signals as f64));
            o.set("exit-nonzero", Json::Num(s.exit_nonzero as f64));
            o.set("quarantined", Json::Bool(s.quarantined));
            shards.push(o);
        }
        report.set("shards", Json::Arr(shards));
        let mut quarantined = Vec::new();
        let mut results = Vec::new();
        for (pair, slot) in self.pairs.iter().zip(&self.slots) {
            match slot {
                ShardSlot::Done { result, .. } => {
                    let mut o = Json::obj();
                    o.set("workload", Json::Str(pair.0.name().into()));
                    o.set("org", Json::Str(pair.1.name().into()));
                    o.set("result", run_result_to_json(result));
                    results.push(o);
                }
                ShardSlot::Failed(e) => {
                    let mut o = Json::obj();
                    o.set("workload", Json::Str(pair.0.name().into()));
                    o.set("org", Json::Str(pair.1.name().into()));
                    o.set("error", Json::Str(e.to_string()));
                    quarantined.push(o);
                }
                ShardSlot::Quarantined { shard, cause } => {
                    let mut o = Json::obj();
                    o.set("workload", Json::Str(pair.0.name().into()));
                    o.set("org", Json::Str(pair.1.name().into()));
                    o.set("shard", Json::Num(*shard as f64));
                    o.set("cause", Json::Str(cause.clone()));
                    quarantined.push(o);
                }
            }
        }
        report.set("quarantined", Json::Arr(quarantined));
        report.set("results", Json::Arr(results));
        report
    }
}

/// The journal path of one worker shard: the base decorated with the
/// shard index, so partitions never share a file (the supervisor's
/// deterministic partitioning makes the same index carry the same
/// pairs across runs, which is what makes resume line up).
pub fn worker_journal_path(base: &Path, shard: usize) -> PathBuf {
    let stem = base.to_string_lossy();
    let stem = stem.strip_suffix(".jsonl").unwrap_or(&stem).to_string();
    PathBuf::from(format!("{stem}-shard{shard}.jsonl"))
}

/// The request line the supervisor sends a worker for global pair
/// index `index` — the serving layer's own `run` schema, so the
/// worker reuses `cmp-serve`'s strict validation unchanged. The same
/// line is the replay artifact of a quarantined sweep job
/// ([`crate::sweep::Quarantined::replay`]).
pub fn request_line(index: usize, pair: Pair, cfg: &RunConfig) -> String {
    let mut req = Json::obj();
    req.set("type", Json::Str("run".into()));
    req.set("id", Json::Str(format!("p{index}")));
    if let WorkloadId::Spec(s) = pair.0 {
        // The whole scenario travels, pinned to this pair's org and
        // the run's sizing: a bare name would miss (or worse, hit a
        // catalog workload), and the receiver's defaults must not
        // leak in.
        req.set("spec", s.spec.pinned(pair.1, cfg).to_json());
        return req.compact();
    }
    req.set("workload", Json::Str(pair.0.name().into()));
    req.set("org", Json::Str(pair.1.name().into()));
    req.set("warmup-accesses", Json::Num(cfg.warmup_accesses as f64));
    req.set("measure-accesses", Json::Num(cfg.measure_accesses as f64));
    req.set("seed", Json::Num(cfg.seed as f64));
    if let StopRule::Confidence { metric, rel_half_width, confidence } = cfg.stop {
        req.set("approx", Json::Bool(true));
        req.set("metric", Json::Str(metric.name().into()));
        req.set("rel-half-width", Json::Num(rel_half_width));
        req.set("confidence", Json::Num(confidence));
    }
    req.compact()
}

/// What one reader thread forwards to the supervisor loop.
enum Event {
    /// A line from a worker's stdout (any type: heartbeat, result,
    /// hello, resumed, done, error).
    Line { shard: usize, line: String },
    /// The worker's stdout closed (it exited or was killed).
    Eof { shard: usize, attempt: u32 },
}

/// Orchestration state of one shard. Simulation state lives in the
/// worker process — this is everything the supervisor needs to
/// restart one from scratch.
struct ShardState {
    /// Global pair indices of this shard's partition.
    assigned: Vec<usize>,
    child: Option<Child>,
    /// Lives started so far (the running life is `lives - 1`,
    /// 0-based, which is the `--attempt` the worker was handed).
    lives: u32,
    last_seen: Instant,
    results_this_life: usize,
    not_before: Instant,
    quarantined: Option<String>,
    stats: ShardStats,
}

impl ShardState {
    fn running(&self) -> bool {
        self.child.is_some()
    }

    fn remaining(&self, slots: &[Option<ShardSlot>]) -> usize {
        self.assigned.iter().filter(|&&i| slots[i].is_none()).count()
    }

    fn finished(&self, slots: &[Option<ShardSlot>]) -> bool {
        self.quarantined.is_some() || self.remaining(slots) == 0
    }
}

/// Runs `pairs` under `cfg` across [`ShardOptions::workers`] worker
/// processes spawned from the `worker` binary, and merges the
/// outcomes into a [`MultiShardReport`] in submission order.
///
/// Never panics and never aborts early: worker crashes, kills, and
/// hangs are absorbed by restart/backoff/quarantine (see the module
/// docs), and total failure — e.g. a missing worker binary — shows up
/// as a report whose every slot is quarantined, with the spawn error
/// as the cause.
pub fn run_sharded(
    worker: &Path,
    pairs: &[Pair],
    cfg: &RunConfig,
    opts: &ShardOptions,
) -> MultiShardReport {
    let _span = cmp_obs::span!("shard.run");
    let workers = opts.workers.clamp(1, pairs.len().max(1));
    let mut slots: Vec<Option<ShardSlot>> = (0..pairs.len()).map(|_| None).collect();
    let now = Instant::now();
    let mut shards: Vec<ShardState> = (0..workers)
        .map(|s| ShardState {
            assigned: (0..pairs.len()).filter(|i| i % workers == s).collect(),
            child: None,
            lives: 0,
            last_seen: now,
            results_this_life: 0,
            not_before: now,
            quarantined: None,
            stats: ShardStats {
                shard: s,
                assigned: (0..pairs.len()).filter(|i| i % workers == s).count(),
                ..ShardStats::default()
            },
        })
        .collect();

    let (tx, rx) = mpsc::channel::<Event>();
    let tick = (opts.heartbeat_timeout / 4).max(Duration::from_millis(5));

    loop {
        let now = Instant::now();
        for (s, shard) in shards.iter_mut().enumerate() {
            if !shard.running() && !shard.finished(&slots) && now >= shard.not_before {
                spawn_life(worker, s, shard, pairs, cfg, opts, &tx, &slots);
            }
        }
        if shards.iter().all(|s| !s.running() && s.finished(&slots)) {
            break;
        }

        match rx.recv_timeout(tick) {
            Ok(Event::Line { shard, line }) => {
                handle_line(&mut shards[shard], &line, pairs, &mut slots);
                maybe_chaos_kill(shard, &mut shards[shard], opts);
            }
            Ok(Event::Eof { shard, attempt }) => {
                // Each life produces exactly one EOF and a new life is
                // only spawned after the previous EOF was handled, so
                // a mismatched attempt is a stale event to drop.
                if attempt + 1 == shards[shard].lives {
                    handle_exit(&mut shards[shard], &slots, opts);
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }

        // Watchdog: any running shard silent past the threshold is
        // SIGKILLed; the EOF that follows routes it into the normal
        // crash/restart path.
        for s in shards.iter_mut() {
            if s.running() && s.last_seen.elapsed() > opts.heartbeat_timeout {
                if let Some(child) = &mut s.child {
                    let _ = child.kill();
                }
                s.stats.watchdog_kills += 1;
                // Reset the clock so one hang is one kill, not one
                // kill per tick while the EOF is in flight.
                s.last_seen = Instant::now();
            }
        }
    }

    // Quarantined shards: their missing pairs become explicit partial
    // slots rather than holes.
    for s in &shards {
        if let Some(cause) = &s.quarantined {
            for &i in &s.assigned {
                if slots[i].is_none() {
                    slots[i] =
                        Some(ShardSlot::Quarantined { shard: s.stats.shard, cause: cause.clone() });
                }
            }
        }
    }
    let slots: Vec<ShardSlot> = slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.unwrap_or(ShardSlot::Quarantined {
                shard: i % workers,
                cause: "shard finished without answering this pair".into(),
            })
        })
        .collect();

    let stats: Vec<ShardStats> = shards.into_iter().map(|s| s.stats).collect();
    record_obs(&stats);
    MultiShardReport { workers, pairs: pairs.to_vec(), slots, shards: stats }
}

/// Starts one life of a shard: spawn, feed the full partition over
/// stdin on a detached thread (the journal makes re-sent pairs
/// cached, and a detached writer can never wedge the supervisor on a
/// full pipe), and attach a reader thread forwarding stdout lines.
#[allow(clippy::too_many_arguments)]
fn spawn_life(
    worker: &Path,
    shard: usize,
    s: &mut ShardState,
    pairs: &[Pair],
    cfg: &RunConfig,
    opts: &ShardOptions,
    tx: &mpsc::Sender<Event>,
    slots: &[Option<ShardSlot>],
) {
    let attempt = s.lives;
    s.lives += 1;
    s.stats.lives = s.lives;
    let mut cmd = Command::new(worker);
    cmd.arg("--shard")
        .arg(shard.to_string())
        .arg("--attempt")
        .arg(attempt.to_string())
        .arg("--heartbeat-ms")
        .arg(opts.heartbeat_interval.as_millis().to_string())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if let Some(base) = &opts.journal_base {
        cmd.arg("--journal").arg(worker_journal_path(base, shard));
    }
    if let Some(d) = opts.job_delay {
        cmd.arg("--delay-ms").arg(d.as_millis().to_string());
    }
    for (k, v) in &opts.worker_env {
        cmd.env(k, v);
    }
    let mut child = match cmd.spawn() {
        Ok(c) => c,
        Err(e) => {
            let cause = format!("spawn failed: {e}");
            fail_life(s, cause, opts);
            return;
        }
    };

    // The full partition every life: pairs the worker already
    // journaled come back instantly as cached, everything else is
    // re-simulated — resume without supervisor-side bookkeeping.
    // Already-answered pairs are skipped purely as an optimization;
    // re-answers would merge idempotently (bit-identical results).
    let requests: Vec<String> = s
        .assigned
        .iter()
        .filter(|&&i| slots[i].is_none())
        .map(|&i| request_line(i, pairs[i], cfg))
        .collect();
    if let Some(mut stdin) = child.stdin.take() {
        std::thread::spawn(move || {
            for line in requests {
                if writeln!(stdin, "{line}").is_err() {
                    return; // worker died mid-feed; EOF path handles it
                }
            }
        });
    }
    if let Some(stdout) = child.stdout.take() {
        let tx = tx.clone();
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(Event::Line { shard, line }).is_err() {
                    return;
                }
            }
            let _ = tx.send(Event::Eof { shard, attempt });
        });
    } else {
        // No stdout pipe (should not happen): treat as a failed life.
        let _ = child.kill();
        let _ = child.wait();
        fail_life(s, "worker spawned without a stdout pipe".into(), opts);
        return;
    }
    s.child = Some(child);
    s.last_seen = Instant::now();
    s.results_this_life = 0;
}

/// One stdout line from a worker: refresh liveness, then dispatch on
/// its `type`. Unknown or malformed lines refresh liveness only (a
/// babbling worker is alive; the missing pairs will surface through
/// the exit path if it never delivers).
fn handle_line(s: &mut ShardState, line: &str, pairs: &[Pair], slots: &mut [Option<ShardSlot>]) {
    s.last_seen = Instant::now();
    let Ok(v) = Json::parse(line) else {
        cmp_obs::debug!("unparsable worker line", line = line);
        return;
    };
    match v.get("type").and_then(|t| t.as_str()) {
        Some("heartbeat") => s.stats.heartbeats += 1,
        Some("hello") | Some("done") => {}
        Some("resumed") => {
            if let Some(n) = v.get("count").and_then(|n| n.as_f64()) {
                s.stats.resumed = n as usize;
            }
        }
        Some("result") => {
            let Some(index) = v
                .get("id")
                .and_then(|id| id.as_str())
                .and_then(|id| id.strip_prefix('p'))
                .and_then(|n| n.parse::<usize>().ok())
                .filter(|&i| i < pairs.len())
            else {
                cmp_obs::warn!("worker result with unmappable id", line = line);
                return;
            };
            let Some(Ok(result)) = v.get("result").map(run_result_from_json) else {
                cmp_obs::warn!("worker result that does not round-trip", line = line);
                return;
            };
            let cached = v.get("cached") == Some(&Json::Bool(true));
            let millis = if cached { None } else { v.get("millis").and_then(|m| m.as_f64()) };
            slots[index] = Some(ShardSlot::Done { result: Box::new(result), millis });
            s.results_this_life += 1;
            s.stats.results += 1;
        }
        Some("error") => {
            let index = v
                .get("id")
                .and_then(|id| id.as_str())
                .and_then(|id| id.strip_prefix('p'))
                .and_then(|n| n.parse::<usize>().ok())
                .filter(|&i| i < pairs.len());
            if let Some(i) = index {
                let cause = v
                    .get("error")
                    .or_else(|| v.get("expected"))
                    .and_then(|e| e.as_str())
                    .unwrap_or("worker error")
                    .to_string();
                let pair = format!("{}/{}", pairs[i].0.name(), pairs[i].1.name());
                slots[i] = Some(ShardSlot::Failed(SimError::JobFailed { pair, cause }));
            }
        }
        _ => {}
    }
}

/// SIGKILLs the shard if the chaos schedule arms this exact state.
/// Checked after hellos (`after_results == 0`) and results.
fn maybe_chaos_kill(shard: usize, s: &mut ShardState, opts: &ShardOptions) {
    let Some(kills) = &opts.kills else { return };
    let attempt = s.lives.saturating_sub(1);
    if s.running() && kills.armed(shard, attempt, s.results_this_life) {
        if let Some(child) = &mut s.child {
            let _ = child.kill();
        }
        s.stats.chaos_kills += 1;
    }
}

/// A worker's stdout closed: reap it, record how the life ended, and
/// route an unfinished partition into restart or quarantine.
fn handle_exit(s: &mut ShardState, slots: &[Option<ShardSlot>], opts: &ShardOptions) {
    let Some(mut child) = s.child.take() else { return };
    let status = child.wait();
    let cause = match &status {
        Ok(st) if st.success() => "exited before completing its partition".to_string(),
        Ok(st) => match exit_signal(st) {
            Some(sig) => {
                s.stats.exit_signals += 1;
                format!("killed by signal {sig}")
            }
            None => {
                s.stats.exit_nonzero += 1;
                format!("exited with {st}")
            }
        },
        Err(e) => format!("could not be reaped: {e}"),
    };
    if s.remaining(slots) == 0 {
        return; // clean finish
    }
    fail_life(s, cause, opts);
}

/// A life failed with `cause`: schedule a backed-off restart, or
/// quarantine the shard once its lives are spent.
fn fail_life(s: &mut ShardState, cause: String, opts: &ShardOptions) {
    if s.lives >= opts.max_attempts.max(1) {
        let final_cause = format!("quarantined after {} lives; last: {cause}", s.lives);
        cmp_obs::warn!("shard quarantined", shard = s.stats.shard, cause = cause);
        s.quarantined = Some(final_cause);
        s.stats.quarantined = true;
        return;
    }
    let backoff = opts.restart_backoff * 2u32.saturating_pow(s.lives.saturating_sub(1));
    s.not_before = Instant::now() + backoff;
}

#[cfg(unix)]
fn exit_signal(status: &ExitStatus) -> Option<i32> {
    use std::os::unix::process::ExitStatusExt;
    status.signal()
}

#[cfg(not(unix))]
fn exit_signal(_status: &ExitStatus) -> Option<i32> {
    None
}

/// Folds per-shard stats into the `shard.*` obs counters, once per
/// sweep (same shape as the sweep layer's `record_sweep`).
fn record_obs(shards: &[ShardStats]) {
    for s in shards {
        SPAWNS.add(s.lives as u64);
        RESTARTS.add(s.lives.saturating_sub(1) as u64);
        WATCHDOG_KILLS.add(s.watchdog_kills as u64);
        CHAOS_KILLS.add(s.chaos_kills as u64);
        EXIT_SIGNALS.add(s.exit_signals as u64);
        EXIT_NONZERO.add(s.exit_nonzero as u64);
        RESULTS.add(s.results as u64);
        RESUMED.add(s.resumed as u64);
        HEARTBEATS.add(s.heartbeats);
        if s.quarantined {
            QUARANTINED.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmp_sim::OrgKind;

    fn pairs(n: usize) -> Vec<Pair> {
        let orgs = [OrgKind::Shared, OrgKind::Private, OrgKind::Nurapid];
        (0..n)
            .map(|i| (WorkloadId::Multithreaded(crate::MULTITHREADED[i % 5]), orgs[i % 3]))
            .collect()
    }

    #[test]
    fn partitioning_is_deterministic_and_covers_every_pair() {
        let n = 11;
        let workers = 4;
        let partitions: Vec<Vec<usize>> =
            (0..workers).map(|s| (0..n).filter(|i| i % workers == s).collect()).collect();
        let mut all: Vec<usize> = partitions.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..n).collect::<Vec<_>>(), "partitions cover every index once");
        assert_eq!(partitions[0], vec![0, 4, 8]);
        assert_eq!(partitions[3], vec![3, 7]);
    }

    #[test]
    fn kill_schedule_is_seed_deterministic_and_attempt0_armed() {
        let a = KillSchedule::seeded(0xFEED, 4, 2, 1);
        let b = KillSchedule::seeded(0xFEED, 4, 2, 1);
        assert_eq!(a.specs(), b.specs(), "pure function of the seed");
        assert_eq!(a.len(), 2);
        assert!(a.specs().iter().all(|s| s.attempt == 0), "attempt-0 arming");
        let shards: std::collections::HashSet<usize> = a.specs().iter().map(|s| s.shard).collect();
        assert_eq!(shards.len(), 2, "distinct shards");
        // Arming is exact on (shard, attempt, results).
        let spec = a.specs()[0];
        assert!(a.armed(spec.shard, 0, 1));
        assert!(!a.armed(spec.shard, 1, 1), "restarted lives run kill-free");
    }

    #[test]
    fn exhaust_schedule_kills_every_life() {
        let k = KillSchedule::exhaust(2, 3);
        assert_eq!(k.len(), 3);
        for attempt in 0..3 {
            assert!(k.armed(2, attempt, 0));
        }
        assert!(!k.armed(1, 0, 0), "only the targeted shard");
    }

    #[test]
    fn worker_journal_paths_are_per_shard() {
        let base = Path::new("/tmp/sweep.jsonl");
        assert_eq!(worker_journal_path(base, 0), PathBuf::from("/tmp/sweep-shard0.jsonl"));
        assert_eq!(worker_journal_path(base, 3), PathBuf::from("/tmp/sweep-shard3.jsonl"));
        let bare = Path::new("/tmp/sweep");
        assert_eq!(worker_journal_path(bare, 1), PathBuf::from("/tmp/sweep-shard1.jsonl"));
    }

    #[test]
    fn request_lines_reuse_the_serve_schema() {
        let cfg = RunConfig::sized(200, 400, 7);
        let line = request_line(5, (WorkloadId::Multithreaded("oltp"), OrgKind::Shared), &cfg);
        let v = Json::parse(&line).expect("valid JSON");
        assert_eq!(v.get("type").and_then(|t| t.as_str()), Some("run"));
        assert_eq!(v.get("id").and_then(|t| t.as_str()), Some("p5"));
        assert_eq!(v.get("workload").and_then(|t| t.as_str()), Some("oltp"));
        assert_eq!(v.get("org").and_then(|t| t.as_str()), Some("shared"));
        assert_eq!(v.get("seed").and_then(|t| t.as_f64()), Some(7.0));
        assert!(v.get("approx").is_none(), "fixed stop rule sends no approx fields");
        let approx_cfg = cfg.with_stop(StopRule::Confidence {
            metric: cmp_sim::StopMetric::Ipc,
            rel_half_width: 0.05,
            confidence: 0.9,
        });
        let line =
            request_line(0, (WorkloadId::Multithreaded("oltp"), OrgKind::Shared), &approx_cfg);
        let v = Json::parse(&line).expect("valid JSON");
        assert_eq!(v.get("approx"), Some(&Json::Bool(true)));
        assert_eq!(v.get("metric").and_then(|t| t.as_str()), Some("ipc"));
    }

    #[test]
    fn spec_request_lines_carry_the_pinned_scenario() {
        // Named like a catalog workload: a bare name would run the
        // 4-core catalog oltp instead of this 16-core scenario.
        let spec = crate::spec::ScenarioSpec::parse_str(r#"{"name":"oltp","cores":16}"#).unwrap();
        let pair = (WorkloadId::Spec(crate::spec::intern(&spec)), OrgKind::Private);
        let v = Json::parse(&request_line(2, pair, &RunConfig::sized(200, 400, 7))).unwrap();
        assert!(v.get("workload").is_none(), "a spec pair never travels by name");
        let sent = v.get("spec").expect("the scenario travels whole");
        assert_eq!(sent.get("cores").and_then(|t| t.as_f64()), Some(16.0));
        assert_eq!(sent.get("org").and_then(|t| t.as_str()), Some("private"), "the pair's org");
        assert_eq!(sent.get("measure-accesses").and_then(|t| t.as_f64()), Some(400.0));
        assert_eq!(sent.get("seed").and_then(|t| t.as_f64()), Some(7.0));
    }

    #[test]
    fn missing_worker_binary_quarantines_instead_of_aborting() {
        let ps = pairs(4);
        let cfg = RunConfig::sized(200, 400, 7);
        let mut opts = ShardOptions::new(2);
        opts.max_attempts = 2;
        opts.restart_backoff = Duration::from_millis(1);
        let capture = cmp_obs::Capture::install();
        let report = run_sharded(Path::new("/nonexistent/cmp-shard-worker"), &ps, &cfg, &opts);
        assert!(capture.contains("shard quarantined"), "{:?}", capture.lines());
        drop(capture);
        assert_eq!(report.pairs.len(), 4);
        assert_eq!(report.completed(), 0);
        assert_eq!(report.quarantined(), 4, "total failure is a partial report, not an abort");
        assert!(report.shards.iter().all(|s| s.quarantined && s.lives == 2));
        assert!(report.slots.iter().all(
            |s| matches!(s, ShardSlot::Quarantined { cause, .. } if cause.contains("spawn failed"))
        ));
        assert!(!report.is_complete());
        let json = report.to_json();
        assert_eq!(json.get("completed").and_then(|n| n.as_f64()), Some(0.0));
        assert_eq!(
            json.get("quarantined").and_then(|q| match q {
                Json::Arr(items) => Some(items.len()),
                _ => None,
            }),
            Some(4)
        );
    }

    #[test]
    fn report_json_carries_results_in_submission_order() {
        let ps = pairs(2);
        let report = MultiShardReport {
            workers: 2,
            pairs: ps.clone(),
            slots: vec![
                ShardSlot::Quarantined { shard: 0, cause: "drill".into() },
                ShardSlot::Failed(SimError::JobFailed { pair: "x/y".into(), cause: "nope".into() }),
            ],
            shards: vec![ShardStats { shard: 0, assigned: 1, ..Default::default() }],
        };
        assert_eq!(report.completed(), 0);
        assert_eq!(report.quarantined(), 1);
        assert!(!report.is_clean());
        assert!(report.summary().contains("2 pairs over 2 workers"));
        let json = report.to_json();
        let Some(Json::Arr(q)) = json.get("quarantined") else { panic!("quarantined array") };
        assert_eq!(q.len(), 2, "failed and quarantined slots both listed");
    }
}
