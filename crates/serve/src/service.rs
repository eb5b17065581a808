//! The serving core: a bounded admission queue in front of the
//! shared memoizing [`Lab`].
//!
//! The core is deliberately synchronous and single-threaded — the
//! binaries wrap it in reader/worker threads, tests drive it step by
//! step — which keeps every robustness property inspectable:
//!
//! * **Bounded admission** ([`Service::handle_line`]): the queue
//!   never exceeds `queue_capacity`; a request that does not fit is
//!   answered immediately with a structured `shed` response instead
//!   of growing memory.
//! * **Deadlines** ([`Service::process_ready`]): a request's
//!   `deadline-ms` becomes an absolute expiry at admission. Expired
//!   jobs are answered without simulating; jobs that expire mid-run
//!   are cut by the supervised pool's cancellation fence, so no
//!   partial result can escape into the cache or the journal.
//! * **Quarantine on first failure**: a job the sweep quarantines
//!   (panic, stall, lost worker) is answered at once with a
//!   structured job-failed error carrying a `replay` line — the
//!   pair's `run` request, which reproduces the failure when piped
//!   back in. Simulation purity means a retry would fail the same
//!   way, so there is none; only the shard supervisor restarts work.
//! * **Coalescing**: requests for an already-cached or in-batch
//!   duplicate pair are answered from one simulation (`cached: true`
//!   in the response, `serve.deduped` in the metrics).
//! * **Crash consistency**: each distinct run configuration shards to
//!   its own checkpoint journal; a restarted service resumes from
//!   whatever the group-committed journal retained and serves those
//!   pairs from cache.
//! * **Graceful drain** ([`Service::drain`]): still-queued jobs are
//!   shed with structured responses, journals are fsynced, and a
//!   summary response closes the stream.

use std::collections::VecDeque;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cmp_audit::ChaosSchedule;
use cmp_bench::journal::run_result_to_json;
use cmp_bench::shard::{request_line, run_sharded, ShardOptions, ShardSlot};
use cmp_bench::sweep::Resilience;
use cmp_bench::{BatchSlot, JobError, Json, Lab, Pair};
use cmp_obs::{Counter, Histogram};
use cmp_sim::{RunConfig, SimError};

use crate::request::{error_response, parse_line, JobSpec, Request};

/// `serve.*` metrics taxonomy (inert unless `CMP_OBS=1`; the plain
/// [`ServeStats`] mirror below is always live for `stats` responses).
static ADMITTED: Counter = Counter::new("serve.admitted");
static SHED: Counter = Counter::new("serve.shed");
static DEDUPED: Counter = Counter::new("serve.deduped");
static DEADLINE_EXPIRED: Counter = Counter::new("serve.deadline_expired");
static DRAINED: Counter = Counter::new("serve.drained");
static COMPLETED: Counter = Counter::new("serve.completed");
static FAILED: Counter = Counter::new("serve.failed");
static INVALID: Counter = Counter::new("serve.invalid");
/// Admission-to-result latency of completed jobs, in milliseconds.
static LATENCY_MS: Histogram = Histogram::new("serve.latency_ms");

/// Environment knobs of the serving layer (all parsed through
/// [`cmp_obs::env_parse_valid`], so a malformed value warns and falls
/// back instead of silently vanishing).
pub mod env {
    /// Bounded admission-queue capacity (integer >= 1, default 64).
    pub const QUEUE: &str = "CMP_SERVE_QUEUE";
    /// Worker threads per simulation batch (integer >= 1, default:
    /// `CMP_BENCH_THREADS` semantics).
    pub const THREADS: &str = "CMP_SERVE_THREADS";
    /// Default per-request deadline in milliseconds (integer >= 1,
    /// default: none).
    pub const DEADLINE_MS: &str = "CMP_SERVE_DEADLINE_MS";
    /// Request-line size ceiling in bytes (integer >= 64, default
    /// 65536).
    pub const MAX_LINE: &str = "CMP_SERVE_MAX_LINE";
    /// Journal group-commit interval while serving (integer >= 1,
    /// default 8; see `CMP_JOURNAL_FSYNC_EVERY` for the CLI default).
    pub const FSYNC_EVERY: &str = "CMP_SERVE_FSYNC_EVERY";
    /// Base path for per-shard checkpoint journals (default: no
    /// journaling).
    pub const JOURNAL: &str = "CMP_SERVE_JOURNAL";
    /// Worker *processes* for the OS-process sharded batch path
    /// (integer; 0 or 1 — the default — keeps batches in-process).
    pub const SHARD_WORKERS: &str = "CMP_SERVE_SHARD_WORKERS";
    /// Path of the `cmp-shard-worker` binary (default: discovered
    /// next to the current executable).
    pub const SHARD_WORKER: &str = "CMP_SHARD_WORKER";
    /// TCP connection cap of the accept loop (integer >= 1, default
    /// 64); see [`crate::conn`].
    pub const MAX_CONNS: &str = "CMP_SERVE_MAX_CONNS";
    /// TCP read/idle timeout in milliseconds (integer, default
    /// 120000; 0 disables); see [`crate::conn`].
    pub const IDLE_MS: &str = "CMP_SERVE_IDLE_MS";
}

/// Tuning of one [`Service`].
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Admission-queue capacity; submissions beyond it are shed.
    pub queue_capacity: usize,
    /// Worker threads a batch fans out to (per-request
    /// `max-concurrency` can lower, never raise, this).
    pub threads: usize,
    /// Deadline applied to requests that carry none.
    pub default_deadline: Option<Duration>,
    /// Request-line size ceiling in bytes.
    pub max_line_bytes: usize,
    /// Base path for per-shard checkpoint journals; `None` disables
    /// journaling.
    pub journal_base: Option<PathBuf>,
    /// Journal group-commit interval (1 = fsync every record).
    pub fsync_every: usize,
    /// Run sizing for requests that leave fields unset.
    pub default_config: RunConfig,
    /// One-shot chaos schedule applied to the first batch only
    /// (chaos tests): armed jobs are quarantined and answered with
    /// job-failed errors carrying replay lines.
    pub chaos: Option<ChaosSchedule>,
    /// Worker *processes* for the OS-process sharded batch path
    /// ([`cmp_bench::shard`]); `0` or `1` keeps every batch
    /// in-process. With 2+, a batch of 2+ distinct uncached pairs is
    /// partitioned across that many `cmp-shard-worker` processes.
    pub shard_workers: usize,
    /// Explicit `cmp-shard-worker` binary path; `None` discovers it
    /// next to the current executable.
    pub shard_worker: Option<PathBuf>,
}

impl ServeOptions {
    /// Defaults: bounded queue of 64, pool-default threads, no
    /// deadline, 64 KiB lines, no journal, group commit of 8, no
    /// process sharding.
    pub fn new(default_config: RunConfig) -> ServeOptions {
        ServeOptions {
            queue_capacity: 64,
            threads: cmp_bench::pool::default_threads(),
            default_deadline: None,
            max_line_bytes: 65_536,
            journal_base: None,
            fsync_every: 8,
            default_config,
            chaos: None,
            shard_workers: 0,
            shard_worker: None,
        }
    }

    /// Defaults overridden by the `CMP_SERVE_*` environment;
    /// unparsable values warn through cmp-obs and keep the default.
    pub fn from_env(default_config: RunConfig) -> ServeOptions {
        let mut o = ServeOptions::new(default_config);
        if let Some(n) = cmp_obs::env_parse_valid::<usize>(env::QUEUE, |n| *n >= 1) {
            o.queue_capacity = n;
        }
        if let Some(n) = cmp_obs::env_parse_valid::<usize>(env::THREADS, |n| *n >= 1) {
            o.threads = n;
        }
        if let Some(ms) = cmp_obs::env_parse_valid::<u64>(env::DEADLINE_MS, |n| *n >= 1) {
            o.default_deadline = Some(Duration::from_millis(ms));
        }
        if let Some(n) = cmp_obs::env_parse_valid::<usize>(env::MAX_LINE, |n| *n >= 64) {
            o.max_line_bytes = n;
        }
        if let Some(n) = cmp_obs::env_parse_valid::<usize>(env::FSYNC_EVERY, |n| *n >= 1) {
            o.fsync_every = n;
        }
        if let Ok(base) = std::env::var(env::JOURNAL) {
            if !base.trim().is_empty() {
                o.journal_base = Some(PathBuf::from(base));
            }
        }
        if let Some(n) = cmp_obs::env_parse_valid::<usize>(env::SHARD_WORKERS, |_| true) {
            o.shard_workers = n;
        }
        if let Ok(path) = std::env::var(env::SHARD_WORKER) {
            if !path.trim().is_empty() {
                o.shard_worker = Some(PathBuf::from(path));
            }
        }
        o
    }
}

/// Resolves the `cmp-shard-worker` binary: the explicit path when
/// given, otherwise a sibling of the current executable (where cargo
/// puts the bins of one package). `None` when neither exists — the
/// caller falls back to in-process batches or reports the
/// misconfiguration, it never panics.
pub fn worker_binary(explicit: Option<&Path>) -> Option<PathBuf> {
    if let Some(path) = explicit {
        return path.exists().then(|| path.to_path_buf());
    }
    let exe = std::env::current_exe().ok()?;
    let name = if cfg!(windows) { "cmp-shard-worker.exe" } else { "cmp-shard-worker" };
    let sibling = exe.parent()?.join(name);
    sibling.exists().then_some(sibling)
}

/// Always-live serving counters (the `stats` response; mirrored into
/// the inert-by-default `serve.*` obs metrics).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Jobs accepted into the bounded queue.
    pub admitted: u64,
    /// Jobs refused because the queue was full.
    pub shed: u64,
    /// Jobs answered without a fresh simulation (memo cache, journal
    /// resume, or in-batch duplicate coalescing).
    pub deduped: u64,
    /// Jobs whose deadline expired (in queue or mid-run, fenced).
    pub deadline_expired: u64,
    /// Jobs shed by a graceful drain.
    pub drained: u64,
    /// Jobs answered with a result.
    pub completed: u64,
    /// Jobs answered with an error: quarantined on their first
    /// failure, or rejected deterministically by the simulator.
    pub failed: u64,
    /// Request lines rejected by validation.
    pub invalid: u64,
}

struct Queued {
    spec: JobSpec,
    admitted_at: Instant,
    deadline_at: Option<Instant>,
}

/// Sizing plus the stop rule (its floats bit-cast so the key stays
/// `Ord`/`Eq`): an approx job must never share a lab — and its memo
/// cache — with an exact job of the same sizing.
type ShardKey = (u64, u64, u64, u64, u64, u64);

fn shard_key(cfg: &RunConfig) -> ShardKey {
    let (metric, rel, conf) = match cfg.stop {
        cmp_sim::StopRule::Fixed => (0u64, 0u64, 0u64),
        cmp_sim::StopRule::Confidence { metric, rel_half_width, confidence } => {
            (1 + metric as u64, rel_half_width.to_bits(), confidence.to_bits())
        }
    };
    (cfg.warmup_accesses, cfg.measure_accesses, cfg.seed, metric, rel, conf)
}

/// The serving core. See the module docs for the property list.
pub struct Service {
    opts: ServeOptions,
    labs: Vec<(ShardKey, Lab)>,
    queue: VecDeque<Queued>,
    chaos: Option<ChaosSchedule>,
    draining: bool,
    stats: ServeStats,
    started: Instant,
}

impl Service {
    /// A service with the given tuning and an empty queue.
    pub fn new(opts: ServeOptions) -> Service {
        let chaos = opts.chaos.clone();
        Service {
            opts,
            labs: Vec::new(),
            queue: VecDeque::new(),
            chaos,
            draining: false,
            stats: ServeStats::default(),
            started: Instant::now(),
        }
    }

    /// The live serving counters.
    pub fn stats(&self) -> ServeStats {
        self.stats
    }

    /// Jobs currently queued (admitted, not yet answered).
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Whether a drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// Total simulations actually performed across every shard.
    pub fn simulations(&self) -> usize {
        self.labs.iter().map(|(_, lab)| lab.simulations()).sum()
    }

    /// Pairs restored from journals across every shard.
    pub fn restored(&self) -> usize {
        self.labs.iter().map(|(_, lab)| lab.restored()).sum()
    }

    /// Handles one request line: parses, validates, and either
    /// answers immediately (admin requests, validation errors, sheds)
    /// or admits jobs for the next [`Service::process_ready`] call.
    /// Every returned [`Json`] is one response line.
    pub fn handle_line(&mut self, line: &str) -> Vec<Json> {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return Vec::new();
        }
        match parse_line(trimmed, self.opts.default_config, self.opts.max_line_bytes) {
            Err(e) => {
                self.stats.invalid += 1;
                INVALID.inc();
                // Best-effort correlation: a rejected request still
                // echoes its id when the line parsed far enough to
                // carry one.
                let id = Json::parse(trimmed)
                    .ok()
                    .and_then(|v| v.get("id").cloned())
                    .unwrap_or(Json::Null);
                vec![error_response(&id, &e)]
            }
            Ok(Request::Health(id)) => vec![self.health_response(id)],
            Ok(Request::Stats(id)) => vec![self.stats_response(id)],
            Ok(Request::Drain(id)) => self.drain_with_id(id),
            Ok(Request::Jobs(jobs)) => {
                let now = Instant::now();
                let mut responses = Vec::new();
                for spec in jobs {
                    if self.draining {
                        responses.push(self.shed_response(&spec, "draining"));
                        self.stats.shed += 1;
                        SHED.inc();
                        continue;
                    }
                    if self.queue.len() >= self.opts.queue_capacity {
                        responses.push(self.shed_response(&spec, "queue full"));
                        self.stats.shed += 1;
                        SHED.inc();
                        continue;
                    }
                    let deadline = spec.deadline.or(self.opts.default_deadline);
                    self.queue.push_back(Queued {
                        spec,
                        admitted_at: now,
                        deadline_at: deadline.map(|d| now + d),
                    });
                    self.stats.admitted += 1;
                    ADMITTED.inc();
                }
                responses
            }
        }
    }

    /// Runs every queued job through its lab and returns their
    /// response lines; the queue is empty afterwards.
    pub fn process_ready(&mut self) -> Vec<Json> {
        let now = Instant::now();
        let mut responses = Vec::new();
        let ready = std::mem::take(&mut self.queue);

        // Deadline fence #1: expired while queued — answered without
        // ever simulating.
        let (expired, ready): (Vec<_>, Vec<_>) =
            ready.into_iter().partition(|q| q.deadline_at.is_some_and(|t| t <= now));
        for q in expired {
            responses.push(self.deadline_response(&q));
        }

        // Group by (run-config shard, requested deadline, concurrency
        // cap): jobs in a group share one batch and a pool deadline. BTreeMap keeps group order deterministic.
        type GroupKey = (ShardKey, Option<u64>, Option<usize>);
        let mut groups: BTreeMap<GroupKey, Vec<Queued>> = BTreeMap::new();
        for q in ready {
            let key = (
                shard_key(&q.spec.cfg),
                q.spec.deadline.map(|d| d.as_millis() as u64),
                q.spec.max_concurrency,
            );
            groups.entry(key).or_default().push(q);
        }

        for ((shard, _, max_concurrency), group) in groups {
            responses.extend(self.run_group(shard, max_concurrency, group));
        }
        responses
    }

    fn run_group(
        &mut self,
        shard: ShardKey,
        max_concurrency: Option<usize>,
        group: Vec<Queued>,
    ) -> Vec<Json> {
        let cfg = group[0].spec.cfg;
        let slots = match self.shard_batch(shard, &group, cfg) {
            Some(slots) => slots,
            None => self.in_process_batch(shard, max_concurrency, &group, cfg),
        };
        self.answer_group(group, slots)
    }

    /// The single-process batch path: the group runs through the
    /// shared lab's supervised thread pool.
    fn in_process_batch(
        &mut self,
        shard: ShardKey,
        max_concurrency: Option<usize>,
        group: &[Queued],
        cfg: RunConfig,
    ) -> Vec<BatchSlot> {
        let now = Instant::now();
        let chaos = self.chaos.take();
        let threads = self.opts.threads;
        let lab = self.lab_for(shard, cfg);
        lab.set_threads(max_concurrency.map_or(threads, |c| c.min(threads)));

        // Pool deadline: the tightest remaining budget in the group
        // (the group shares one requested deadline, so the jobs'
        // budgets differ only by their admission instants).
        let deadline = group
            .iter()
            .filter_map(|q| q.deadline_at)
            .map(|t| t.saturating_duration_since(now))
            .min();
        lab.set_resilience(Resilience { deadline, chaos });

        let pairs: Vec<Pair> = group.iter().map(|q| q.spec.pair).collect();
        lab.run_batch(&pairs)
    }

    /// The OS-process sharded batch path: with [`ServeOptions::shard_workers`]
    /// at 2+ and a resolvable worker binary, a group of 2+ distinct
    /// uncached pairs fans out across `cmp-shard-worker` processes
    /// ([`cmp_bench::shard`]); results are adopted into the shared
    /// lab so coalescing, journaling, and the stats surface stay
    /// coherent with the in-process path. Returns `None` when the
    /// path does not apply (the caller falls back in-process).
    fn shard_batch(
        &mut self,
        shard: ShardKey,
        group: &[Queued],
        cfg: RunConfig,
    ) -> Option<Vec<BatchSlot>> {
        if self.opts.shard_workers < 2 {
            return None;
        }
        let Some(worker) = worker_binary(self.opts.shard_worker.as_deref()) else {
            cmp_obs::warn!(
                "shard workers configured but cmp-shard-worker not found, running in-process"
            );
            return None;
        };
        let lab = self.lab_for(shard, cfg);
        let mut seen = HashSet::new();
        let misses: Vec<Pair> = group
            .iter()
            .map(|q| q.spec.pair)
            .filter(|p| !lab.contains(p.0, p.1) && seen.insert(*p))
            .collect();
        if misses.len() < 2 {
            return None; // a process fleet for one pair is overhead, not isolation
        }

        let mut sopts = ShardOptions::new(self.opts.shard_workers);
        sopts.journal_base =
            self.opts.journal_base.as_ref().map(|base| shard_journal_path(base, &cfg));
        let report = run_sharded(&worker, &misses, &cfg, &sopts);

        let mut failed: HashMap<Pair, cmp_sim::SimError> = HashMap::new();
        let mut quarantined: HashMap<Pair, String> = HashMap::new();
        let mut fresh_ms: HashMap<Pair, f64> = HashMap::new();
        let lab = self.lab_for(shard, cfg);
        for (pair, slot) in report.pairs.iter().zip(report.slots) {
            match slot {
                ShardSlot::Done { result, millis } => {
                    if let Some(ms) = millis {
                        fresh_ms.insert(*pair, ms);
                    }
                    lab.adopt(*pair, *result);
                }
                ShardSlot::Failed(e) => {
                    failed.insert(*pair, e);
                }
                ShardSlot::Quarantined { shard: s, cause } => {
                    quarantined.insert(*pair, format!("shard {s} {cause}"));
                }
            }
        }
        if let Err(e) = lab.sync_journal() {
            let msg = e.to_string();
            cmp_obs::warn!("journal sync failed after sharded batch", error = msg);
        }

        Some(
            group
                .iter()
                .map(|q| {
                    let pair = q.spec.pair;
                    if let Some(e) = failed.get(&pair) {
                        BatchSlot::Failed(e.clone())
                    } else if let Some(cause) = quarantined.get(&pair) {
                        BatchSlot::Quarantined(JobError::Panicked(cause.clone()))
                    } else if let Some(r) = lab.peek(pair) {
                        BatchSlot::Done {
                            result: Box::new(r.clone()),
                            millis: fresh_ms.remove(&pair),
                        }
                    } else {
                        BatchSlot::Quarantined(JobError::Cancelled)
                    }
                })
                .collect(),
        )
    }

    /// Turns per-submission batch slots into response lines and
    /// stats updates — shared by the in-process and sharded paths.
    fn answer_group(&mut self, group: Vec<Queued>, slots: Vec<BatchSlot>) -> Vec<Json> {
        let mut responses = Vec::new();
        let done = Instant::now();
        for (q, slot) in group.into_iter().zip(slots) {
            match slot {
                BatchSlot::Done { result, millis } => {
                    let cached = millis.is_none();
                    if cached {
                        self.stats.deduped += 1;
                        DEDUPED.inc();
                    }
                    self.stats.completed += 1;
                    COMPLETED.inc();
                    let latency = done.saturating_duration_since(q.admitted_at);
                    LATENCY_MS.record(latency.as_millis() as u64);
                    responses.push(result_response(&q.spec, &result, cached));
                }
                BatchSlot::Failed(e) => {
                    self.stats.failed += 1;
                    FAILED.inc();
                    responses.push(job_error_response(&q.spec, &e));
                }
                BatchSlot::Quarantined(je) => {
                    // Deadline fence #2: the pool cancelled it at the
                    // group's request deadline, or the request's own
                    // budget is gone — fenced, final.
                    let expired = q.deadline_at.is_some_and(|t| t <= Instant::now());
                    if expired || matches!(je, JobError::TimedOut) {
                        responses.push(self.deadline_response(&q));
                    } else {
                        self.stats.failed += 1;
                        FAILED.inc();
                        let e = SimError::JobFailed {
                            pair: format!("{}/{}", q.spec.pair.0.name(), q.spec.pair.1.name()),
                            cause: je.to_string(),
                        };
                        let mut resp = job_error_response(&q.spec, &e);
                        let replay = request_line(0, q.spec.pair, &q.spec.cfg);
                        resp.set("replay", Json::Str(replay));
                        responses.push(resp);
                    }
                }
            }
        }
        responses
    }

    fn lab_for(&mut self, shard: ShardKey, cfg: RunConfig) -> &mut Lab {
        // Lookup-or-insert without an `unwrap()` on the freshly
        // pushed element: resolve the index first, then reborrow, so
        // the borrow checker and the panic-free surface are both
        // satisfied.
        let i = match self.labs.iter().position(|(k, _)| *k == shard) {
            Some(i) => i,
            None => {
                let lab = self.build_lab(cfg);
                self.labs.push((shard, lab));
                self.labs.len() - 1
            }
        };
        &mut self.labs[i].1
    }

    /// Builds a shard's lab, degrading gracefully when its journal
    /// cannot be opened: a broken journal costs durability, never
    /// availability.
    fn build_lab(&self, cfg: RunConfig) -> Lab {
        let threads = self.opts.threads;
        let mut lab = match &self.opts.journal_base {
            Some(base) => {
                let path = shard_journal_path(base, &cfg);
                match Lab::with_journal(cfg, threads, &path) {
                    Ok(lab) => lab,
                    Err(err) => {
                        let msg = err.to_string();
                        let shown = path.display().to_string();
                        cmp_obs::warn!(
                            "serve journal unavailable, continuing without checkpointing",
                            path = shown,
                            error = msg
                        );
                        Lab::with_threads(cfg, threads)
                    }
                }
            }
            None => Lab::with_threads(cfg, threads),
        };
        lab.set_journal_fsync_every(self.opts.fsync_every);
        lab
    }

    /// Graceful drain: refuses new work, sheds everything still
    /// queued with structured responses, fsyncs every journal shard,
    /// and appends a `drained` summary line.
    pub fn drain(&mut self) -> Vec<Json> {
        self.drain_with_id(Json::Null)
    }

    fn drain_with_id(&mut self, id: Json) -> Vec<Json> {
        self.draining = true;
        let mut responses = Vec::new();
        while let Some(q) = self.queue.pop_front() {
            responses.push(self.shed_response(&q.spec, "draining"));
            self.stats.drained += 1;
            DRAINED.inc();
        }
        let mut synced = true;
        for (_, lab) in &mut self.labs {
            if let Err(e) = lab.sync_journal() {
                synced = false;
                let msg = e.to_string();
                cmp_obs::warn!("journal sync failed during drain", error = msg);
            }
        }
        let mut summary = Json::obj();
        summary.set("type", Json::Str("drained".into()));
        summary.set("id", id);
        summary.set("completed", Json::Num(self.stats.completed as f64));
        summary.set("shed-at-drain", Json::Num(self.stats.drained as f64));
        summary.set("journal-synced", Json::Bool(synced));
        responses.push(summary);
        responses
    }

    fn health_response(&self, id: Json) -> Json {
        let mut resp = Json::obj();
        resp.set("type", Json::Str("health".into()));
        resp.set("id", id);
        resp.set("status", Json::Str(if self.draining { "draining" } else { "ok" }.into()));
        resp.set("queued", Json::Num(self.queue.len() as f64));
        resp.set("uptime-ms", Json::Num(self.started.elapsed().as_millis() as f64));
        resp
    }

    fn stats_response(&self, id: Json) -> Json {
        let s = self.stats;
        let mut resp = Json::obj();
        resp.set("type", Json::Str("stats".into()));
        resp.set("id", id);
        let mut counters = Json::obj();
        counters.set("admitted", Json::Num(s.admitted as f64));
        counters.set("shed", Json::Num(s.shed as f64));
        counters.set("deduped", Json::Num(s.deduped as f64));
        counters.set("deadline-expired", Json::Num(s.deadline_expired as f64));
        counters.set("drained", Json::Num(s.drained as f64));
        counters.set("completed", Json::Num(s.completed as f64));
        counters.set("failed", Json::Num(s.failed as f64));
        counters.set("invalid", Json::Num(s.invalid as f64));
        resp.set("counters", counters);
        resp.set("queued", Json::Num(self.queue.len() as f64));
        resp.set("queue-capacity", Json::Num(self.opts.queue_capacity as f64));
        resp.set("simulations", Json::Num(self.simulations() as f64));
        resp.set("restored", Json::Num(self.restored() as f64));
        resp.set("draining", Json::Bool(self.draining));
        resp
    }

    fn shed_response(&self, spec: &JobSpec, reason: &str) -> Json {
        let mut resp = Json::obj();
        resp.set("type", Json::Str("shed".into()));
        resp.set("id", spec.id.clone());
        resp.set("workload", Json::Str(spec.pair.0.name().into()));
        resp.set("org", Json::Str(spec.pair.1.name().into()));
        resp.set("reason", Json::Str(reason.into()));
        resp
    }

    fn deadline_response(&mut self, q: &Queued) -> Json {
        self.stats.deadline_expired += 1;
        DEADLINE_EXPIRED.inc();
        let pair = format!("{}/{}", q.spec.pair.0.name(), q.spec.pair.1.name());
        error_response(&q.spec.id, &SimError::DeadlineExpired { pair })
    }
}

/// The per-shard journal path: the base decorated with the run
/// configuration, so shards with different sizing or seeds never mix
/// (the journal header would reject the mix anyway; distinct paths
/// make resume work instead of erroring).
pub fn shard_journal_path(base: &std::path::Path, cfg: &RunConfig) -> PathBuf {
    let stem = base.to_string_lossy();
    let stem = stem.strip_suffix(".jsonl").unwrap_or(&stem).to_string();
    // Approx shards get their own journal files: the stop-rule tag is
    // part of the result identity, same as sizing and seed.
    let stop = match cfg.stop {
        cmp_sim::StopRule::Fixed => String::new(),
        rule => format!("-{}", rule.tag().replace([':', '.'], "_")),
    };
    PathBuf::from(format!(
        "{stem}-w{}-m{}-s{}{stop}.jsonl",
        cfg.warmup_accesses, cfg.measure_accesses, cfg.seed
    ))
}

fn result_response(spec: &JobSpec, result: &cmp_sim::RunResult, cached: bool) -> Json {
    let mut resp = Json::obj();
    resp.set("type", Json::Str("result".into()));
    resp.set("id", spec.id.clone());
    resp.set("workload", Json::Str(spec.pair.0.name().into()));
    resp.set("org", Json::Str(spec.pair.1.name().into()));
    resp.set("cached", Json::Bool(cached));
    if !spec.scenario.is_empty() {
        resp.set("scenario", Json::Obj(spec.scenario.clone()));
    }
    resp.set("result", run_result_to_json(result));
    resp
}

fn job_error_response(spec: &JobSpec, err: &SimError) -> Json {
    let mut resp = error_response(&spec.id, err);
    resp.set("workload", Json::Str(spec.pair.0.name().into()));
    resp.set("org", Json::Str(spec.pair.1.name().into()));
    resp
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> ServeOptions {
        let cfg = RunConfig::sized(200, 400, 7);
        let mut o = ServeOptions::new(cfg);
        o.threads = 2;
        o.queue_capacity = 4;
        o
    }

    fn types(responses: &[Json]) -> Vec<String> {
        responses
            .iter()
            .map(|r| r.get("type").and_then(|t| t.as_str()).unwrap_or("?").to_string())
            .collect()
    }

    #[test]
    fn admit_process_answer_roundtrip() {
        let mut svc = Service::new(tiny_opts());
        let immediate =
            svc.handle_line(r#"{"type":"run","id":"a","workload":"barnes","org":"shared"}"#);
        assert!(immediate.is_empty(), "admitted jobs answer later, got {immediate:?}");
        assert_eq!(svc.pending(), 1);
        let responses = svc.process_ready();
        assert_eq!(types(&responses), ["result"]);
        assert_eq!(responses[0].get("id").and_then(|v| v.as_str()), Some("a"));
        assert_eq!(responses[0].get("cached"), Some(&Json::Bool(false)));
        assert!(responses[0].get("result").is_some());
        assert_eq!(svc.stats().completed, 1);
        assert_eq!(svc.pending(), 0);
    }

    #[test]
    fn queue_overflow_sheds_with_structured_responses() {
        let mut svc = Service::new(tiny_opts());
        let mut sheds = 0;
        for i in 0..10 {
            let line = format!(
                r#"{{"type":"run","id":"q{i}","workload":"barnes","org":"shared","seed":{i}}}"#
            );
            for resp in svc.handle_line(&line) {
                assert_eq!(resp.get("type").and_then(|t| t.as_str()), Some("shed"));
                assert_eq!(resp.get("reason").and_then(|r| r.as_str()), Some("queue full"));
                sheds += 1;
            }
        }
        assert_eq!(svc.pending(), 4, "queue is bounded at capacity");
        assert_eq!(sheds, 6);
        assert_eq!(svc.stats().shed, 6);
        assert_eq!(svc.stats().admitted, 4);
    }

    #[test]
    fn duplicates_coalesce_into_one_simulation() {
        let mut svc = Service::new(tiny_opts());
        for i in 0..3 {
            svc.handle_line(&format!(
                r#"{{"type":"run","id":"d{i}","workload":"barnes","org":"shared"}}"#
            ));
        }
        let responses = svc.process_ready();
        assert_eq!(types(&responses), ["result", "result", "result"]);
        assert_eq!(svc.simulations(), 1, "three identical requests, one simulation");
        assert_eq!(svc.stats().deduped, 2);
        let fresh: Vec<bool> =
            responses.iter().map(|r| r.get("cached") == Some(&Json::Bool(false))).collect();
        assert_eq!(fresh.iter().filter(|f| **f).count(), 1);
    }

    #[test]
    fn expired_deadline_is_answered_without_simulating() {
        let mut svc = Service::new(tiny_opts());
        svc.handle_line(
            r#"{"type":"run","id":"late","workload":"barnes","org":"shared","deadline-ms":1}"#,
        );
        std::thread::sleep(Duration::from_millis(5));
        let responses = svc.process_ready();
        assert_eq!(types(&responses), ["error"]);
        assert_eq!(responses[0].get("kind").and_then(|k| k.as_str()), Some("deadline-expired"));
        assert_eq!(svc.simulations(), 0, "expired work never reaches the lab");
        assert_eq!(svc.stats().deadline_expired, 1);
    }

    #[test]
    fn drain_sheds_queued_and_reports_summary() {
        let mut svc = Service::new(tiny_opts());
        svc.handle_line(r#"{"type":"run","id":"x","workload":"barnes","org":"shared"}"#);
        svc.handle_line(r#"{"type":"run","id":"y","workload":"barnes","org":"private"}"#);
        let responses = svc.drain();
        assert_eq!(types(&responses), ["shed", "shed", "drained"]);
        assert!(responses[..2]
            .iter()
            .all(|r| r.get("reason").and_then(|v| v.as_str()) == Some("draining")));
        assert!(svc.is_draining());
        // Post-drain submissions are shed immediately.
        let after =
            svc.handle_line(r#"{"type":"run","id":"z","workload":"barnes","org":"shared"}"#);
        assert_eq!(types(&after), ["shed"]);
        assert_eq!(after[0].get("reason").and_then(|v| v.as_str()), Some("draining"));
    }

    #[test]
    fn health_and_stats_answer_immediately() {
        let mut svc = Service::new(tiny_opts());
        let h = svc.handle_line(r#"{"type":"health","id":"h1"}"#);
        assert_eq!(types(&h), ["health"]);
        assert_eq!(h[0].get("status").and_then(|v| v.as_str()), Some("ok"));
        svc.handle_line(r#"{"type":"run","workload":"barnes","org":"shared"}"#);
        let s = svc.handle_line(r#"{"type":"stats"}"#);
        assert_eq!(types(&s), ["stats"]);
        assert_eq!(s[0].get("queued").and_then(|v| v.as_f64()), Some(1.0));
        let counters = s[0].get("counters").expect("counters object");
        assert_eq!(counters.get("admitted").and_then(|v| v.as_f64()), Some(1.0));
    }

    #[test]
    fn invalid_lines_get_field_level_errors() {
        let mut svc = Service::new(tiny_opts());
        let responses = svc.handle_line(r#"{"type":"run","id":"r1","workload":"oltp","org":"l4"}"#);
        assert_eq!(types(&responses), ["error"]);
        assert_eq!(responses[0].get("field").and_then(|v| v.as_str()), Some("org"));
        assert_eq!(
            responses[0].get("id").and_then(|v| v.as_str()),
            Some("r1"),
            "rejections echo the request id for correlation"
        );
        assert_eq!(svc.stats().invalid, 1);
    }

    /// The graceful-degradation branch of [`Service::build_lab`]. An unwritable journal base must
    /// warn, keep serving without checkpointing, and answer with
    /// byte-identical results.
    #[test]
    fn unavailable_journal_warns_and_serves_byte_identical_results() {
        let line = r#"{"type":"run","id":"j1","workload":"ocean","org":"nurapid"}"#;
        let result_bytes = |svc: &mut Service| {
            svc.handle_line(line);
            let responses = svc.process_ready();
            assert_eq!(types(&responses), ["result"]);
            responses[0].get("result").expect("result payload").compact()
        };

        // Reference: a journal-less service.
        let reference = result_bytes(&mut Service::new(tiny_opts()));

        // A journal base whose parent is a regular file cannot be
        // created — the degradation branch must absorb that.
        let blocker =
            std::env::temp_dir().join(format!("cmp-serve-journal-blocker-{}", std::process::id()));
        std::fs::write(&blocker, b"not a directory").expect("write blocker file");
        let mut opts = tiny_opts();
        opts.journal_base = Some(blocker.join("sub").join("serve.jsonl"));

        let capture = cmp_obs::Capture::install();
        let mut svc = Service::new(opts);
        let degraded = result_bytes(&mut svc);
        assert!(
            capture.contains("serve journal unavailable"),
            "the degradation branch must announce itself: {:?}",
            capture.lines()
        );
        drop(capture);
        assert_eq!(degraded, reference, "degradation costs durability, not correctness");
        assert_eq!(svc.simulations(), 1, "the pair was simulated, not dropped");
        let _ = std::fs::remove_file(&blocker);
    }

    #[test]
    fn quarantined_job_is_answered_once_with_a_replay_line() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !info.to_string().contains("injected worker panic") {
                prev(info);
            }
        }));
        let mut opts = tiny_opts();
        opts.chaos = Some(ChaosSchedule::new(vec![cmp_audit::ChaosSpec {
            job: 0,
            event: cmp_audit::ChaosEvent::WorkerPanic,
        }]));
        let mut svc = Service::new(opts);
        let line = r#"{"type":"run","id":"p","workload":"barnes","org":"shared"}"#;
        svc.handle_line(line);
        let capture = cmp_obs::Capture::install();
        let responses = svc.process_ready();
        assert!(capture.contains("sweep job quarantined"), "{:?}", capture.lines());
        drop(capture);
        assert_eq!(types(&responses), ["error"], "answered at once, not retried");
        assert_eq!(responses[0].get("kind").and_then(|k| k.as_str()), Some("failed"));
        let replay = responses[0].get("replay").and_then(|r| r.as_str()).expect("replay line");
        assert_eq!(svc.pending(), 0);
        assert_eq!(svc.stats().failed, 1);
        // The chaos was one-shot: replaying the line now succeeds.
        svc.handle_line(replay);
        assert_eq!(types(&svc.process_ready()), ["result"]);
    }

    #[test]
    fn worker_binary_resolution_never_panics() {
        // An explicit path that does not exist resolves to None.
        assert_eq!(worker_binary(Some(Path::new("/nonexistent/worker"))), None);
        // An explicit path that exists resolves to itself.
        let exe = std::env::current_exe().expect("test binary path");
        assert_eq!(worker_binary(Some(&exe)), Some(exe));
    }

    #[test]
    fn shard_batch_declines_without_workers_configured() {
        let mut svc = Service::new(tiny_opts());
        // shard_workers defaults to 0: the sharded path must decline
        // and the ordinary in-process path must answer.
        svc.handle_line(
            r#"{"type":"sweep","id":"s","workloads":["barnes"],"orgs":["shared","private"]}"#,
        );
        let responses = svc.process_ready();
        assert_eq!(types(&responses), ["result", "result"]);
        assert_eq!(svc.simulations(), 2);
    }

    #[test]
    fn bad_serve_env_warns_and_keeps_default() {
        let cfg = RunConfig::sized(200, 400, 7);
        std::env::set_var(env::QUEUE, "many");
        std::env::set_var(env::FSYNC_EVERY, "-3");
        let capture = cmp_obs::Capture::install();
        let opts = ServeOptions::from_env(cfg);
        std::env::remove_var(env::QUEUE);
        std::env::remove_var(env::FSYNC_EVERY);
        assert_eq!(opts.queue_capacity, 64, "default survives the bad value");
        assert_eq!(opts.fsync_every, 8);
        assert!(capture.contains("CMP_SERVE_QUEUE"), "warn names the variable");
        assert!(capture.contains("many"), "warn names the offending value");
        assert!(capture.contains("CMP_SERVE_FSYNC_EVERY"));
    }
}
