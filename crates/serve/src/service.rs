//! The serving core: a bounded admission queue in front of the
//! shared memoizing [`Lab`].
//!
//! **Lock discipline.** The front doors share one [`Service`] through
//! a [`SharedService`] (a mutex plus a condition variable). Each
//! request round runs in three phases. Admit and plan
//! ([`Service::admit`], [`Service::plan`]) happen under the lock, and
//! planning takes only the caller's own admissions. The misses are
//! simulated without the lock ([`Planned::run`]). Commit and answer
//! ([`Service::commit`]) happen under the lock again. A memo hit thus
//! never waits behind another front door's simulation, and misses from
//! different front doors simulate at the same time. Tests drive the
//! phases step by step, which keeps every robustness property
//! inspectable:
//!
//! * **Bounded admission** ([`Service::admit`]): queued plus
//!   in-flight jobs never exceed `queue_capacity`; a request that
//!   does not fit is answered immediately with a structured `shed`
//!   response instead of growing memory.
//! * **Deadlines** ([`Service::plan`]): a request's
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
//! * **Coalescing, per batch**: requests for an already-cached or
//!   in-batch duplicate pair are answered from one simulation
//!   (`cached: true` in the response, `serve.deduped` in the
//!   metrics). Two rounds that miss on the same pair concurrently
//!   both simulate it; the first commit caches and journals it.
//! * **Crash consistency**: each distinct run configuration shards to
//!   its own checkpoint journal; a restarted service resumes from
//!   whatever the group-committed journal retained and serves those
//!   pairs from cache.
//! * **Bounded shards**: the cap bounds open journal files, not
//!   results. At most [`MAX_OPEN_SHARDS`] shard labs stay open; the
//!   least recently used one has its journal synced and closed, but
//!   its results are kept, so the memo grows by one `RunResult` per
//!   distinct pair served. A later repeat is a memo hit that reads
//!   nothing back from the journal; a later miss reopens the shard and
//!   its journal for append.
//! * **Graceful drain** ([`Service::drain`], [`SharedService::drain`]):
//!   the caller's still-queued jobs are shed with structured
//!   responses, in-flight rounds commit, journals are fsynced, and a
//!   summary response closes the stream.

use std::collections::VecDeque;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use cmp_audit::ChaosSchedule;
use cmp_bench::journal::run_result_to_json;
use cmp_bench::shard::{request_line, ShardOptions};
use cmp_bench::sweep::Resilience;
use cmp_bench::{BatchPlan, BatchSlot, JobError, Json, Lab, Pair, RanBatch};
use cmp_obs::{Counter, Histogram};
use cmp_sim::{RunConfig, RunResult, SimError};

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

/// Which front door admitted a job. [`Service::plan`] takes only its
/// caller's admissions, so each front door (a TCP connection, the
/// stdin loop) answers exactly the jobs it admitted.
/// `Caller::default()` is the caller behind [`Service::handle_line`]
/// and [`Service::process_ready`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Caller(u64);

struct Queued {
    caller: Caller,
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

/// Most shard labs a service keeps open. Every distinct run
/// configuration (each request seed) is its own shard, and each open
/// shard holds its memo cache and journal file. The cap bounds the
/// files, not the results: past it the least recently used shard's
/// journal is synced and closed, and its results stay in the memo at
/// one `RunResult` per distinct pair served. A repeat is answered
/// from them; a miss reopens the shard's journal for append.
pub const MAX_OPEN_SHARDS: usize = 64;

/// The results a closed shard keeps: one per distinct pair it served.
type Kept = Box<[(Pair, RunResult)]>;

/// The serving core. See the module docs for the property list.
pub struct Service {
    opts: ServeOptions,
    /// Open shard labs, least recently used first.
    labs: Vec<(ShardKey, Lab)>,
    /// Results of the shards the cap has closed.
    closed: HashMap<ShardKey, Kept>,
    /// Simulations performed across every shard.
    simulations: usize,
    /// Journal records read back at each shard's first open.
    restored: usize,
    queue: VecDeque<Queued>,
    /// Jobs planned by [`Service::plan`] and not yet committed.
    in_flight: usize,
    /// Drain requests whose summary waits for in-flight jobs.
    drains_owed: Vec<(Caller, Json)>,
    next_caller: u64,
    chaos: Option<ChaosSchedule>,
    draining: bool,
    stats: ServeStats,
    started: Instant,
}

/// One caller's admitted jobs, planned under the service lock by
/// [`Service::plan`]. [`Planned::run`] simulates the misses without
/// the lock; [`Service::commit`] merges and answers them.
pub struct Planned {
    /// Answers settled while planning (deadlines expired in the
    /// queue).
    early: Vec<Json>,
    groups: Vec<PlannedGroup>,
}

/// Jobs sharing a shard, a requested deadline and a concurrency cap:
/// one batch.
struct PlannedGroup {
    shard: ShardKey,
    jobs: Vec<Queued>,
    work: Work<BatchPlan>,
    /// The worker binary and options when the batch fans out to
    /// `cmp-shard-worker` processes instead of the in-process pool.
    sharded: Option<(PathBuf, ShardOptions)>,
}

/// How a group is answered: from a closed shard's kept results, or by
/// a batch `B` (planned, then run) against its open lab.
enum Work<B> {
    Kept(Vec<BatchSlot>),
    Batch(B),
}

/// [`Planned`] work whose simulations have run, ready for
/// [`Service::commit`].
pub struct Ran {
    early: Vec<Json>,
    groups: Vec<(ShardKey, Vec<Queued>, Work<RanBatch>)>,
}

impl Planned {
    /// Jobs this plan will answer through [`Service::commit`].
    pub fn jobs(&self) -> usize {
        self.groups.iter().map(|g| g.jobs.len()).sum()
    }

    /// Simulates every group's misses. Needs no access to the
    /// service, so callers run it with the lock released.
    pub fn run(self) -> Ran {
        let groups = self
            .groups
            .into_iter()
            .map(|g| {
                let work = match (g.work, &g.sharded) {
                    (Work::Kept(slots), _) => Work::Kept(slots),
                    (Work::Batch(plan), Some((worker, sopts))) => {
                        Work::Batch(plan.run_sharded(worker, sopts))
                    }
                    (Work::Batch(plan), None) => Work::Batch(plan.run()),
                };
                (g.shard, g.jobs, work)
            })
            .collect();
        Ran { early: self.early, groups }
    }
}

impl Service {
    /// A service with the given tuning and an empty queue.
    pub fn new(opts: ServeOptions) -> Service {
        let chaos = opts.chaos.clone();
        Service {
            opts,
            labs: Vec::new(),
            closed: HashMap::new(),
            simulations: 0,
            restored: 0,
            queue: VecDeque::new(),
            in_flight: 0,
            drains_owed: Vec::new(),
            next_caller: 1,
            chaos,
            draining: false,
            stats: ServeStats::default(),
            started: Instant::now(),
        }
    }

    /// A fresh caller identity for a new front door.
    pub fn caller(&mut self) -> Caller {
        self.next_caller += 1;
        Caller(self.next_caller - 1)
    }

    /// The live serving counters.
    pub fn stats(&self) -> ServeStats {
        self.stats
    }

    /// Jobs currently queued (admitted, not yet planned).
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Jobs planned and not yet committed (their simulations may be
    /// running on another thread).
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Shard labs currently open (at most [`MAX_OPEN_SHARDS`]).
    pub fn open_shards(&self) -> usize {
        self.labs.len()
    }

    /// Whether a drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// Total simulations actually performed across every shard,
    /// closed ones included.
    pub fn simulations(&self) -> usize {
        self.simulations
    }

    /// Pairs restored from journals written before this service
    /// started (a shard reopened after the cap closed it already holds
    /// its own records, which are not counted again).
    pub fn restored(&self) -> usize {
        self.restored
    }

    /// [`Service::admit`] for the default caller.
    pub fn handle_line(&mut self, line: &str) -> Vec<Json> {
        self.admit(Caller::default(), line)
    }

    /// Handles one request line from `caller`: parses, validates, and
    /// either answers immediately (admin requests, validation errors,
    /// sheds) or admits jobs for the caller's next
    /// [`Service::plan`]. Every returned [`Json`] is one response
    /// line.
    pub fn admit(&mut self, caller: Caller, line: &str) -> Vec<Json> {
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
            Ok(Request::Drain(id)) => self.drain_request(caller, id),
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
                    if self.queue.len() + self.in_flight >= self.opts.queue_capacity {
                        responses.push(self.shed_response(&spec, "queue full"));
                        self.stats.shed += 1;
                        SHED.inc();
                        continue;
                    }
                    let deadline = spec.deadline.or(self.opts.default_deadline);
                    self.queue.push_back(Queued {
                        caller,
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

    /// Runs every job the default caller has queued and returns their
    /// response lines: [`Service::plan`], [`Planned::run`] and
    /// [`Service::commit`] back to back.
    pub fn process_ready(&mut self) -> Vec<Json> {
        let planned = self.plan(Caller::default());
        self.commit(planned.run())
    }

    /// Takes `caller`'s queued jobs and plans them: jobs whose
    /// deadline expired in the queue are answered now, the rest are
    /// grouped into batches and checked against the memo caches. The
    /// plan counts as in flight until [`Service::commit`].
    pub fn plan(&mut self, caller: Caller) -> Planned {
        let now = Instant::now();
        let mut early = Vec::new();
        let mine = self.take_queued(caller);

        // Deadline fence #1: expired while queued — answered without
        // ever simulating.
        let (expired, ready): (Vec<_>, Vec<_>) =
            mine.into_iter().partition(|q| q.deadline_at.is_some_and(|t| t <= now));
        for q in expired {
            early.push(self.deadline_response(&q));
        }

        // Group by (run-config shard, requested deadline, concurrency
        // cap): jobs in a group share one batch and a pool deadline.
        // BTreeMap keeps group order deterministic.
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
        let groups: Vec<PlannedGroup> = groups
            .into_iter()
            .map(|((shard, _, max_concurrency), jobs)| {
                self.plan_group(shard, max_concurrency, jobs)
            })
            .collect();
        let planned = Planned { early, groups };
        self.in_flight += planned.jobs();
        planned
    }

    /// Removes and returns `caller`'s queued jobs, in admission order.
    fn take_queued(&mut self, caller: Caller) -> VecDeque<Queued> {
        let (mine, rest) =
            std::mem::take(&mut self.queue).into_iter().partition(|q| q.caller == caller);
        self.queue = rest;
        mine
    }

    fn plan_group(
        &mut self,
        shard: ShardKey,
        max_concurrency: Option<usize>,
        jobs: Vec<Queued>,
    ) -> PlannedGroup {
        let cfg = jobs[0].spec.cfg;
        let pairs: Vec<Pair> = jobs.iter().map(|q| q.spec.pair).collect();
        // A closed shard that kept every pair answers without
        // reopening its journal.
        if let Some(slots) = self.closed.get(&shard).and_then(|kept| kept_slots(kept, &pairs)) {
            return PlannedGroup { shard, jobs, work: Work::Kept(slots), sharded: None };
        }
        let sharded = self.sharded_runner(shard, cfg, &pairs);
        // Pool deadline: the tightest remaining budget in the group
        // (the group shares one requested deadline, so the jobs'
        // budgets differ only by their admission instants).
        let now = Instant::now();
        let deadline = jobs
            .iter()
            .filter_map(|q| q.deadline_at)
            .map(|t| t.saturating_duration_since(now))
            .min();
        let chaos = if sharded.is_none() { self.chaos.take() } else { None };
        let threads = self.opts.threads;
        let lab = self.lab_for(shard, cfg);
        lab.set_threads(max_concurrency.map_or(threads, |c| c.min(threads)));
        lab.set_resilience(Resilience { deadline, chaos });
        let plan = lab.plan(&pairs);
        PlannedGroup { shard, jobs, work: Work::Batch(plan), sharded }
    }

    /// The OS-process sharded batch path applies with
    /// [`ServeOptions::shard_workers`] at 2+, a resolvable worker
    /// binary, and 2+ distinct uncached pairs in the group; the
    /// results come back through the same [`Lab::commit`] as an
    /// in-process batch, so coalescing, journaling, and the stats
    /// surface stay coherent. `None` runs the group in-process.
    fn sharded_runner(
        &mut self,
        shard: ShardKey,
        cfg: RunConfig,
        pairs: &[Pair],
    ) -> Option<(PathBuf, ShardOptions)> {
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
        let misses: HashSet<Pair> =
            pairs.iter().copied().filter(|p| !lab.contains(p.0, p.1)).collect();
        if misses.len() < 2 {
            return None; // a process fleet for one pair is overhead, not isolation
        }
        let mut sopts = ShardOptions::new(self.opts.shard_workers);
        sopts.journal_base =
            self.opts.journal_base.as_ref().map(|base| shard_journal_path(base, &cfg));
        Some((worker, sopts))
    }

    /// Merges run batches into their shards' memo caches and journals
    /// and answers every job of the plan.
    pub fn commit(&mut self, ran: Ran) -> Vec<Json> {
        let mut responses = ran.early;
        for (shard, jobs, work) in ran.groups {
            self.in_flight = self.in_flight.saturating_sub(jobs.len());
            let slots = match work {
                Work::Kept(slots) => slots,
                Work::Batch(batch) => {
                    let lab = self.lab_for(shard, jobs[0].spec.cfg);
                    let before = lab.simulations();
                    let slots = lab.commit(batch);
                    self.simulations += lab.simulations() - before;
                    slots
                }
            };
            responses.extend(self.answer_group(jobs, slots));
        }
        responses
    }

    /// Turns per-submission batch slots into response lines and
    /// stats updates.
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

    /// The shard's lab, opened (or reopened, with the results it
    /// kept) on demand and marked most recently used; opening past
    /// [`MAX_OPEN_SHARDS`] closes the least recently used shard.
    fn lab_for(&mut self, shard: ShardKey, cfg: RunConfig) -> &mut Lab {
        match self.labs.iter().position(|(k, _)| *k == shard) {
            Some(i) => self.labs[i..].rotate_left(1),
            None => {
                if self.labs.len() >= MAX_OPEN_SHARDS {
                    self.close_lru();
                }
                let mut lab = self.build_lab(cfg);
                match self.closed.remove(&shard) {
                    // This life's own records: kept, so not restored.
                    Some(kept) => lab.remember(kept.into_vec()),
                    None => self.restored += lab.restored(),
                }
                self.labs.push((shard, lab));
            }
        }
        let last = self.labs.len() - 1;
        &mut self.labs[last].1
    }

    /// Closes the least recently used shard: its journal is synced
    /// and closed, and its results are kept for later requests; a
    /// batch planned against it still commits, into the reopened lab.
    fn close_lru(&mut self) {
        let (shard, mut lab) = self.labs.remove(0);
        if let Err(e) = lab.sync_journal() {
            let msg = e.to_string();
            cmp_obs::warn!("journal sync failed closing a shard", error = msg);
        }
        self.closed.insert(shard, lab.into_results().into_boxed_slice());
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

    /// Graceful drain for the default caller: refuses new work, sheds
    /// its queued jobs with structured responses, fsyncs every open
    /// journal shard, and appends a `drained` summary line. Call it
    /// with nothing in flight; [`SharedService::drain`] waits for that.
    pub fn drain(&mut self) -> Vec<Json> {
        let mut responses = self.begin_drain(Caller::default());
        responses.push(self.finish_drain(Json::Null));
        responses
    }

    /// Refuses new work and sheds `caller`'s queued jobs. Other
    /// callers' admissions stay theirs to plan and answer.
    fn begin_drain(&mut self, caller: Caller) -> Vec<Json> {
        self.draining = true;
        let mut responses = Vec::new();
        for q in self.take_queued(caller) {
            responses.push(self.shed_response(&q.spec, "draining"));
            self.stats.drained += 1;
            DRAINED.inc();
        }
        responses
    }

    /// A `drain` request: the summary comes now when nothing is in
    /// flight, otherwise [`SharedService::answer`] delivers it after
    /// the last in-flight job commits.
    fn drain_request(&mut self, caller: Caller, id: Json) -> Vec<Json> {
        let mut responses = self.begin_drain(caller);
        if self.in_flight == 0 {
            responses.push(self.finish_drain(id));
        } else {
            self.drains_owed.push((caller, id));
        }
        responses
    }

    /// Whether `caller` asked for a drain whose summary is still owed.
    fn owes_drain(&self, caller: Caller) -> bool {
        self.drains_owed.iter().any(|(c, _)| *c == caller)
    }

    /// The summaries owed to `caller`; call with nothing in flight.
    fn finish_owed_drains(&mut self, caller: Caller) -> Vec<Json> {
        let (mine, rest): (Vec<_>, Vec<_>) =
            std::mem::take(&mut self.drains_owed).into_iter().partition(|(c, _)| *c == caller);
        self.drains_owed = rest;
        mine.into_iter().map(|(_, id)| self.finish_drain(id)).collect()
    }

    /// Fsyncs every open journal shard and builds the `drained`
    /// summary.
    fn finish_drain(&mut self, id: Json) -> Json {
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
        summary
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

/// A [`Service`] shared by concurrent front doors: TCP connections
/// and the stdin loop. The lock is held to admit and plan a round and
/// again to commit and answer it, never while it simulates; the
/// condition variable lets a drain wait for rounds still between plan
/// and commit.
pub struct SharedService {
    service: Mutex<Service>,
    committed: Condvar,
}

impl SharedService {
    /// Shares `service` between front doors.
    pub fn new(service: Service) -> SharedService {
        SharedService { service: Mutex::new(service), committed: Condvar::new() }
    }

    /// Locks the service. A front door that panicked mid-round leaves
    /// counters behind, not a broken invariant, so poison is ignored.
    pub fn lock(&self) -> MutexGuard<'_, Service> {
        self.service.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// A fresh caller identity for a new front door.
    pub fn caller(&self) -> Caller {
        self.lock().caller()
    }

    /// Answers one round of request lines from `caller`: admit and
    /// plan under the lock, simulate without it, then commit and
    /// answer under it. A drain requested in the round answers its
    /// summary after every other in-flight round has committed.
    pub fn answer<S: AsRef<str>>(&self, caller: Caller, lines: &[S]) -> Vec<Json> {
        let mut svc = self.lock();
        let mut responses: Vec<Json> =
            lines.iter().flat_map(|line| svc.admit(caller, line.as_ref())).collect();
        let planned = svc.plan(caller);
        drop(svc);
        let ran = planned.run();
        let mut svc = self.lock();
        responses.extend(svc.commit(ran));
        self.committed.notify_all();
        if svc.owes_drain(caller) {
            let mut svc = self.wait_idle(svc);
            responses.extend(svc.finish_owed_drains(caller));
        }
        responses
    }

    /// Graceful drain on behalf of `caller` (stdin EOF): sheds what
    /// is queued, waits for every in-flight job to commit, then syncs
    /// the journals and returns the `drained` summary last.
    pub fn drain(&self, caller: Caller) -> Vec<Json> {
        let mut svc = self.lock();
        let mut responses = svc.begin_drain(caller);
        let mut svc = self.wait_idle(svc);
        responses.push(svc.finish_drain(Json::Null));
        responses
    }

    fn wait_idle<'a>(&self, svc: MutexGuard<'a, Service>) -> MutexGuard<'a, Service> {
        self.committed.wait_while(svc, |s| s.in_flight > 0).unwrap_or_else(|p| p.into_inner())
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

/// Cached answers for every pair from a closed shard's kept results,
/// or `None` when it lacks one of them.
fn kept_slots(kept: &[(Pair, RunResult)], pairs: &[Pair]) -> Option<Vec<BatchSlot>> {
    pairs
        .iter()
        .map(|pair| {
            let (_, result) = kept.iter().find(|(k, _)| k == pair)?;
            Some(BatchSlot::Done { result: Box::new(result.clone()), millis: None })
        })
        .collect()
}

fn result_response(spec: &JobSpec, result: &RunResult, cached: bool) -> Json {
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

    /// Keeps the chaos schedule's deliberate panics off stderr; every
    /// other panic still reaches the previous hook.
    fn silence_injected_panics() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                if !info.to_string().contains("injected worker panic") {
                    prev(info);
                }
            }));
        });
    }

    /// An armed job's answer: job-failed with a replay line that
    /// parses back to one `run` request for the same pair and sizing.
    fn assert_failed_with_replay(resp: &Json, cfg: RunConfig) {
        assert_eq!(resp.get("kind").and_then(Json::as_str), Some("failed"), "{resp}");
        let replay = resp.get("replay").and_then(Json::as_str).expect("replay line");
        let Ok(Request::Jobs(jobs)) = parse_line(replay, cfg, 65_536) else {
            panic!("replay {replay} is not a run request");
        };
        let named = |k| resp.get(k).and_then(Json::as_str);
        assert_eq!(jobs.len(), 1, "{replay}");
        assert_eq!(Some(jobs[0].pair.0.name()), named("workload"), "{replay}");
        assert_eq!(Some(jobs[0].pair.1.name()), named("org"), "{replay}");
        let sizing = |c: &RunConfig| (c.warmup_accesses, c.measure_accesses, c.seed);
        assert_eq!(sizing(&jobs[0].cfg), sizing(&cfg), "{replay}");
    }

    #[test]
    fn quarantined_job_is_answered_once_with_a_replay_line() {
        silence_injected_panics();
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
        assert_failed_with_replay(&responses[0], svc.opts.default_config);
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

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cmp-serve-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    fn run_line(id: &str, workload: &str, org: &str, extra: &str) -> String {
        format!(r#"{{"type":"run","id":"{id}","workload":"{workload}","org":"{org}"{extra}}}"#)
    }

    fn ids(responses: &[Json]) -> Vec<&str> {
        responses.iter().map(|r| r.get("id").and_then(Json::as_str).unwrap_or("?")).collect()
    }

    fn payload(resp: &Json) -> String {
        resp.get("result").expect("result payload").compact()
    }

    #[test]
    fn each_caller_plans_and_answers_only_its_own_admissions() {
        let mut svc = Service::new(tiny_opts());
        let (a, b) = (svc.caller(), svc.caller());
        assert!(svc.admit(a, &run_line("a1", "barnes", "shared", "")).is_empty());
        assert!(svc.admit(b, &run_line("b1", "barnes", "private", "")).is_empty());
        assert!(svc.admit(a, &run_line("a2", "ocean", "shared", "")).is_empty());
        // b plans first and must not take a's jobs.
        let plan_b = svc.plan(b);
        assert_eq!(plan_b.jobs(), 1);
        assert_eq!(svc.pending(), 2, "a's admissions stay queued for a");
        let plan_a = svc.plan(a);
        assert_eq!((plan_a.jobs(), svc.pending(), svc.in_flight()), (2, 0, 3));
        let (ran_a, ran_b) = (plan_a.run(), plan_b.run());
        let rb = svc.commit(ran_b);
        assert_eq!((types(&rb), ids(&rb)), (vec!["result".to_string()], vec!["b1"]));
        let ra = svc.commit(ran_a);
        assert_eq!(types(&ra), ["result", "result"]);
        assert_eq!(ids(&ra), ["a1", "a2"]);
        assert_eq!(svc.in_flight(), 0);
    }

    #[test]
    fn concurrent_duplicate_misses_commit_one_record_and_identical_answers() {
        let dir = scratch_dir("dup-miss");
        let mut opts = tiny_opts();
        opts.journal_base = Some(dir.join("serve.jsonl"));
        let journal = shard_journal_path(&dir.join("serve.jsonl"), &opts.default_config);
        let mut svc = Service::new(opts);
        let (a, b) = (svc.caller(), svc.caller());
        svc.admit(a, &run_line("a", "barnes", "shared", ""));
        let plan_a = svc.plan(a);
        svc.admit(b, &run_line("b", "barnes", "shared", ""));
        let plan_b = svc.plan(b);
        // Neither plan has committed, so both miss: coalescing is per
        // batch, and the two simulations are bit-identical.
        let (ran_a, ran_b) = (plan_a.run(), plan_b.run());
        let ra = svc.commit(ran_a);
        let rb = svc.commit(ran_b);
        assert_eq!((types(&ra), types(&rb)), (vec!["result".to_string()], vec!["result".into()]));
        assert_eq!(ra[0].get("cached"), Some(&Json::Bool(false)));
        assert_eq!(rb[0].get("cached"), Some(&Json::Bool(false)));
        assert_eq!(payload(&ra[0]), payload(&rb[0]));
        assert_eq!(svc.simulations(), 1, "the memo keeps one result");
        drop(svc);
        let text = std::fs::read_to_string(&journal).expect("journal");
        assert_eq!(text.lines().count(), 2, "a header and one record:\n{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Journal records across every shard file under `dir`.
    fn journal_records(dir: &Path) -> usize {
        std::fs::read_dir(dir)
            .expect("journal dir")
            .map(|f| std::fs::read_to_string(f.expect("entry").path()).expect("journal"))
            .map(|text| text.lines().count() - 1) // the header
            .sum()
    }

    #[test]
    fn open_shards_stay_capped_and_closed_shards_keep_their_results() {
        let dir = scratch_dir("shard-cap");
        let mut opts = tiny_opts();
        opts.journal_base = Some(dir.join("serve.jsonl"));
        let mut svc = Service::new(opts);
        let mut plain = Service::new(tiny_opts());
        let n = MAX_OPEN_SHARDS + 4;
        let line = |seed: usize, org: &str| {
            run_line(&format!("s{seed}"), "barnes", org, &format!(r#","seed":{seed}"#))
        };
        let mut first = Vec::new();
        for seed in 0..n {
            svc.handle_line(&line(seed, "shared"));
            let resp = svc.process_ready();
            assert_eq!(types(&resp), ["result"]);
            first.push(payload(&resp[0]));
            assert!(svc.open_shards() <= MAX_OPEN_SHARDS, "{} open", svc.open_shards());
            plain.handle_line(&line(seed, "shared"));
            assert_eq!(payload(&plain.process_ready()[0]), first[seed]);
        }
        assert_eq!((svc.simulations(), plain.simulations()), (n, n));
        // The first seeds were closed. Their repeats are memo hits,
        // with or without a journal, and reopen nothing.
        let closed: Vec<ShardKey> = svc.closed.keys().copied().collect();
        assert_eq!(closed.len(), n - MAX_OPEN_SHARDS);
        for svc in [&mut svc, &mut plain] {
            for (seed, want) in first.iter().enumerate().take(4) {
                svc.handle_line(&line(seed, "shared"));
                let resp = svc.process_ready();
                assert_eq!(resp[0].get("cached"), Some(&Json::Bool(true)), "seed {seed}");
                assert_eq!(&payload(&resp[0]), want, "seed {seed}");
            }
            assert_eq!(svc.simulations(), n, "a repeat never simulates");
            assert!(svc.labs.iter().all(|(k, _)| !closed.contains(k)), "a hit reopened a shard");
        }
        assert_eq!(svc.restored(), 0, "a journaled repeat reads nothing back");
        assert_eq!(journal_records(&dir), n);
        // A miss on a closed shard reopens its journal for append and
        // keeps the shard's earlier result a memo hit.
        svc.handle_line(&line(0, "private"));
        assert_eq!(svc.process_ready()[0].get("cached"), Some(&Json::Bool(false)));
        svc.handle_line(&line(0, "shared"));
        let resp = svc.process_ready();
        assert_eq!(resp[0].get("cached"), Some(&Json::Bool(true)));
        assert_eq!(payload(&resp[0]), first[0]);
        assert!(svc.open_shards() <= MAX_OPEN_SHARDS);
        assert_eq!((svc.simulations(), svc.restored()), (n + 1, 0));
        drop(svc);
        assert_eq!(journal_records(&dir), n + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Waits (bounded) until some round is between plan and commit.
    fn await_in_flight(shared: &SharedService) {
        let start = Instant::now();
        while shared.lock().in_flight() == 0 {
            assert!(start.elapsed() < Duration::from_secs(10), "no round went in flight");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn stall_first_job(millis: u64) -> Option<ChaosSchedule> {
        Some(ChaosSchedule::new(vec![cmp_audit::ChaosSpec {
            job: 0,
            event: cmp_audit::ChaosEvent::JobStall { millis },
        }]))
    }

    #[test]
    fn drain_waits_for_in_flight_rounds_and_counts_them() {
        let dir = scratch_dir("drain-wait");
        let mut opts = tiny_opts();
        opts.journal_base = Some(dir.join("serve.jsonl"));
        // The stall keeps a's round in flight while b asks to drain.
        opts.chaos = stall_first_job(300);
        let shared = std::sync::Arc::new(SharedService::new(Service::new(opts.clone())));
        let a = shared.caller();
        let worker = {
            let shared = std::sync::Arc::clone(&shared);
            std::thread::spawn(move || shared.answer(a, &[run_line("a", "barnes", "shared", "")]))
        };
        await_in_flight(&shared);
        let b = shared.caller();
        let drained = shared.answer(b, &[r#"{"type":"drain","id":"d"}"#]);
        let answered = worker.join().expect("caller a");
        assert_eq!(types(&answered), ["result"]);
        assert_eq!(types(&drained), ["drained"]);
        let summary = &drained[0];
        assert_eq!(summary.get("id").and_then(Json::as_str), Some("d"));
        assert_eq!(summary.get("completed").and_then(Json::as_f64), Some(1.0), "{summary}");
        assert_eq!(summary.get("journal-synced"), Some(&Json::Bool(true)));
        // The committed record is durable: a restart restores it.
        opts.chaos = None;
        let restarted = Service::new(opts);
        let mut restarted = restarted;
        restarted.handle_line(&run_line("r", "barnes", "shared", ""));
        let resp = restarted.process_ready();
        assert_eq!(resp[0].get("cached"), Some(&Json::Bool(true)));
        assert_eq!(payload(&resp[0]), payload(&answered[0]));
        assert_eq!(restarted.restored(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deadline_fencing_holds_beside_a_concurrent_round() {
        let mut opts = tiny_opts();
        // a's job stalls past its 50 ms deadline; the pool cuts it.
        opts.chaos = stall_first_job(2_000);
        let shared = std::sync::Arc::new(SharedService::new(Service::new(opts)));
        let (a, b) = (shared.caller(), shared.caller());
        let worker = {
            let shared = std::sync::Arc::clone(&shared);
            let line = run_line("late", "barnes", "shared", r#","deadline-ms":50"#);
            std::thread::spawn(move || shared.answer(a, &[line]))
        };
        let capture = cmp_obs::Capture::install();
        await_in_flight(&shared);
        let other = shared.answer(b, &[run_line("b", "ocean", "private", "")]);
        assert_eq!(types(&other), ["result"], "b is not held behind a's stalled round");
        let late = worker.join().expect("caller a");
        assert!(capture.contains("cause=timed out"), "{:?}", capture.lines());
        drop(capture);
        assert_eq!(types(&late), ["error"]);
        assert_eq!(late[0].get("kind").and_then(Json::as_str), Some("deadline-expired"));
        // Fenced: nothing of the cut run reached the cache.
        let again = shared.answer(b, &[run_line("again", "barnes", "shared", "")]);
        assert_eq!(again[0].get("cached"), Some(&Json::Bool(false)));
        let svc = shared.lock();
        assert_eq!((svc.stats().deadline_expired, svc.simulations()), (1, 2));
    }

    #[test]
    fn two_front_doors_with_armed_panics_answer_each_id_once_to_its_sender() {
        use cmp_bench::ResultSource;
        const ROUND: usize = 3;
        silence_injected_panics();
        let mut opts = tiny_opts();
        // Both threads' rounds fit in flight together.
        opts.queue_capacity = 2 * ROUND;
        // The first round planned is ROUND distinct misses; its armed
        // jobs panic, whichever thread it belongs to.
        let schedule = ChaosSchedule::seeded(0xC0C0, ROUND, 2, 0, 0);
        let panics = schedule.len();
        opts.chaos = Some(schedule);
        let cfg = opts.default_config;
        let pairs: Vec<(&str, &str)> = cmp_bench::MULTITHREADED
            .iter()
            .flat_map(|&w| ["shared", "private", "nurapid"].map(|o| (w, o)))
            .collect();
        let shared = SharedService::new(Service::new(opts));
        let capture = cmp_obs::Capture::install();
        // Thread 1 walks the pairs backwards, so the two threads start
        // on different misses and meet on shared ones.
        let answers: Vec<(Vec<String>, Vec<Json>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|t| {
                    let (shared, pairs) = (&shared, &pairs);
                    s.spawn(move || {
                        let caller = shared.caller();
                        let mut order = pairs.clone();
                        if t == 1 {
                            order.reverse();
                        }
                        let (mut sent, mut got) = (Vec::new(), Vec::new());
                        for round in order.chunks(ROUND) {
                            let lines: Vec<String> = round
                                .iter()
                                .map(|(w, o)| {
                                    sent.push(format!("t{t}-{}", sent.len()));
                                    run_line(sent.last().unwrap(), w, o, "")
                                })
                                .collect();
                            got.extend(shared.answer(caller, &lines));
                        }
                        (sent, got)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("front-door thread")).collect()
        });
        assert!(capture.contains("sweep job quarantined"), "{:?}", capture.lines());
        drop(capture);

        let mut lab = Lab::new(cfg);
        let mut failed = 0;
        for (sent, got) in &answers {
            let mut seen: Vec<&str> = ids(got);
            seen.sort_unstable();
            let mut want: Vec<&str> = sent.iter().map(String::as_str).collect();
            want.sort_unstable();
            assert_eq!(seen, want, "each id answered exactly once, only to its sender");
            for resp in got {
                if resp.get("type").and_then(Json::as_str) == Some("error") {
                    failed += 1;
                    assert_failed_with_replay(resp, cfg);
                    continue;
                }
                assert_eq!(resp.get("type").and_then(Json::as_str), Some("result"), "{resp}");
                let named = |k| resp.get(k).and_then(Json::as_str).expect("pair field");
                let w = cmp_bench::WorkloadId::from_catalog(named("workload")).unwrap();
                let o = cmp_sim::OrgKind::from_name(named("org")).unwrap();
                let want = run_result_to_json(lab.result(w, o)).compact();
                assert_eq!(payload(resp), want, "{}/{}", w.name(), o.name());
            }
        }
        assert_eq!(failed, panics, "every armed panic, and only those, failed");
        assert_eq!(shared.lock().stats().failed as usize, panics);
    }
}
