//! The four workloads, the closed timed loop of the three simulation
//! workloads, the cold set-up children, and the ledger's per-layer
//! metrics.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use cmp_bench::spec::{intern, ScenarioSpec};
use cmp_bench::{figures, Json, Lab, ResultSource, WorkloadId};
use cmp_cache::CacheOrg;
use cmp_sim::{build_org_sized, OrgKind, RunConfig, RunResult, System};
use cmp_trace::TraceSource;

use crate::host::Calibrator;
use crate::job::{Job, WorkloadFn};
use crate::ledger::{ledger, run_system, LedgerRun};
use crate::report::{peak_rss_mb, Checks, Metric, Outcome, Tracer};
use crate::serve;
use crate::stats::{lower_quartile, median, percentile};

/// Workload seed when none is given.
pub const DEFAULT_SEED: u64 = 5578;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The figure harnesses' 51 unique pairs at `quick` sizing, one
    /// fresh sequential `Lab` per pass.
    FigsweepQuick,
    /// {oltp, ocean, MIX2} x {shared, private, nurapid} at the paper's
    /// warm-up and 1 M measured references per core.
    Paper4c,
    /// apache with sharing degree = cores at 4, 16 and 64 cores x
    /// {shared, nurapid}, a fixed total of references per run.
    CoresLadder,
    /// `cmp-serve` over TCP, closed loop (see `serve`).
    ServeClosed,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::FigsweepQuick, Workload::Paper4c, Workload::CoresLadder, Workload::ServeClosed];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FigsweepQuick => "figsweep-quick",
            Workload::Paper4c => "paper-4c",
            Workload::CoresLadder => "cores-ladder",
            Workload::ServeClosed => "serve-closed",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Options of one workload run.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    pub seed: u64,
    /// How long the timed loop runs.
    pub seconds: f64,
    /// Produce the per-layer ledger instead of the end-to-end metrics.
    pub trace: bool,
    /// Tiny sizing through the same code paths, for a quick check.
    pub smoke: bool,
}

impl Opts {
    /// Cold set-ups per run; `setup_s` is their median.
    pub fn setup_repeats(&self) -> usize {
        if self.smoke {
            1
        } else {
            15
        }
    }
}

/// The jobs of one pass. For `serve-closed` these are the in-process
/// counterparts of the first fresh requests, which its traced run puts
/// through the ledger.
pub fn pass_jobs(w: Workload, seed: u64, smoke: bool) -> Vec<Job> {
    match w {
        Workload::FigsweepQuick => {
            let cfg = if smoke {
                RunConfig::sized(2_000, 4_000, seed)
            } else {
                RunConfig { seed, ..RunConfig::quick() }
            };
            let mut seen = HashSet::new();
            figures::pairs::all()
                .into_iter()
                .filter(|p| seen.insert(*p))
                .map(|(id, org)| Job { id, org, cfg })
                .collect()
        }
        Workload::Paper4c => {
            let cfg = if smoke {
                RunConfig::sized(15_000, 10_000, seed)
            } else {
                RunConfig::sized(1_500_000, 1_000_000, seed)
            };
            let ids = [
                WorkloadId::Multithreaded("oltp"),
                WorkloadId::Multithreaded("ocean"),
                WorkloadId::Mix("MIX2"),
            ];
            let orgs = [OrgKind::Shared, OrgKind::Private, OrgKind::Nurapid];
            ids.iter().flat_map(|&id| orgs.map(|org| Job { id, org, cfg })).collect()
        }
        Workload::CoresLadder => {
            let (warmup, measure) = if smoke { (24_000, 48_000) } else { (2_400_000, 4_800_000) };
            let mut jobs = Vec::new();
            for cores in [4usize, 16, 64] {
                for org in [OrgKind::Shared, OrgKind::Nurapid] {
                    let mut spec = ScenarioSpec::defaults(format!("apache-c{cores}"));
                    spec.cores = cores;
                    spec.sharing_degree = cores;
                    spec.base = "apache".into();
                    spec.org = org;
                    spec.warmup_accesses = Some(warmup / cores as u64);
                    spec.measure_accesses = Some(measure / cores as u64);
                    let id = WorkloadId::Spec(intern(&spec));
                    jobs.push(Job { id, org, cfg: RunConfig::sized(0, 1, seed) });
                }
            }
            jobs
        }
        Workload::ServeClosed => {
            serve::ledger_requests(seed, smoke).into_iter().map(|(_, job)| job).collect()
        }
    }
}

/// One timed call of the workload's entry point.
struct Op {
    start: Instant,
    end: Instant,
    result: Result<RunResult, String>,
}

impl Op {
    fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

struct Pass {
    start: Instant,
    end: Instant,
    ops: Vec<Op>,
}

impl Pass {
    /// Host seconds of the pass's operations (calibration excluded).
    fn secs(&self) -> f64 {
        self.ops.iter().map(Op::secs).sum()
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    let text = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned());
    format!("panicked: {}", text.unwrap_or_default())
}

/// One call of the entry point: a scenario spec through
/// `ScenarioSpec::simulate`, a catalog pair through `Lab::try_result`.
fn entry_op(lab: &mut Lab, job: &Job) -> Op {
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| match job.id {
        WorkloadId::Spec(s) => Ok(s.spec.simulate(job.org, &job.cfg)),
        _ => lab.try_result(job.id, job.org).cloned().map_err(|e| e.to_string()),
    }))
    .unwrap_or_else(|p| Err(panic_message(p)));
    Op { start, end: Instant::now(), result }
}

/// One pass over the jobs on a fresh sequential lab, sampling the
/// host's speed before each operation.
fn run_pass(jobs: &[Job], cal: &mut Calibrator) -> Pass {
    let start = Instant::now();
    let mut lab = Lab::new(jobs[0].cfg);
    let ops = jobs
        .iter()
        .map(|job| {
            cal.sample();
            entry_op(&mut lab, job)
        })
        .collect();
    Pass { start, end: Instant::now(), ops }
}

/// Counts each timed operation as one check: it must return a result,
/// and after the first pass the result of pass 0.
fn check_passes(jobs: &[Job], passes: &[Pass], checks: &mut Checks) {
    for (k, pass) in passes.iter().enumerate() {
        for ((job, op), first) in jobs.iter().zip(&pass.ops).zip(&passes[0].ops) {
            match &op.result {
                Err(e) => checks.expect(false, || format!("{}: {e}", job.label())),
                Ok(r) => checks.expect(first.result.as_ref() == Ok(r), || {
                    format!("{}: pass {k} differs from pass 0", job.label())
                }),
            }
        }
    }
}

/// Runs `job` through the `Box<dyn CacheOrg>` path (`build_org_sized`),
/// an independent dispatch path the production result must equal.
struct DynRun<'a>(&'a Job);

impl WorkloadFn for DynRun<'_> {
    type Out = RunResult;

    fn call<W: TraceSource>(self, make: &dyn Fn() -> W) -> RunResult {
        let (book, l2_bytes) = self.0.machine();
        let org: Box<dyn CacheOrg> = build_org_sized(self.0.org, &book, l2_bytes);
        run_system(&mut System::new(make(), org), &self.0.run_config())
    }
}

fn ms(secs: f64) -> f64 {
    secs * 1e3
}

/// Runs a simulation workload once: cold set-ups, (traced) the ledger,
/// the timed loop, and the checks.
pub fn measure_sim(w: Workload, opts: &Opts) -> Result<Outcome, String> {
    let origin = Instant::now();
    let jobs = pass_jobs(w, opts.seed, opts.smoke);
    let (setups, setup_speed) = spawn_setups(w, opts)?;
    let mut checks = Checks::default();
    let mut tracer = opts.trace.then(|| Tracer::new(origin));
    // A traced run puts the jobs through the ledger first and leaves the
    // timed loop the rest of its time (at least one pass), so that it
    // lasts not much longer than an untraced run.
    let budget_start = Instant::now();
    let ledger_runs = tracer.as_mut().map(|tracer| run_ledger(&jobs, &mut checks, tracer));

    let mut cal = Calibrator::new();
    let loop_start = Instant::now();
    let deadline = budget_start + Duration::from_secs_f64(opts.seconds);
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        passes.push(run_pass(&jobs, &mut cal));
        let walls: Vec<f64> = passes.iter().map(|p| (p.end - p.start).as_secs_f64()).collect();
        let typical = median(&walls).unwrap_or(0.0);
        if Instant::now() + Duration::from_secs_f64(typical) > deadline {
            break;
        }
    }
    let loop_end = Instant::now();
    let peak = peak_rss_mb(None);

    check_passes(&jobs, &passes, &mut checks);
    let first: Vec<Option<RunResult>> =
        passes[0].ops.iter().map(|op| op.result.as_ref().ok().cloned()).collect();

    if let Some(t) = tracer.as_mut() {
        let root = t.record("loop", None, loop_start, loop_end);
        for (k, pass) in passes.iter().enumerate() {
            let p = t.record(format!("pass.{k}"), Some(root), pass.start, pass.end);
            for (job, op) in jobs.iter().zip(&pass.ops) {
                t.record(format!("op {}", job.label()), Some(p), op.start, op.end);
            }
        }
    }

    // Each job's latency is its lower quartile over passes. Interference
    // from a shared host only ever adds time, so the faster passes are
    // the better estimate of the job's own cost; a quartile is steadier
    // than the minimum on runs of a few passes. Pooling passes per job
    // keeps jobs of different lengths apart. The normalized latency first
    // scales each pass by the host speed sampled during it (see `host`).
    let pass_speed: Vec<f64> =
        (0..passes.len()).map(|k| cal.speed_over(k * jobs.len()..(k + 1) * jobs.len())).collect();
    let job_times = |scale: &dyn Fn(usize) -> f64| -> Vec<f64> {
        (0..jobs.len())
            .map(|j| {
                let v: Vec<f64> = passes
                    .iter()
                    .enumerate()
                    .map(|(k, p)| ms(p.ops[j].secs()) * scale(k))
                    .collect();
                lower_quartile(&v).unwrap_or(f64::NAN)
            })
            .collect()
    };
    let raw_ms = job_times(&|_| 1.0);
    let norm_ms = job_times(&|k| pass_speed[k]);
    let all_ms: Vec<f64> =
        passes.iter().flat_map(|p| p.ops.iter().map(|op| ms(op.secs()))).collect();
    let n = all_ms.len();
    // Operations per second, and references per second, of a pass made
    // of each job's estimated run.
    let rates = |job_ms: &[f64], pick: &dyn Fn(&Job) -> bool| {
        let (mut ops, mut secs, mut refs) = (0.0, 0.0, 0u64);
        for ((job, m), first) in jobs.iter().zip(job_ms).zip(&first) {
            if pick(job) {
                ops += 1.0;
                secs += m / 1e3;
                refs += first.as_ref().map_or(0, |r| job.refs(r.accesses));
            }
        }
        (ops / secs, refs as f64 / secs)
    };
    let (raw_ops_per_s, refs_per_s) = rates(&raw_ms, &|_| true);
    let setup_s = median_of(&setups, |s| s.total_s);
    let mut e2e = vec![
        Metric::new("setup_s", "s", setup_s * setup_speed, setups.len()),
        Metric::new("op_ms.p50", "ms", median(&norm_ms).unwrap_or(f64::NAN), n),
        Metric::new("ops_per_s", "1/s", rates(&norm_ms, &|_| true).0, n),
        Metric::new("peak_rss_mb", "MiB", peak.unwrap_or(f64::NAN), 1),
    ];
    let mut extras = vec![
        Metric::new("setup_s.raw", "s", setup_s, setups.len()),
        Metric::new("op_ms.p50.raw", "ms", median(&raw_ms).unwrap_or(f64::NAN), n),
        Metric::new("ops_per_s.raw", "1/s", raw_ops_per_s, n),
        Metric::new("host.speed", "ratio", cal.speed(), cal.samples()),
    ];
    for (p, name) in [(0.90, "op_ms.p90"), (0.99, "op_ms.p99")] {
        if let Some(v) = percentile(&all_ms, p) {
            extras.push(Metric::new(name, "ms", v, n));
        }
    }
    let pass_secs: Vec<f64> = passes.iter().map(Pass::secs).collect();
    extras.push(Metric::new("sweep_s", "s", median(&pass_secs).unwrap_or(f64::NAN), passes.len()));
    extras.push(Metric::new("refs_per_s", "1/s", refs_per_s, n));
    extras.push(Metric::new("wall_s", "s", (loop_end - loop_start).as_secs_f64(), 1));
    let core_counts: BTreeSet<usize> = jobs.iter().map(Job::cores).collect();
    if core_counts.len() > 1 {
        for c in core_counts {
            let c_ms: Vec<f64> =
                jobs.iter().zip(&raw_ms).filter(|(j, _)| j.cores() == c).map(|(_, m)| *m).collect();
            let setup_c = median_of(&setups, |s| s.by_cores.get(&c).copied().unwrap_or(f64::NAN));
            let k = c_ms.len() * passes.len();
            extras.extend([
                Metric::new(format!("setup_s.c{c}"), "s", setup_c, setups.len()),
                Metric::new(format!("op_ms.p50.c{c}"), "ms", median(&c_ms).unwrap_or(f64::NAN), k),
                Metric::new(
                    format!("refs_per_s.c{c}"),
                    "1/s",
                    rates(&raw_ms, &|j| j.cores() == c).1,
                    k,
                ),
            ]);
        }
    }

    let metrics = if let Some(runs) = ledger_runs {
        let entry_ms: Vec<Option<f64>> = raw_ms.iter().map(|&m| Some(m)).collect();
        for (run, first) in runs.iter().zip(&first) {
            checks.expect(first.as_ref() == Some(&run.result), || {
                format!("{}: ledger live run differs from the timed entry point", run.job.label())
            });
        }
        let (layers, more) = layer_metrics(&runs, &entry_ms, &setups);
        extras.splice(0..0, e2e.drain(..));
        extras.extend(more);
        layers
    } else {
        let pending: Vec<(&Job, &RunResult)> =
            jobs.iter().zip(&first).filter_map(|(job, r)| Some((job, r.as_ref()?))).collect();
        let dyn_results = par_map(&pending, |(job, _)| job.with_workload(DynRun(job)));
        for ((job, first), dyn_result) in pending.iter().zip(dyn_results) {
            checks.expect(dyn_result == **first, || {
                format!("{}: Box<dyn CacheOrg> path differs from the entry point", job.label())
            });
        }
        e2e
    };
    Ok(Outcome { checks, metrics, extras, tracer })
}

/// Maps `f` over `items` in order on at most two threads, and never more
/// than the host's parallelism: the correctness re-runs after a timed
/// loop, which has ended by then.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()).min(2);
    // Handed out one at a time: items differ widely in length.
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break done };
                        done.push((i, f(item)));
                    }
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("a check thread panicked")).collect()
    });
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Runs the ledger over `jobs`, one span per job with its phases as
/// children.
pub fn run_ledger(jobs: &[Job], checks: &mut Checks, tracer: &mut Tracer) -> Vec<LedgerRun> {
    jobs.iter()
        .map(|job| {
            let start = Instant::now();
            let run = ledger(job, checks);
            let pair =
                tracer.record(format!("ledger {}", job.label()), None, start, Instant::now());
            for &(name, s, e) in &run.phases {
                tracer.record(name, Some(pair), s, e);
            }
            run
        })
        .collect()
}

/// Sums of one group of ledger runs.
#[derive(Default)]
struct Totals {
    runs: usize,
    refs: f64,
    calls: f64,
    live: f64,
    trace: f64,
    read: f64,
    l1: f64,
    l2: f64,
    system: f64,
    cross: Vec<(OrgKind, f64)>,
    l1_hits: f64,
    l1_lookups: f64,
    l2_misses: f64,
    l2_accesses: f64,
    bus_tx: f64,
    bus_wait: f64,
}

impl Totals {
    fn of<'a>(runs: impl Iterator<Item = &'a LedgerRun>) -> Totals {
        let mut t =
            Totals { cross: OrgKind::ALL.iter().map(|&k| (k, 0.0)).collect(), ..Totals::default() };
        for r in runs {
            t.runs += 1;
            t.refs += r.refs as f64;
            t.calls += r.l2_calls as f64;
            t.live += r.live_ns as f64;
            t.trace += r.trace_ns as f64;
            t.read += r.read_ns as f64;
            t.l1 += r.l1_ns as f64;
            t.l2 += r.l2_ns as f64;
            t.system += r.system_ns as f64;
            for ((_, sum), (_, ns)) in t.cross.iter_mut().zip(&r.cross_ns) {
                *sum += *ns as f64;
            }
            let l1 = &r.result.l1;
            t.l1_hits += l1.hits as f64;
            t.l1_lookups += (l1.hits + l1.misses + l1.store_forwards) as f64;
            t.l2_misses += r.result.l2.misses() as f64;
            t.l2_accesses += r.result.l2.accesses() as f64;
            t.bus_tx += r.result.bus.total() as f64;
            t.bus_wait += r.result.bus.arbitration_wait as f64;
        }
        t
    }

    /// The per-reference ledger: trace + system + residual = live,
    /// with the L1 and system replays net of the stream read.
    fn metrics(&self, suffix: &str) -> Vec<Metric> {
        let n = self.runs;
        let per_ref = |ns: f64| ns / self.refs;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let m = |name: &str, unit, value| Metric::new(format!("{name}{suffix}"), unit, value, n);
        let system = self.system - self.read;
        let mut out = vec![
            m("trace.ns_per_ref", "ns", per_ref(self.trace)),
            m("trace.read_ns_per_ref", "ns", per_ref(self.read)),
            m("l1.ns_per_ref", "ns", per_ref(self.l1 - self.read)),
            m("l1.hit_ratio", "ratio", ratio(self.l1_hits, self.l1_lookups)),
            m("l2.ns_per_access", "ns", self.l2 / self.calls),
        ];
        for (kind, ns) in &self.cross {
            out.push(m(&format!("l2.{}.ns_per_access", kind.name()), "ns", ns / self.calls));
        }
        out.extend([
            m("l2.access_per_ref", "ratio", self.calls / self.refs),
            m("l2.miss_ratio", "ratio", ratio(self.l2_misses, self.l2_accesses)),
            m("bus.tx_per_l2_access", "ratio", self.bus_tx / self.calls),
            m("bus.wait_cycles_per_tx", "cycles", ratio(self.bus_wait, self.bus_tx)),
            m("system.ns_per_ref", "ns", per_ref(system)),
            m("system.sched_ns_per_ref", "ns", per_ref(self.system - self.l1 - self.l2)),
            m("ledger.live_ns_per_ref", "ns", per_ref(self.live)),
            m("ledger.residual_ns_per_ref", "ns", per_ref(self.live - self.trace - system)),
            m("ledger.refs", "count", self.refs),
        ]);
        out
    }
}

/// The per-layer metrics of a traced run (first) and their per-core-
/// count breakdown (second). `entry_ms[i]` is the entry point's time
/// for `runs[i]`'s job, where the timed loop measured one.
pub fn layer_metrics(
    runs: &[LedgerRun],
    entry_ms: &[Option<f64>],
    setups: &[SetupSample],
) -> (Vec<Metric>, Vec<Metric>) {
    let mut layers = Totals::of(runs.iter()).metrics("");
    let k = setups.len();
    layers.extend([
        Metric::new("setup.workload_ms", "ms", median_of(setups, |s| s.workload_ms), k),
        Metric::new("setup.org_ms", "ms", median_of(setups, |s| s.org_ms), k),
        Metric::new("setup.system_ms", "ms", median_of(setups, |s| s.system_ms), k),
        Metric::new("setup.zipf_cold_ms", "ms", median_of(setups, |s| s.zipf_cold_ms), k),
    ]);
    let overhead: Vec<f64> = runs
        .iter()
        .zip(entry_ms)
        .filter_map(|(r, e)| Some(e.as_ref()? - (r.ctor_ns + r.live_ns) as f64 / 1e6))
        .collect();
    let mean = overhead.iter().sum::<f64>() / overhead.len() as f64;
    layers.push(Metric::new("entry.overhead_ms_per_op", "ms", mean, overhead.len()));

    let mut by_cores: BTreeMap<usize, Vec<&LedgerRun>> = BTreeMap::new();
    for r in runs {
        by_cores.entry(r.job.cores()).or_default().push(r);
    }
    let mut extras = Vec::new();
    if by_cores.len() > 1 {
        for (cores, group) in by_cores {
            extras.extend(Totals::of(group.into_iter()).metrics(&format!(".c{cores}")));
        }
    }
    (layers, extras)
}

/// Host time of one pass's constructors in a cold process.
#[derive(Clone, Debug, Default)]
pub struct SetupSample {
    pub total_s: f64,
    pub workload_ms: f64,
    pub org_ms: f64,
    pub system_ms: f64,
    /// Cold minus warm workload construction: the first-touch Zipf
    /// table builds and interning.
    pub zipf_cold_ms: f64,
    pub by_cores: BTreeMap<usize, f64>,
}

fn median_of(samples: &[SetupSample], f: impl Fn(&SetupSample) -> f64) -> f64 {
    median(&samples.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
}

/// Times the three constructors of one job: workload, `build_org_sized`
/// (latency book included) and `System::new`.
struct ColdSetup<'a>(&'a Job);

impl WorkloadFn for ColdSetup<'_> {
    type Out = [Duration; 3];

    fn call<W: TraceSource>(self, make: &dyn Fn() -> W) -> [Duration; 3] {
        let t0 = Instant::now();
        let workload = make();
        let t1 = Instant::now();
        let (book, l2_bytes) = self.0.machine();
        let org = build_org_sized(self.0.org, &book, l2_bytes);
        let t2 = Instant::now();
        let sys = black_box(System::new(workload, org));
        let t3 = Instant::now();
        drop(sys);
        [t1 - t0, t2 - t1, t3 - t2]
    }
}

struct WarmWorkload;

impl WorkloadFn for WarmWorkload {
    type Out = Duration;

    fn call<W: TraceSource>(self, make: &dyn Fn() -> W) -> Duration {
        let t = Instant::now();
        let workload = black_box(make());
        let d = t.elapsed();
        drop(workload);
        d
    }
}

/// The `setup-child` process: one pass's constructors, cold, then the
/// workload constructors again, warm. Returns the JSON line it prints.
pub fn setup_child(w: Workload, seed: u64, smoke: bool) -> Json {
    let jobs = pass_jobs(w, seed, smoke);
    let mut parts = [Duration::ZERO; 3];
    let mut by_cores: BTreeMap<usize, f64> = BTreeMap::new();
    for job in &jobs {
        let d = job.with_workload(ColdSetup(job));
        for (sum, part) in parts.iter_mut().zip(d) {
            *sum += part;
        }
        *by_cores.entry(job.cores()).or_default() += d.iter().sum::<Duration>().as_secs_f64();
    }
    let warm: Duration = jobs.iter().map(|job| job.with_workload(WarmWorkload)).sum();
    let mut out = Json::obj();
    out.set("total_s", Json::Num(parts.iter().sum::<Duration>().as_secs_f64()));
    out.set("workload_ms", Json::Num(ms(parts[0].as_secs_f64())));
    out.set("org_ms", Json::Num(ms(parts[1].as_secs_f64())));
    out.set("system_ms", Json::Num(ms(parts[2].as_secs_f64())));
    out.set("zipf_cold_ms", Json::Num(ms(parts[0].as_secs_f64() - warm.as_secs_f64())));
    let mut cores = Json::obj();
    for (c, s) in by_cores {
        cores.set(&c.to_string(), Json::Num(s));
    }
    out.set("by_cores", cores);
    out
}

fn parse_setup(line: &str) -> Option<SetupSample> {
    let j = Json::parse(line.trim()).ok()?;
    let num = |k: &str| j.get(k).and_then(Json::as_f64);
    let by_cores = j
        .get("by_cores")?
        .fields()?
        .iter()
        .filter_map(|(c, v)| Some((c.parse().ok()?, v.as_f64()?)))
        .collect();
    Some(SetupSample {
        total_s: num("total_s")?,
        workload_ms: num("workload_ms")?,
        org_ms: num("org_ms")?,
        system_ms: num("system_ms")?,
        zipf_cold_ms: num("zipf_cold_ms")?,
        by_cores,
    })
}

/// Runs [`Opts::setup_repeats`] cold `setup-child` processes one after
/// another, each after a sample of the host's speed. Returns their
/// samples and the host speed while they ran.
pub fn spawn_setups(w: Workload, opts: &Opts) -> Result<(Vec<SetupSample>, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cal = Calibrator::new();
    let setups = (0..opts.setup_repeats())
        .map(|_| {
            cal.sample();
            let mut cmd = Command::new(&exe);
            cmd.args(["setup-child", "--workload", w.name(), "--seed", &opts.seed.to_string()]);
            if opts.smoke {
                cmd.arg("--smoke");
            }
            let out = cmd
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("setup child: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            match (out.status.success(), stdout.lines().last().and_then(parse_setup)) {
                (true, Some(sample)) => Ok(sample),
                _ => Err(format!("setup child failed ({}): {stdout}", out.status)),
            }
        })
        .collect::<Result<_, _>>()?;
    Ok((setups, cal.speed()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_operation_counts_once() {
        let cfg = RunConfig::sized(200, 400, 7);
        let jobs = [WorkloadId::Multithreaded("oltp"), WorkloadId::Mix("MIX2")].map(|id| Job {
            id,
            org: OrgKind::Shared,
            cfg,
        });
        let mut lab = Lab::new(cfg);
        let results: Vec<RunResult> =
            jobs.iter().map(|j| lab.try_result(j.id, j.org).cloned().expect("tiny run")).collect();
        let t = Instant::now();
        let pass = |ops: [Result<RunResult, String>; 2]| Pass {
            start: t,
            end: t,
            ops: ops.map(|result| Op { start: t, end: t, result }).into(),
        };
        let good = || [Ok(results[0].clone()), Ok(results[1].clone())];
        let mut other = results[1].clone();
        other.instructions += 1;

        let failed = [pass(good()), pass([Err("panicked".into()), Ok(results[1].clone())])];
        let mut checks = Checks::default();
        check_passes(&jobs, &failed, &mut checks);
        let outcome = Outcome { checks, metrics: Vec::new(), extras: Vec::new(), tracer: None };
        assert_eq!((outcome.attempted(), outcome.failed()), (4, 1));
        assert_eq!(outcome.fail_ratio(), 0.25);

        let differs = [pass(good()), pass(good()), pass([Ok(results[0].clone()), Ok(other)])];
        let mut checks = Checks::default();
        check_passes(&jobs, &differs, &mut checks);
        assert_eq!((checks.attempted, checks.failures.len()), (6, 1));
        assert!(checks.failures[0].contains("pass 2 differs"), "{:?}", checks.failures);
    }

    #[test]
    fn par_map_keeps_the_order() {
        let items: Vec<u64> = (0..100).collect();
        let doubled = par_map(&items, |&x| {
            std::thread::sleep(Duration::from_micros(100 - x));
            2 * x
        });
        assert_eq!(doubled, items.iter().map(|x| 2 * x).collect::<Vec<_>>());
        assert!(par_map(&[] as &[u64], |&x| x).is_empty());
    }
}
