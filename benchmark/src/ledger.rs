//! The outside-in layer ledger.
//!
//! One live run is repeated with tap wrappers on its two public seams:
//! [`TapSource`] logs the global-order reference stream that crosses
//! `TraceSource`, and [`TapOrg`] logs every L2 call that crosses
//! `CacheOrg` — `(core, block, kind, now)`, the response's latency and
//! write-through flag, its L1 invalidation list, and where
//! `reset_stats` fell. Each layer is then replayed alone on exactly
//! that input and timed: a fresh generator, fresh L1s, a fresh
//! organization with a fresh bus, and finally a whole
//! `System<RecordedTrace, O>`. Every replay must reproduce the live
//! run's statistics bit for bit. The L1 and system replays read the
//! logged stream back from memory, which a live run never does, so a
//! pure read of it is timed too and netted out of both; the time the
//! replays do not explain is the ledger's residual.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use cmp_cache::{AccessResponse, CacheOrg, InvalScratch, OrgStats};
use cmp_coherence::{Bus, BusStats};
use cmp_mem::{AccessKind, Addr, BlockAddr, CoreId, Cycle, L1_BLOCK_BYTES, L2_BLOCK_BYTES};
use cmp_sim::l1::{L1Cache, L1Outcome};
use cmp_sim::{L1Stats, OrgKind, RunConfig, RunResult, System};
use cmp_trace::{Access, RecordedTrace, TraceSource};

use crate::job::{with_org, Job, OrgFn, WorkloadFn};
use crate::report::Checks;

/// One call into the L2 organization, as the tap saw it.
#[derive(Clone, Copy, Debug)]
struct L2Call {
    core: CoreId,
    block: BlockAddr,
    kind: AccessKind,
    now: Cycle,
    latency: Cycle,
    writethrough: bool,
    /// End of this call's invalidations in [`TapLog::invals`].
    inval_end: usize,
}

/// Everything the taps logged during one run.
#[derive(Debug)]
pub struct TapLog {
    /// The core of each reference, in global (simulated-time) order.
    order: Vec<u8>,
    /// Each core's references in issue order.
    per_core: Vec<Vec<Access>>,
    calls: Vec<L2Call>,
    invals: Vec<(CoreId, BlockAddr)>,
    /// `(references, L2 calls)` issued before statistics were reset.
    reset: Option<(usize, usize)>,
}

impl TapLog {
    fn new(cores: usize) -> Self {
        TapLog {
            order: Vec::new(),
            per_core: vec![Vec::new(); cores],
            calls: Vec::new(),
            invals: Vec::new(),
            reset: None,
        }
    }

    fn refs(&self) -> usize {
        self.order.len()
    }
}

/// Logs every reference a [`TraceSource`] hands the simulator.
pub struct TapSource<W> {
    inner: W,
    log: Rc<RefCell<TapLog>>,
}

impl<W: TraceSource> TraceSource for TapSource<W> {
    fn next_access(&mut self, core: CoreId) -> Access {
        let access = self.inner.next_access(core);
        let mut log = self.log.borrow_mut();
        log.order.push(core.0);
        log.per_core[core.index()].push(access);
        access
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn cores(&self) -> usize {
        self.inner.cores()
    }

    fn code_region(&self, core: CoreId) -> Option<(Addr, u64, f64)> {
        self.inner.code_region(core)
    }
}

/// Logs every call the simulator makes into a [`CacheOrg`].
pub struct TapOrg<O> {
    inner: O,
    log: Rc<RefCell<TapLog>>,
}

impl<O: CacheOrg> CacheOrg for TapOrg<O> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn access(
        &mut self,
        core: CoreId,
        block: BlockAddr,
        kind: AccessKind,
        now: Cycle,
        bus: &mut Bus,
        inv: &mut InvalScratch,
    ) -> AccessResponse {
        let resp = self.inner.access(core, block, kind, now, bus, inv);
        let mut log = self.log.borrow_mut();
        log.invals.extend_from_slice(inv.as_slice());
        let inval_end = log.invals.len();
        log.calls.push(L2Call {
            core,
            block,
            kind,
            now,
            latency: resp.latency,
            writethrough: resp.writethrough,
            inval_end,
        });
        resp
    }

    fn stats(&self) -> &OrgStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        let mut log = self.log.borrow_mut();
        log.reset = Some((log.order.len(), log.calls.len()));
        self.inner.reset_stats();
    }

    fn cores(&self) -> usize {
        self.inner.cores()
    }
}

/// The production run call: a fixed budget runs `run_measured`, a
/// confidence rule stops early — exactly what `cmp_sim`'s runner does.
pub fn run_system<W: TraceSource, O: CacheOrg>(
    sys: &mut System<W, O>,
    cfg: &RunConfig,
) -> RunResult {
    sys.run_measured_stop(cfg.warmup_accesses, cfg.measure_accesses, cfg.stop).0
}

/// Runs `job` once with both taps attached.
fn tapped_run<W: TraceSource, O: CacheOrg>(w: W, org: O, cfg: &RunConfig) -> (RunResult, TapLog) {
    let log = Rc::new(RefCell::new(TapLog::new(w.cores())));
    let source = TapSource { inner: w, log: Rc::clone(&log) };
    let org = TapOrg { inner: org, log: Rc::clone(&log) };
    let result = run_system(&mut System::new(source, org), cfg);
    let log = Rc::try_unwrap(log).expect("the taps were dropped with the system").into_inner();
    (result, log)
}

/// Regenerates the stream from a fresh generator in the logged global
/// order. Returns host ns and the number of references that differ.
fn replay_trace<W: TraceSource>(mut w: W, log: &TapLog) -> (u64, u64) {
    let mut cursor = vec![0usize; log.per_core.len()];
    let mut differ = 0u64;
    let start = Instant::now();
    for &c in &log.order {
        let access = w.next_access(CoreId(c));
        let i = &mut cursor[usize::from(c)];
        differ += u64::from(access != log.per_core[usize::from(c)][*i]);
        *i += 1;
    }
    (start.elapsed().as_nanos() as u64, differ)
}

/// Reads the recorded stream in global order and does nothing else
/// with it: the source cost the L1 and system replays pay and a live
/// run does not. Rewinds `trace`; returns host ns.
fn replay_read(trace: &mut RecordedTrace, order: &[u8]) -> u64 {
    let mut fold = 0u64;
    let start = Instant::now();
    for &c in order {
        let access = trace.next_access(CoreId(c));
        fold ^= access.addr.block(L1_BLOCK_BYTES).0 ^ u64::from(access.kind.is_write());
    }
    black_box(fold);
    let ns = start.elapsed().as_nanos() as u64;
    trace.rewind();
    ns
}

/// Drives fresh paper L1s with the recorded references in the logged
/// global order, taking each L1 miss's fill flags and invalidations
/// from the logged L2 calls. Rewinds `trace`; returns host ns, the
/// measured-phase L1 statistics summed over cores, and the number of
/// misses that disagree with the L2 log.
fn replay_l1(trace: &mut RecordedTrace, log: &TapLog) -> (u64, L1Stats, u64) {
    let mut l1: Vec<L1Cache> = (0..trace.cores()).map(|_| L1Cache::paper()).collect();
    let reset_at = log.reset.map(|(refs, _)| refs);
    let (mut call, mut inval_start, mut differ) = (0usize, 0usize, 0u64);
    let start = Instant::now();
    for (r, &c) in log.order.iter().enumerate() {
        if Some(r) == reset_at {
            l1.iter_mut().for_each(L1Cache::reset_stats);
        }
        let access = trace.next_access(CoreId(c));
        let c = usize::from(c);
        let block = access.addr.block(L1_BLOCK_BYTES);
        if l1[c].access(block, access.kind) == L1Outcome::Hit {
            continue;
        }
        let Some(l2) = log.calls.get(call) else {
            differ += 1;
            continue;
        };
        call += 1;
        differ += u64::from(l2.core.index() != c || l2.block != access.addr.block(L2_BLOCK_BYTES));
        for &(victim, victim_block) in &log.invals[inval_start..l2.inval_end] {
            for child in victim_block.children(L2_BLOCK_BYTES, L1_BLOCK_BYTES) {
                l1[victim.index()].invalidate(child);
            }
        }
        inval_start = l2.inval_end;
        l1[c].fill(block, l2.writethrough, access.kind.is_write());
    }
    let ns = start.elapsed().as_nanos() as u64;
    trace.rewind();
    if reset_at == Some(log.refs()) {
        l1.iter_mut().for_each(L1Cache::reset_stats);
    }
    differ += u64::from(call != log.calls.len());
    let mut total = L1Stats::default();
    for s in l1.iter().map(L1Cache::stats) {
        total.hits += s.hits;
        total.misses += s.misses;
        total.store_forwards += s.store_forwards;
        total.invalidations += s.invalidations;
        total.writebacks += s.writebacks;
    }
    (ns, total, differ)
}

/// One organization replayed over a logged L2 call stream.
struct L2Replay {
    ns: u64,
    stats: OrgStats,
    bus: BusStats,
    /// Calls whose response differs from the log (checked replays).
    differ: u64,
}

/// Replays the logged L2 calls into `org` with a fresh paper bus.
/// With `check`, each response and invalidation list is compared with
/// the log, which is exact only when `org` is the run's own
/// organization.
fn replay_l2<O: CacheOrg>(mut org: O, log: &TapLog, check: bool) -> L2Replay {
    let mut bus = Bus::paper();
    let mut inv = InvalScratch::new();
    let reset_at = log.reset.map(|(_, calls)| calls);
    let (mut inval_start, mut differ) = (0usize, 0u64);
    let start = Instant::now();
    for (i, call) in log.calls.iter().enumerate() {
        if Some(i) == reset_at {
            org.reset_stats();
        }
        let resp = org.access(call.core, call.block, call.kind, call.now, &mut bus, &mut inv);
        if check {
            let logged = &log.invals[inval_start..call.inval_end];
            differ += u64::from(
                resp.latency != call.latency
                    || resp.writethrough != call.writethrough
                    || inv.as_slice() != logged,
            );
            inval_start = call.inval_end;
        } else {
            black_box(resp);
        }
    }
    let ns = start.elapsed().as_nanos() as u64;
    if reset_at == Some(log.calls.len()) {
        org.reset_stats();
    }
    L2Replay { ns, stats: org.stats().clone(), bus: *bus.stats(), differ }
}

/// Host time of the layers of one run, and what was checked.
#[derive(Debug)]
pub struct LedgerRun {
    pub job: Job,
    /// The live run's result.
    pub result: RunResult,
    /// References issued (warm-up and measured, all cores).
    pub refs: u64,
    /// Calls into the L2 organization (warm-up and measured).
    pub l2_calls: u64,
    /// Constructors of the live run: workload, organization, system.
    pub ctor_ns: u64,
    /// The live, untapped run.
    pub live_ns: u64,
    /// A fresh generator producing the logged stream.
    pub trace_ns: u64,
    /// Reading the logged stream back from memory.
    pub read_ns: u64,
    /// The L1 replay, stream read included.
    pub l1_ns: u64,
    /// The run's own organization, bus included.
    pub l2_ns: u64,
    /// Every organization over this run's L2 call stream.
    pub cross_ns: Vec<(OrgKind, u64)>,
    /// The `System<RecordedTrace, O>` replay, stream read included.
    pub system_ns: u64,
    /// `(phase, start, end)` of each step, for the span file.
    pub phases: Vec<(&'static str, Instant, Instant)>,
}

/// Runs the full ledger of one job: live run, tapped run, and the
/// trace, L1, L2 (own and every other organization) and system
/// replays. Every exactness check lands in `checks`.
pub fn ledger(job: &Job, checks: &mut Checks) -> LedgerRun {
    job.with_workload(ForWorkload { job, checks })
}

struct ForWorkload<'a> {
    job: &'a Job,
    checks: &'a mut Checks,
}

impl WorkloadFn for ForWorkload<'_> {
    type Out = LedgerRun;

    fn call<W: TraceSource>(self, make_w: &dyn Fn() -> W) -> LedgerRun {
        let (book, l2_bytes) = self.job.machine();
        let step = ForOrg { job: self.job, checks: self.checks, make_w, book: &book, l2_bytes };
        with_org(self.job.org, &book, l2_bytes, step)
    }
}

struct ForOrg<'a, W> {
    job: &'a Job,
    checks: &'a mut Checks,
    make_w: &'a dyn Fn() -> W,
    book: &'a cmp_latency::LatencyBook,
    l2_bytes: usize,
}

impl<W: TraceSource> OrgFn for ForOrg<'_, W> {
    type Out = LedgerRun;

    fn call<O: CacheOrg>(self, make_o: &dyn Fn() -> O) -> LedgerRun {
        let ForOrg { job, checks, make_w, book, l2_bytes } = self;
        let cfg = job.run_config();
        let label = job.label();
        let mut phases = Vec::new();
        let mut phase = |name, start: Instant| {
            let end = Instant::now();
            phases.push((name, start, end));
            (end - start).as_nanos() as u64
        };

        let t = Instant::now();
        let mut sys = System::new(make_w(), make_o());
        let ctor_ns = phase("ledger.ctor", t);
        let t = Instant::now();
        let result = run_system(&mut sys, &cfg);
        let live_ns = phase("ledger.live", t);
        drop(sys);

        let t = Instant::now();
        let (tapped, mut log) = tapped_run(make_w(), make_o(), &cfg);
        phase("ledger.tap", t);
        checks.expect(tapped == result, || format!("{label}: tapped run differs from live"));

        let t = Instant::now();
        let (trace_ns, differ) = replay_trace(make_w(), &log);
        phase("replay.trace", t);
        checks.expect(differ == 0, || format!("{label}: {differ} regenerated references differ"));

        let (refs, l2_calls) = (log.refs() as u64, log.calls.len() as u64);
        let per_core = std::mem::take(&mut log.per_core);
        let mut trace = RecordedTrace::new(result.workload.clone(), per_core);
        let t = Instant::now();
        let read_ns = replay_read(&mut trace, &log.order);
        phase("replay.read", t);

        let t = Instant::now();
        let (l1_ns, l1, differ) = replay_l1(&mut trace, &log);
        phase("replay.l1", t);
        checks.expect(differ == 0 && l1 == result.l1, || {
            format!("{label}: L1 replay differs ({differ} misses off the L2 log)")
        });

        let t = Instant::now();
        let own = replay_l2(make_o(), &log, true);
        phase("replay.l2", t);
        checks.expect(own.differ == 0 && own.stats == result.l2 && own.bus == result.bus, || {
            format!("{label}: L2 replay differs ({} responses off the log)", own.differ)
        });

        let t = Instant::now();
        let cross_ns = OrgKind::ALL
            .iter()
            .map(|&kind| (kind, with_org(kind, book, l2_bytes, CrossReplay { log: &log })))
            .collect();
        phase("replay.l2.cross", t);

        drop(log);
        let mut sys = System::new(trace, make_o());
        let t = Instant::now();
        let replayed = run_system(&mut sys, &cfg);
        let system_ns = phase("replay.system", t);
        checks.expect(replayed == result, || format!("{label}: system replay differs from live"));

        LedgerRun {
            job: *job,
            result,
            refs,
            l2_calls,
            ctor_ns,
            live_ns,
            trace_ns,
            read_ns,
            l1_ns,
            l2_ns: own.ns,
            cross_ns,
            system_ns,
            phases,
        }
    }
}

/// Times one organization over another run's L2 call stream.
struct CrossReplay<'a> {
    log: &'a TapLog,
}

impl OrgFn for CrossReplay<'_> {
    type Out = u64;

    fn call<O: CacheOrg>(self, make: &dyn Fn() -> O) -> u64 {
        replay_l2(make(), self.log, false).ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmp_bench::spec::{intern, ScenarioSpec};
    use cmp_bench::WorkloadId;

    fn tiny_job(cores: usize, org: OrgKind) -> Job {
        let mut spec = ScenarioSpec::defaults(format!("tiny{cores}"));
        spec.cores = cores;
        spec.sharing_degree = cores;
        spec.base = "apache".into();
        spec.org = org;
        spec.warmup_accesses = Some(300);
        spec.measure_accesses = Some(600);
        Job { id: WorkloadId::Spec(intern(&spec)), org, cfg: RunConfig::sized(0, 1, 11) }
    }

    #[test]
    fn tap_and_replay_round_trip_exactly_for_every_org() {
        for cores in [4, 16] {
            for org in OrgKind::ALL {
                let job = tiny_job(cores, org);
                let mut checks = Checks::default();
                let run = ledger(&job, &mut checks);
                assert!(checks.failures.is_empty(), "{:?}", checks.failures);
                assert_eq!(checks.attempted, 5, "{}", job.label());
                assert!(run.l2_calls > 0 && run.refs >= run.result.accesses);
                assert_eq!(run.cross_ns.len(), OrgKind::ALL.len());
            }
        }
    }

    #[test]
    fn catalog_workloads_replay_exactly() {
        let cfg = RunConfig::sized(400, 800, 3);
        for id in [WorkloadId::Multithreaded("oltp"), WorkloadId::Mix("MIX2")] {
            let job = Job { id, org: OrgKind::Nurapid, cfg };
            let mut checks = Checks::default();
            ledger(&job, &mut checks);
            assert!(checks.failures.is_empty(), "{:?}", checks.failures);
        }
    }

    #[test]
    fn a_tampered_log_is_caught() {
        let job = tiny_job(4, OrgKind::Private);
        let (book, l2_bytes) = job.machine();
        struct Tamper<'a>(&'a Job);
        impl OrgFn for Tamper<'_> {
            type Out = (u64, u64);
            fn call<O: CacheOrg>(self, make: &dyn Fn() -> O) -> (u64, u64) {
                let cfg = self.0.run_config();
                let (_, mut log) = tapped_run(self.0.id_workload(), make(), &cfg);
                log.calls[0].latency += 1;
                let mut trace = RecordedTrace::new("tampered", log.per_core.clone());
                let l1 = replay_l1(&mut trace, &log).2;
                (replay_l2(make(), &log, true).differ, l1)
            }
        }
        let (l2_differ, l1_differ) = with_org(job.org, &book, l2_bytes, Tamper(&job));
        assert_eq!(l2_differ, 1, "one altered response");
        assert_eq!(l1_differ, 0, "latency does not feed the L1 replay");
    }

    impl Job {
        fn id_workload(&self) -> cmp_trace::SyntheticWorkload {
            match self.id {
                WorkloadId::Spec(s) => s.spec.workload(self.run_config().seed),
                _ => unreachable!("tiny jobs are specs"),
            }
        }
    }
}
