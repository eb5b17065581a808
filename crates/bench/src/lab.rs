//! The memoizing experiment lab: one [`Lab`] that simulates
//! (workload, organization) pairs on demand or fans a batch of them
//! across scoped worker threads.
//!
//! Every path is backed by the same memo cache keyed on
//! `(WorkloadId, OrgKind)`, so a pair is simulated at most once per
//! lab no matter how figures overlap. Every simulation takes its seed
//! from the lab's [`RunConfig`] and shares no mutable state with any
//! other, which is why the batch path is deterministic: the result of
//! a pair is a pure function of `(pair, config)`, and
//! [`Lab::prefetch`] merges results back in submission order, so any
//! thread count produces byte-identical figures and tables.

use std::collections::{HashMap, HashSet};

use cmp_sim::{
    run_workload_mono, try_mix_workload, try_multithreaded_workload, OrgKind, RunConfig, RunResult,
    SimError,
};

use crate::journal::Journal;
use crate::pool::{self, Job, JobError};
use crate::sweep::{self, Resilience, SweepReport};

/// Identifies a workload for the result cache.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum WorkloadId {
    /// A Table 3 multithreaded workload by name.
    Multithreaded(&'static str),
    /// A Table 2 multiprogrammed mix by name.
    Mix(&'static str),
    /// A declarative scenario spec ([`crate::spec`]), leak-interned
    /// so the id stays `Copy` and two spellings of the same scenario
    /// share one cache slot.
    Spec(&'static crate::spec::InternedSpec),
}

impl WorkloadId {
    /// The workload's display name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::Multithreaded(n) | WorkloadId::Mix(n) => n,
            WorkloadId::Spec(s) => s.spec.name.as_str(),
        }
    }

    /// Resolves a name against the fixed Table 3 / Table 2 catalog
    /// ([`crate::MULTITHREADED`], then [`crate::MIXES`]), yielding the
    /// `'static` id the memo cache keys on.
    pub fn from_catalog(name: &str) -> Option<WorkloadId> {
        let find = |names: &[&'static str]| names.iter().copied().find(|n| *n == name);
        find(&crate::MULTITHREADED)
            .map(WorkloadId::Multithreaded)
            .or_else(|| find(&crate::MIXES).map(WorkloadId::Mix))
    }
}

/// A (workload, organization) pair — the unit of simulation the labs
/// memoize and the batch API prefetches.
pub type Pair = (WorkloadId, OrgKind);

/// Simulates one pair from scratch. Pure: no shared state, seed and
/// sizing come from `cfg`, so equal inputs give bit-identical
/// [`RunResult`]s on any thread at any time — which is also why a
/// failing pair is quarantined on its first attempt instead of
/// retried: a re-run would fail the same way.
pub(crate) fn simulate_pair(pair: Pair, cfg: &RunConfig) -> Result<RunResult, SimError> {
    match pair.0 {
        WorkloadId::Multithreaded(name) => {
            Ok(run_workload_mono(try_multithreaded_workload(name, cfg.seed)?, pair.1, cfg))
        }
        WorkloadId::Mix(name) => {
            Ok(run_workload_mono(try_mix_workload(name, cfg.seed)?, pair.1, cfg))
        }
        // A spec's sizing overrides ride *inside* the cache key (the
        // interned canonical form), so overriding the lab's config
        // here keeps memoization sound.
        WorkloadId::Spec(s) => Ok(s.spec.simulate(pair.1, cfg)),
    }
}

/// Memoized single-pair lookups, implemented by [`Lab`]: on-demand
/// results plus the relative-performance helpers the figure
/// renderers are written with.
pub trait ResultSource {
    /// The run configuration in use.
    fn config(&self) -> &RunConfig;

    /// Returns the (cached) result for a pair, surfacing unknown
    /// workload names instead of panicking.
    fn try_result(&mut self, workload: WorkloadId, kind: OrgKind) -> Result<&RunResult, SimError>;

    /// Number of pairs simulated so far.
    fn runs(&self) -> usize;

    /// Returns the (cached) result for a workload/organization pair.
    ///
    /// # Panics
    ///
    /// Panics on an unknown workload name; prefer
    /// [`ResultSource::try_result`] when the name is not a
    /// compile-time constant.
    fn result(&mut self, workload: WorkloadId, kind: OrgKind) -> &RunResult {
        self.try_result(workload, kind).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Relative performance of `kind` vs the uniform-shared baseline
    /// on one workload (Figures 6, 10, 12).
    fn relative(&mut self, workload: WorkloadId, kind: OrgKind) -> f64 {
        let base = self.result(workload, OrgKind::Shared).ipc();
        let this = self.result(workload, kind).ipc();
        this / base
    }

    /// Arithmetic average of `relative` over several multithreaded
    /// workloads (the paper reports arithmetic averages).
    fn average_relative(&mut self, workloads: &[&'static str], kind: OrgKind) -> f64 {
        let sum: f64 =
            workloads.iter().map(|w| self.relative(WorkloadId::Multithreaded(w), kind)).sum();
        sum / workloads.len() as f64
    }
}

/// Per-submission outcome of [`Lab::run_batch`], aligned with
/// the submitted slice (duplicates included: every submission gets a
/// slot, which is how the serving layer answers N coalesced requests
/// from one simulation).
#[derive(Clone, Debug)]
pub enum BatchSlot {
    /// The simulation's result, cloned out of the memo cache.
    Done {
        /// The bit-exact [`RunResult`] for this pair, boxed so the
        /// error variants don't pay its full inline size.
        result: Box<RunResult>,
        /// Wall-clock milliseconds on the worker when *this*
        /// submission is the one that triggered the simulation;
        /// `None` when the result came from the memo cache, the
        /// journal, or an earlier duplicate in the same batch.
        millis: Option<f64>,
    },
    /// The simulator rejected the spec (unknown workload/mix/...) —
    /// a deterministic answer, never retried.
    Failed(SimError),
    /// An infrastructure fault (panic, deadline, lost worker)
    /// quarantined the job on its first attempt; details and the
    /// replay line in [`Lab::last_report`].
    Quarantined(JobError),
}

impl BatchSlot {
    /// The slot as a `Result`, mapping quarantine to
    /// [`SimError::JobFailed`] — the shape callers that do not
    /// distinguish fault classes want.
    pub fn into_result(self, pair: Pair) -> Result<RunResult, SimError> {
        match self {
            BatchSlot::Done { result, .. } => Ok(*result),
            BatchSlot::Failed(e) => Err(e),
            BatchSlot::Quarantined(e) => Err(SimError::JobFailed {
                pair: format!("{}/{}", pair.0.name(), pair.1.name()),
                cause: e.to_string(),
            }),
        }
    }
}

/// Per-pair timing recorded by [`Lab::prefetch`], in
/// submission order of the deduplicated misses.
#[derive(Clone, Debug)]
pub struct PairTiming {
    /// The workload of the simulated pair.
    pub workload: WorkloadId,
    /// The organization of the simulated pair.
    pub kind: OrgKind,
    /// Wall-clock milliseconds the simulation took on its worker.
    pub millis: f64,
}

/// A batch planned by [`Lab::plan`]: its submissions, the results the
/// memo cache already held for them, and the deduplicated misses with
/// the lab's worker count and resilience policy. It holds no borrow
/// of the lab.
#[derive(Debug)]
pub struct BatchPlan {
    pairs: Vec<Pair>,
    hits: HashMap<Pair, RunResult>,
    misses: Vec<Pair>,
    cfg: RunConfig,
    threads: usize,
    resilience: Resilience,
}

impl BatchPlan {
    /// The distinct pairs the cache could not answer, in submission
    /// order.
    pub fn misses(&self) -> &[Pair] {
        &self.misses
    }

    /// The run configuration the misses simulate under.
    pub fn config(&self) -> &RunConfig {
        &self.cfg
    }

    /// Simulates the misses across the plan's supervised worker pool.
    pub fn run(self) -> RanBatch {
        let (slots, report) =
            sweep::run_pairs(&self.misses, &self.cfg, self.threads, &self.resilience);
        RanBatch { plan: self, slots, report }
    }

    /// Completes the plan with outcomes computed elsewhere (the
    /// OS-process shard path), one slot per miss in miss order.
    pub(crate) fn ran(self, slots: Vec<BatchSlot>, report: SweepReport) -> RanBatch {
        debug_assert_eq!(slots.len(), self.misses.len());
        RanBatch { plan: self, slots, report }
    }
}

/// A [`BatchPlan`] whose misses have run, ready for [`Lab::commit`].
#[derive(Debug)]
pub struct RanBatch {
    plan: BatchPlan,
    slots: Vec<BatchSlot>,
    report: SweepReport,
}

/// Runs (workload, organization) pairs and memoizes the results, so
/// the figures that share runs (5, 6, 7, 8, 9, 10 all reuse the
/// shared/private baselines) simulate each pair once.
///
/// Single lookups ([`ResultSource::try_result`]) simulate on the
/// calling thread. [`Lab::prefetch`] and [`Lab::run_batch`] are the
/// batch front door: they deduplicate a batch against the memo cache,
/// fan the misses out across `CMP_BENCH_THREADS` scoped workers
/// (default: available parallelism), and merge the results back in
/// submission order.
///
/// Batches run through the sweep engine ([`crate::sweep`]): every job
/// is panic-isolated, and a job that panics or overruns its deadline
/// is quarantined on its first attempt into [`Lab::last_report`],
/// together with a one-line replay request, instead of aborting the
/// sweep. Attach a checkpoint journal with [`Lab::with_journal`] and a
/// killed sweep resumes exactly where it stopped.
pub struct Lab {
    cfg: RunConfig,
    cache: HashMap<Pair, RunResult>,
    simulations: usize,
    study_runs: usize,
    threads: usize,
    resilience: Resilience,
    journal: Option<Journal>,
    restored: usize,
    last_report: SweepReport,
}

impl Lab {
    /// Creates a lab with the worker count from `CMP_BENCH_THREADS`
    /// (default: available parallelism) and no journal.
    pub fn new(cfg: RunConfig) -> Self {
        Self::with_threads(cfg, pool::default_threads())
    }

    /// Creates a lab with an explicit worker count (clamped to at
    /// least 1).
    pub fn with_threads(cfg: RunConfig, threads: usize) -> Self {
        Lab {
            cfg,
            cache: HashMap::new(),
            simulations: 0,
            study_runs: 0,
            threads: threads.max(1),
            resilience: Resilience::default(),
            journal: None,
            restored: 0,
            last_report: SweepReport::default(),
        }
    }

    /// Creates a lab checkpointing to (and resuming from) the journal
    /// at `path`: completed records already on disk are restored into
    /// the memo cache, and every pair simulated from now on is
    /// appended as it completes. Appends are group-committed (one
    /// fsync per [`crate::journal::SWEEP_FSYNC_EVERY`] records,
    /// overridable via [`crate::journal::FSYNC_EVERY_ENV`]) with a
    /// final sync when each batch completes, so the per-record fsync
    /// never serializes the sweep's merge loop.
    pub fn with_journal(
        cfg: RunConfig,
        threads: usize,
        path: impl AsRef<std::path::Path>,
    ) -> Result<Self, SimError> {
        let (mut journal, records) = Journal::open(path, &cfg)?;
        journal.set_fsync_every(crate::journal::fsync_every_from_env_or(
            crate::journal::SWEEP_FSYNC_EVERY,
        ));
        let mut lab = Self::with_threads(cfg, threads);
        lab.restored = records.len();
        // Restored results are cached but not counted as simulations
        // (nothing was computed).
        lab.cache.extend(records);
        lab.journal = Some(journal);
        Ok(lab)
    }

    /// Creates a lab honouring the environment: worker count from
    /// `CMP_BENCH_THREADS`, checkpoint journal from
    /// [`crate::journal::JOURNAL_ENV`] when set and non-empty.
    pub fn from_env(cfg: RunConfig) -> Result<Self, SimError> {
        match std::env::var(crate::journal::JOURNAL_ENV) {
            Ok(path) if !path.trim().is_empty() => {
                Self::with_journal(cfg, pool::default_threads(), path.trim())
            }
            _ => Ok(Self::new(cfg)),
        }
    }

    /// Overrides the deadline/chaos policy for future batches.
    pub fn set_resilience(&mut self, resilience: Resilience) {
        self.resilience = resilience;
    }

    /// The worker count batches fan out to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Overrides the worker count for future batches (clamped to at
    /// least 1). The serving layer uses this to honour a request's
    /// `max-concurrency` field.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Number of simulations actually performed (cache hits,
    /// duplicate submissions, and journal-restored pairs excluded).
    pub fn simulations(&self) -> usize {
        self.simulations
    }

    /// Number of custom systems run through [`Lab::run_study_jobs`].
    pub fn study_runs(&self) -> usize {
        self.study_runs
    }

    /// Runs a study's custom systems (machines no [`OrgKind`] names)
    /// as one [`pool::run_jobs`] batch on the lab's workers and counts
    /// them in [`Lab::study_runs`]. The results come back in
    /// submission order and are neither cached nor journaled.
    pub fn run_study_jobs<T: Send>(&mut self, jobs: Vec<Job<T>>) -> Vec<T> {
        self.study_runs += jobs.len();
        pool::run_jobs(jobs, self.threads)
    }

    /// Number of pairs restored from the checkpoint journal at
    /// construction (0 without a journal).
    pub fn restored(&self) -> usize {
        self.restored
    }

    /// The attached journal's path, if checkpointing is on.
    pub fn journal_path(&self) -> Option<&std::path::Path> {
        self.journal.as_ref().map(Journal::path)
    }

    /// The report of the most recent batch (quarantined jobs with
    /// their replay lines, injected-fault accounting). Clean and
    /// empty before the first batch.
    pub fn last_report(&self) -> &SweepReport {
        &self.last_report
    }

    /// Whether a pair is already cached (a submission for it would be
    /// answered without simulating).
    pub fn contains(&self, workload: WorkloadId, kind: OrgKind) -> bool {
        self.cache.contains_key(&(workload, kind))
    }

    /// Borrow of a cached result, if present (no simulation).
    pub fn peek(&self, pair: Pair) -> Option<&RunResult> {
        self.cache.get(&pair)
    }

    /// Caches results this lab's owner already holds — computed or
    /// restored by an earlier life of the lab — without journaling
    /// them or counting them as simulations or restores.
    pub fn remember(&mut self, results: impl IntoIterator<Item = (Pair, RunResult)>) {
        self.cache.extend(results);
    }

    /// Closes the lab (its journal, if any, is synced on drop) and
    /// returns every cached result, in no particular order.
    pub fn into_results(self) -> Vec<(Pair, RunResult)> {
        self.cache.into_iter().collect()
    }

    /// Caches a result computed on this lab's behalf — by the calling
    /// thread, a pool worker, or a shard process — journaling it
    /// first. Counts as a simulation.
    fn insert(&mut self, pair: Pair, result: RunResult) {
        if let Some(j) = &mut self.journal {
            // Detach the journal (loudly) on write failure so one disk
            // hiccup does not kill an hours-long sweep.
            if let Err(e) = j.append(pair, &result) {
                cmp_obs::warn!("sweep journaling disabled", cause = e);
                self.journal = None;
            }
        }
        self.simulations += 1;
        self.cache.insert(pair, result);
    }

    /// Adopts a result computed for this lab — by a batch's worker
    /// pool, or by a shard process ([`crate::shard`]) — into the memo
    /// cache, journaling it. Counts as a simulation (work was
    /// performed on this lab's behalf); a pair already cached is left
    /// untouched.
    pub fn adopt(&mut self, pair: Pair, result: RunResult) {
        if !self.contains(pair.0, pair.1) {
            self.insert(pair, result);
        }
    }

    /// The batch core shared by [`Lab::prefetch`] (the CLI batch
    /// path) and the serving layer: simulates every not-yet-cached
    /// pair of the batch across the worker pool, merges fresh results
    /// into the memo cache (and the journal) in submission order, and
    /// returns one [`BatchSlot`] per *submission* — duplicates, cache
    /// hits, and journal-restored pairs are simulated zero times but
    /// still answered.
    ///
    /// It is exactly [`Lab::plan`] → [`BatchPlan::run`] →
    /// [`Lab::commit`]; the serving layer calls the three phases
    /// itself so the simulation runs without its lock held.
    ///
    /// A worker panic or deadline overrun quarantines its pair on the
    /// first attempt: it comes back as [`BatchSlot::Quarantined`] and
    /// in [`Lab::last_report`] — the batch itself always completes.
    pub fn run_batch(&mut self, pairs: &[Pair]) -> Vec<BatchSlot> {
        let _span = cmp_obs::span!("bench.prefetch");
        let ran = self.plan(pairs).run();
        self.commit(ran)
    }

    /// Plans a batch against the memo cache: cache hits are answered
    /// from clones taken now, and the misses are deduplicated in
    /// submission order. The plan borrows nothing from the lab, so it
    /// can run on any thread while the lab serves other callers.
    pub fn plan(&self, pairs: &[Pair]) -> BatchPlan {
        let mut hits = HashMap::new();
        let mut seen = HashSet::new();
        let mut misses = Vec::new();
        for &pair in pairs {
            match self.cache.get(&pair) {
                Some(r) => {
                    hits.entry(pair).or_insert_with(|| r.clone());
                }
                None if seen.insert(pair) => misses.push(pair),
                None => {}
            }
        }
        BatchPlan {
            pairs: pairs.to_vec(),
            hits,
            misses,
            cfg: self.cfg,
            threads: self.threads,
            resilience: self.resilience.clone(),
        }
    }

    /// Merges a run batch into the memo cache (and the journal) in
    /// miss order and answers every submission of its plan. A miss
    /// that another batch committed meanwhile is left as cached (the
    /// results are bit-identical; the journal keeps one record).
    pub fn commit(&mut self, ran: RanBatch) -> Vec<BatchSlot> {
        let RanBatch { plan, slots, report } = ran;
        self.last_report = report;
        // Merge fresh results into the cache in miss order, noting
        // failures and which miss carried each pair's wall-clock.
        let mut failed: HashMap<Pair, BatchSlot> = HashMap::new();
        let mut fresh_ms: HashMap<Pair, f64> = HashMap::new();
        for (pair, slot) in plan.misses.into_iter().zip(slots) {
            match slot {
                BatchSlot::Done { result, millis } => {
                    self.adopt(pair, *result);
                    if let Some(ms) = millis {
                        fresh_ms.insert(pair, ms);
                    }
                }
                slot => {
                    failed.insert(pair, slot);
                }
            }
        }
        // Batch barrier: group-committed records become durable when
        // the batch completes, so a finished sweep never loses
        // results to a later crash. Detaches (loudly) on failure,
        // like any other journal write problem.
        if let Some(j) = &mut self.journal {
            if let Err(e) = j.sync() {
                cmp_obs::warn!("sweep journaling disabled", cause = e);
                self.journal = None;
            }
        }
        plan.pairs
            .iter()
            .map(|pair| {
                if let Some(slot) = failed.get(pair) {
                    return slot.clone();
                }
                match plan.hits.get(pair).or_else(|| self.cache.get(pair)) {
                    // The first submission of a fresh pair takes the
                    // timing; duplicates and cache hits report None.
                    Some(r) => BatchSlot::Done {
                        result: Box::new(r.clone()),
                        millis: fresh_ms.remove(pair),
                    },
                    // Unreachable (every miss is cached, failed, or
                    // quarantined); a defensive answer beats a panic
                    // in a serving path.
                    None => BatchSlot::Quarantined(JobError::Cancelled),
                }
            })
            .collect()
    }

    /// Simulates every not-yet-cached pair of the batch across the
    /// worker pool and merges the results into the memo cache in
    /// submission order. Duplicate submissions, already-cached pairs,
    /// and journal-restored pairs are simulated zero times. Returns
    /// per-pair timings of the misses; on an unknown workload name,
    /// every valid pair is still cached and the first error (in
    /// submission order) is returned.
    ///
    /// A worker panic or deadline overrun quarantines its pair in
    /// [`Lab::last_report`] — the batch itself still completes with
    /// partial results, and the pair stays reachable on demand
    /// through [`ResultSource::try_result`].
    pub fn prefetch(&mut self, pairs: &[Pair]) -> Result<Vec<PairTiming>, SimError> {
        let slots = self.run_batch(pairs);
        let mut timings = Vec::new();
        let mut first_err = None;
        for (pair, slot) in pairs.iter().zip(slots) {
            match slot {
                BatchSlot::Done { millis: Some(millis), .. } => {
                    timings.push(PairTiming { workload: pair.0, kind: pair.1, millis });
                }
                BatchSlot::Done { .. } => {}
                BatchSlot::Failed(e) if first_err.is_none() => first_err = Some(e),
                BatchSlot::Failed(_) | BatchSlot::Quarantined(_) => {}
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(timings),
        }
    }

    /// Overrides the journal's group-commit interval (no-op without a
    /// journal) — see [`crate::journal::FSYNC_EVERY_ENV`].
    pub fn set_journal_fsync_every(&mut self, every: usize) {
        if let Some(j) = &mut self.journal {
            j.set_fsync_every(every);
        }
    }

    /// Forces any group-committed journal records to disk now (no-op
    /// without a journal); the serving layer calls this on drain.
    pub fn sync_journal(&mut self) -> Result<(), SimError> {
        match &mut self.journal {
            Some(j) => j.sync(),
            None => Ok(()),
        }
    }
}

impl ResultSource for Lab {
    fn config(&self) -> &RunConfig {
        &self.cfg
    }

    fn try_result(&mut self, workload: WorkloadId, kind: OrgKind) -> Result<&RunResult, SimError> {
        let key = (workload, kind);
        if !self.cache.contains_key(&key) {
            let r = simulate_pair(key, &self.cfg)?;
            self.insert(key, r);
        }
        Ok(&self.cache[&key])
    }

    fn runs(&self) -> usize {
        self.cache.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> RunConfig {
        RunConfig::sized(500, 1_000, 7)
    }

    #[test]
    fn results_are_memoized() {
        let mut lab = Lab::new(tiny_cfg());
        let a = lab.result(WorkloadId::Multithreaded("barnes"), OrgKind::Shared).ipc();
        assert_eq!(lab.runs(), 1);
        let b = lab.result(WorkloadId::Multithreaded("barnes"), OrgKind::Shared).ipc();
        assert_eq!(lab.runs(), 1, "second lookup must hit the cache");
        assert_eq!(lab.simulations(), 1);
        assert_eq!(a, b);
    }

    #[test]
    fn relative_of_baseline_is_one() {
        let mut lab = Lab::new(tiny_cfg());
        let r = lab.relative(WorkloadId::Multithreaded("ocean"), OrgKind::Shared);
        assert!((r - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mixes_run_too() {
        let mut lab = Lab::new(tiny_cfg());
        let r = lab.result(WorkloadId::Mix("MIX4"), OrgKind::Private);
        assert_eq!(r.workload, "MIX4");
    }

    #[test]
    fn unknown_workload_surfaces_as_error() {
        let mut lab = Lab::new(tiny_cfg());
        let err = lab.try_result(WorkloadId::Multithreaded("tpch"), OrgKind::Shared).unwrap_err();
        assert_eq!(err, SimError::UnknownWorkload("tpch".into()));
        let err = lab.try_result(WorkloadId::Mix("MIX9"), OrgKind::Shared).unwrap_err();
        assert_eq!(err, SimError::UnknownMix("MIX9".into()));
        assert_eq!(lab.runs(), 0, "failed lookups must not pollute the cache");
    }

    #[test]
    fn workload_id_names() {
        assert_eq!(WorkloadId::Multithreaded("oltp").name(), "oltp");
        assert_eq!(WorkloadId::Mix("MIX1").name(), "MIX1");
    }

    #[test]
    fn prefetch_dedupes_and_matches_sequential() {
        let oltp = WorkloadId::Multithreaded("oltp");
        let pairs = [
            (oltp, OrgKind::Shared),
            (oltp, OrgKind::Private),
            (oltp, OrgKind::Shared), // duplicate submission
        ];
        let mut par = Lab::with_threads(tiny_cfg(), 2);
        let timings = par.prefetch(&pairs).unwrap();
        assert_eq!(timings.len(), 2, "duplicate must not be simulated");
        assert_eq!(par.simulations(), 2);
        // Re-prefetching is free.
        assert!(par.prefetch(&pairs).unwrap().is_empty());
        assert_eq!(par.simulations(), 2);

        let mut seq = Lab::with_threads(tiny_cfg(), 1);
        for (w, k) in [(oltp, OrgKind::Shared), (oltp, OrgKind::Private)] {
            assert_eq!(par.result(w, k), seq.result(w, k), "{w:?}/{k:?}");
        }
    }

    #[test]
    fn run_batch_answers_every_submission() {
        let oltp = WorkloadId::Multithreaded("oltp");
        let bad = WorkloadId::Multithreaded("tpch");
        let pairs = [
            (oltp, OrgKind::Shared),
            (bad, OrgKind::Shared),
            (oltp, OrgKind::Shared), // duplicate submission
        ];
        let mut par = Lab::with_threads(tiny_cfg(), 2);
        let slots = par.run_batch(&pairs);
        assert_eq!(slots.len(), 3, "one slot per submission, duplicates included");
        assert!(
            matches!(&slots[0], BatchSlot::Done { millis: Some(_), .. }),
            "first submission carries the timing: {:?}",
            slots[0]
        );
        assert!(
            matches!(&slots[1], BatchSlot::Failed(SimError::UnknownWorkload(n)) if n == "tpch")
        );
        assert!(
            matches!(&slots[2], BatchSlot::Done { millis: None, .. }),
            "the duplicate is answered from the batch's own simulation: {:?}",
            slots[2]
        );
        assert_eq!(par.simulations(), 1);
        // Resubmitting is answered entirely from the memo cache.
        let again = par.run_batch(&pairs[..1]);
        assert!(matches!(&again[0], BatchSlot::Done { millis: None, .. }));
        assert_eq!(par.simulations(), 1);
        // into_result maps quarantine to JobFailed.
        let q = BatchSlot::Quarantined(crate::pool::JobError::TimedOut);
        match q.into_result((oltp, OrgKind::Shared)) {
            Err(SimError::JobFailed { pair, cause }) => {
                assert_eq!(pair, "oltp/shared");
                assert_eq!(cause, "timed out");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn prefetch_surfaces_first_error_but_caches_valid_pairs() {
        let mut par = Lab::with_threads(tiny_cfg(), 2);
        let pairs = [
            (WorkloadId::Multithreaded("barnes"), OrgKind::Shared),
            (WorkloadId::Multithreaded("tpch"), OrgKind::Shared),
            (WorkloadId::Mix("MIX9"), OrgKind::Shared),
        ];
        let err = par.prefetch(&pairs).unwrap_err();
        assert_eq!(err, SimError::UnknownWorkload("tpch".into()));
        assert_eq!(par.simulations(), 1, "the valid pair is cached");
        assert!(par.try_result(WorkloadId::Multithreaded("barnes"), OrgKind::Shared).is_ok());
    }
}
