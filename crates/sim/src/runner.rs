//! Experiment plumbing: organization construction and standard runs.

use cmp_cache::{CacheOrg, Cnuca, Dnuca, PrivateMesi, Snuca, UniformShared};
use cmp_latency::LatencyBook;
use cmp_mem::{Addr, CoreId};
use cmp_nurapid::{CmpNurapid, NurapidConfig};
use cmp_trace::{profiles, Access, MixWorkload, SyntheticWorkload, TraceSource};

use crate::error::SimError;
use crate::stopping::StopRule;
use crate::system::{RunResult, System};

/// The five L2 organizations the paper compares (Section 4.2), plus
/// the CR-only / ISC-only ablations of Figure 8. Hashable so batch
/// harnesses can key result caches on the kind directly.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OrgKind {
    /// 8 MB 32-way uniform-shared cache (the normalization baseline).
    Shared,
    /// Four private 2 MB MESI caches.
    Private,
    /// CMP-SNUCA: banked non-uniform shared cache.
    Snuca,
    /// CMP-DNUCA: banked non-uniform shared cache with gradual
    /// migration (the baseline the paper excludes; implemented to
    /// reproduce that exclusion's justification).
    Dnuca,
    /// Shared capacity at private latency (upper bound).
    Ideal,
    /// CMP-NuRAPID with CR + ISC (the paper's design).
    Nurapid,
    /// CMP-NuRAPID with controlled replication only (Figure 8 "CR").
    NurapidCrOnly,
    /// CMP-NuRAPID with in-situ communication only (Figure 8 "ISC").
    NurapidIscOnly,
    /// CMP-CNUCA: compressed banked shared cache (YACC-style,
    /// arXiv:2201.00774), a scenario-spec extension beyond the paper.
    Cnuca,
}

impl OrgKind {
    /// All organizations of the headline comparison (Figure 10).
    pub const COMPARISON: [OrgKind; 5] =
        [OrgKind::Shared, OrgKind::Snuca, OrgKind::Private, OrgKind::Ideal, OrgKind::Nurapid];

    /// Every organization the runner can build, ablations included.
    pub const ALL: [OrgKind; 9] = [
        OrgKind::Shared,
        OrgKind::Private,
        OrgKind::Snuca,
        OrgKind::Dnuca,
        OrgKind::Ideal,
        OrgKind::Nurapid,
        OrgKind::NurapidCrOnly,
        OrgKind::NurapidIscOnly,
        OrgKind::Cnuca,
    ];

    /// Display name.
    pub fn label(self) -> &'static str {
        match self {
            OrgKind::Shared => "uniform-shared",
            OrgKind::Private => "private",
            OrgKind::Snuca => "non-uniform-shared",
            OrgKind::Dnuca => "CMP-DNUCA",
            OrgKind::Ideal => "ideal",
            OrgKind::Nurapid => "CMP-NuRAPID",
            OrgKind::NurapidCrOnly => "CMP-NuRAPID (CR only)",
            OrgKind::NurapidIscOnly => "CMP-NuRAPID (ISC only)",
            OrgKind::Cnuca => "CMP-CNUCA (compressed)",
        }
    }

    /// Stable short name, unique per variant (unlike
    /// [`CacheOrg::name`], which reports "nurapid" for all three
    /// NuRAPID configurations). Replay artifacts use these.
    pub fn name(self) -> &'static str {
        match self {
            OrgKind::Shared => "shared",
            OrgKind::Private => "private",
            OrgKind::Snuca => "snuca",
            OrgKind::Dnuca => "dnuca",
            OrgKind::Ideal => "ideal",
            OrgKind::Nurapid => "nurapid",
            OrgKind::NurapidCrOnly => "nurapid-cr",
            OrgKind::NurapidIscOnly => "nurapid-isc",
            OrgKind::Cnuca => "cnuca",
        }
    }

    /// Resolves a short name back to the kind.
    pub fn from_name(name: &str) -> Option<OrgKind> {
        OrgKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Receives the concrete organization [`with_org`] builds for an
/// [`OrgKind`], so one match serves both the boxed and the
/// monomorphized paths.
trait OrgVisitor {
    type Out;
    fn visit<O: CacheOrg + 'static>(self, org: O) -> Self::Out;
}

/// The one `OrgKind` → organization mapping: builds `kind` for the
/// machine described by `book` (which fixes the core count) and a
/// total L2 capacity, and hands the concrete org to `visitor`.
/// NuRAPID splits the capacity into one d-group per core (rounded up
/// to a power of two).
fn with_org<V: OrgVisitor>(
    kind: OrgKind,
    book: &LatencyBook,
    l2_bytes: usize,
    visitor: V,
) -> V::Out {
    let nurapid = |base: NurapidConfig| {
        CmpNurapid::new(NurapidConfig {
            cores: book.cores(),
            dgroup_bytes: l2_bytes / book.cores().next_power_of_two(),
            latencies: book.clone(),
            ..base
        })
    };
    match kind {
        OrgKind::Shared => visitor.visit(UniformShared::sized_shared(book, l2_bytes)),
        OrgKind::Private => visitor.visit(PrivateMesi::sized(book, l2_bytes)),
        OrgKind::Snuca => visitor.visit(Snuca::sized(book, l2_bytes)),
        OrgKind::Dnuca => visitor.visit(Dnuca::sized(book, l2_bytes)),
        OrgKind::Ideal => visitor.visit(UniformShared::sized_ideal(book, l2_bytes)),
        OrgKind::Nurapid => visitor.visit(nurapid(NurapidConfig::paper())),
        OrgKind::NurapidCrOnly => visitor.visit(nurapid(NurapidConfig::paper_cr_only())),
        OrgKind::NurapidIscOnly => visitor.visit(nurapid(NurapidConfig::paper_isc_only())),
        OrgKind::Cnuca => visitor.visit(Cnuca::sized(book, l2_bytes)),
    }
}

/// Builds an organization at the paper's scale.
pub fn build_org(kind: OrgKind) -> Box<dyn CacheOrg> {
    build_org_sized(kind, &LatencyBook::paper(), cmp_mem::L2_TOTAL_BYTES)
}

/// Builds an organization for an arbitrary machine described by a
/// latency book and a total L2 capacity — the scenario-spec path.
/// With `LatencyBook::paper()` and [`cmp_mem::L2_TOTAL_BYTES`] it is
/// [`build_org`].
pub fn build_org_sized(kind: OrgKind, book: &LatencyBook, l2_bytes: usize) -> Box<dyn CacheOrg> {
    struct Boxed;
    impl OrgVisitor for Boxed {
        type Out = Box<dyn CacheOrg>;
        fn visit<O: CacheOrg + 'static>(self, org: O) -> Box<dyn CacheOrg> {
            Box::new(org)
        }
    }
    with_org(kind, book, l2_bytes, Boxed)
}

/// Run sizing shared by the figure harnesses.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// References per core discarded as warm-up.
    pub warmup_accesses: u64,
    /// References per core measured.
    pub measure_accesses: u64,
    /// Workload seed.
    pub seed: u64,
    /// When the measurement phase ends: the exact fixed budget
    /// (default, golden-guarded) or confidence-based early stopping
    /// (the opt-in approximate mode).
    pub stop: StopRule,
}

impl RunConfig {
    /// A configuration with explicit sizing and the default exact
    /// (fixed-budget) stop rule.
    pub fn sized(warmup_accesses: u64, measure_accesses: u64, seed: u64) -> Self {
        RunConfig { warmup_accesses, measure_accesses, seed, stop: StopRule::Fixed }
    }

    /// A quick configuration for tests and examples.
    pub fn quick() -> Self {
        Self::sized(20_000, 40_000, 0x15CA)
    }

    /// The full configuration used to regenerate the paper's numbers:
    /// 1.5 M references per core of warm-up (populating the 8 MB
    /// cache), 3 M measured.
    pub fn paper() -> Self {
        Self::sized(1_500_000, 3_000_000, 0x15CA)
    }

    /// The same sizing with a different stop rule.
    pub fn with_stop(mut self, stop: StopRule) -> Self {
        self.stop = stop;
        self
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        Self::quick()
    }
}

/// Builds one of the Table 3 multithreaded workloads by name at the
/// paper's four cores.
pub fn try_multithreaded_workload(name: &str, seed: u64) -> Result<SyntheticWorkload, SimError> {
    try_multithreaded_workload_for(name, seed, cmp_mem::PAPER_CORES)
}

/// Builds one of the Table 3 multithreaded workloads by name at an
/// explicit core count (the scenario-spec path; the synthetic
/// profiles scale to any positive core count).
pub fn try_multithreaded_workload_for(
    name: &str,
    seed: u64,
    cores: usize,
) -> Result<SyntheticWorkload, SimError> {
    if cores == 0 {
        return Err(SimError::UnsupportedCores { workload: name.to_string(), cores });
    }
    match name {
        "oltp" => Ok(profiles::oltp(cores, seed)),
        "apache" => Ok(profiles::apache(cores, seed)),
        "specjbb" => Ok(profiles::specjbb(cores, seed)),
        "ocean" => Ok(profiles::ocean(cores, seed)),
        "barnes" => Ok(profiles::barnes(cores, seed)),
        other => Err(SimError::UnknownWorkload(other.to_string())),
    }
}

/// Builds one of the Table 3 multithreaded workloads by name.
///
/// # Panics
///
/// Panics on an unknown name; batch drivers should prefer
/// [`try_multithreaded_workload`].
pub fn multithreaded_workload(name: &str, seed: u64) -> SyntheticWorkload {
    try_multithreaded_workload(name, seed).unwrap_or_else(|e| panic!("{e}"))
}

/// Builds one of the Table 2 multiprogrammed mixes by name.
pub fn try_mix_workload(name: &str, seed: u64) -> Result<MixWorkload, SimError> {
    MixWorkload::table2(name, seed).ok_or_else(|| SimError::UnknownMix(name.to_string()))
}

/// Any workload the runner can name: a Table 3 multithreaded
/// workload or a Table 2 multiprogrammed mix, behind one
/// [`TraceSource`]. Lets the audited/replay entry points accept
/// either namespace from one string.
#[derive(Debug)]
pub enum AnyWorkload {
    /// A Table 3 multithreaded workload (boxed: the generators are
    /// large and the enum is moved around by value).
    Synthetic(Box<SyntheticWorkload>),
    /// A Table 2 multiprogrammed mix.
    Mix(MixWorkload),
}

impl TraceSource for AnyWorkload {
    fn next_access(&mut self, core: CoreId) -> Access {
        match self {
            AnyWorkload::Synthetic(w) => w.next_access(core),
            AnyWorkload::Mix(w) => w.next_access(core),
        }
    }

    fn name(&self) -> &str {
        match self {
            AnyWorkload::Synthetic(w) => w.name(),
            AnyWorkload::Mix(w) => w.name(),
        }
    }

    fn cores(&self) -> usize {
        match self {
            AnyWorkload::Synthetic(w) => w.cores(),
            AnyWorkload::Mix(w) => w.cores(),
        }
    }

    fn code_region(&self, core: CoreId) -> Option<(Addr, u64, f64)> {
        match self {
            AnyWorkload::Synthetic(w) => w.code_region(core),
            AnyWorkload::Mix(w) => w.code_region(core),
        }
    }
}

/// Resolves a workload name against Table 3 first, then Table 2, at
/// the paper's four cores.
pub fn workload_by_name(name: &str, seed: u64) -> Result<AnyWorkload, SimError> {
    workload_by_name_for(name, seed, cmp_mem::PAPER_CORES)
}

/// Resolves a workload name at an explicit core count. Table 3
/// synthetic workloads scale to any positive `cores`; Table 2 mixes
/// are defined as exactly one application per core over four
/// applications, so asking for a mix at `cores != 4` returns
/// [`SimError::UnsupportedCores`] instead of silently simulating a
/// different machine.
pub fn workload_by_name_for(name: &str, seed: u64, cores: usize) -> Result<AnyWorkload, SimError> {
    match try_multithreaded_workload_for(name, seed, cores) {
        Ok(w) => return Ok(AnyWorkload::Synthetic(Box::new(w))),
        Err(e @ SimError::UnsupportedCores { .. }) => return Err(e),
        Err(_) => {}
    }
    match MixWorkload::table2(name, seed) {
        Some(w) if w.cores() == cores => Ok(AnyWorkload::Mix(w)),
        Some(_) => Err(SimError::UnsupportedCores { workload: name.to_string(), cores }),
        None => Err(SimError::UnknownWorkload(name.to_string())),
    }
}

/// Runs a workload on one of the stock organizations through a fully
/// monomorphized `System<W, O>`: the `OrgKind` match is the only
/// dispatch in the run — inside each arm the L1-filter → L2 → bus
/// step chain inlines into one virtual-call-free loop. This is the
/// hot path every sweep takes; results are bit-identical to
/// [`run`] over [`build_org`]'s `Box<dyn CacheOrg>` (same
/// construction, same schedule, same RNG draws).
pub fn run_workload_mono<W: TraceSource>(workload: W, kind: OrgKind, cfg: &RunConfig) -> RunResult {
    run_workload_mono_with(workload, kind, cfg, &LatencyBook::paper(), cmp_mem::L2_TOTAL_BYTES)
}

/// [`run_workload_mono`] for an arbitrary machine: the same
/// monomorphized dispatch, but over a caller-supplied latency book
/// (which fixes the core count) and total L2 capacity. The scenario
/// spec path lowers here; the paper path above is the special case
/// `(LatencyBook::paper(), L2_TOTAL_BYTES)` and stays bit-identical.
pub fn run_workload_mono_with<W: TraceSource>(
    workload: W,
    kind: OrgKind,
    cfg: &RunConfig,
    book: &LatencyBook,
    l2_bytes: usize,
) -> RunResult {
    struct Run<'a, W> {
        workload: W,
        cfg: &'a RunConfig,
    }
    impl<W: TraceSource> OrgVisitor for Run<'_, W> {
        type Out = RunResult;
        fn visit<O: CacheOrg + 'static>(self, org: O) -> RunResult {
            run(self.workload, org, self.cfg)
        }
    }
    with_org(kind, book, l2_bytes, Run { workload, cfg })
}

/// Runs `workload` on `org` through `cfg`'s warm-up and measurement
/// phases. A concrete org runs monomorphized; a `Box<dyn CacheOrg>`
/// (a custom configuration, such as the ablation studies build) runs
/// through the same `System` loop at one virtual call per L2 access.
///
/// Records one `sim.run` span and the `sim.*` aggregate counters.
/// Aggregates are added once per run, after it completes, so the
/// per-access hot path carries no instrumentation of its own.
pub fn run<W: TraceSource, O: CacheOrg>(workload: W, org: O, cfg: &RunConfig) -> RunResult {
    static RUNS: cmp_obs::Counter = cmp_obs::Counter::new("sim.runs");
    static INSTRUCTIONS: cmp_obs::Counter = cmp_obs::Counter::new("sim.instructions");
    static ACCESSES: cmp_obs::Counter = cmp_obs::Counter::new("sim.accesses");
    static CYCLES: cmp_obs::Counter = cmp_obs::Counter::new("sim.cycles");
    static APPROX_RUNS: cmp_obs::Counter = cmp_obs::Counter::new("sim.approx.runs");
    static APPROX_EARLY: cmp_obs::Counter = cmp_obs::Counter::new("sim.approx.early_stops");
    let mut sys = System::new(workload, org);
    let _span = cmp_obs::span!("sim.run");
    let result = if cfg.stop.is_fixed() {
        sys.run_measured(cfg.warmup_accesses, cfg.measure_accesses)
    } else {
        let (result, info) =
            sys.run_measured_stop(cfg.warmup_accesses, cfg.measure_accesses, cfg.stop);
        APPROX_RUNS.inc();
        if info.stopped_early {
            APPROX_EARLY.inc();
        }
        result
    };
    RUNS.inc();
    INSTRUCTIONS.add(result.instructions);
    ACCESSES.add(result.accesses);
    CYCLES.add(result.cycles);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_all_orgs() {
        for kind in OrgKind::ALL {
            let org = build_org(kind);
            assert_eq!(org.cores(), 4);
            assert!(!kind.label().is_empty());
        }
    }

    #[test]
    fn org_names_roundtrip_and_are_unique() {
        for kind in OrgKind::ALL {
            assert_eq!(OrgKind::from_name(kind.name()), Some(kind));
        }
        let names: std::collections::HashSet<_> = OrgKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), OrgKind::ALL.len());
        assert_eq!(OrgKind::from_name("l4"), None);
    }

    #[test]
    fn fallible_entry_points_return_errors() {
        use crate::error::SimError;
        assert_eq!(
            try_multithreaded_workload("tpch", 1).unwrap_err(),
            SimError::UnknownWorkload("tpch".into())
        );
        assert_eq!(try_mix_workload("MIX9", 1).unwrap_err(), SimError::UnknownMix("MIX9".into()));
        assert_eq!(
            workload_by_name("nope", 1).unwrap_err(),
            SimError::UnknownWorkload("nope".into())
        );
    }

    #[test]
    fn workload_by_name_for_threads_core_count() {
        use cmp_trace::TraceSource;
        for cores in [1usize, 2, 8, 16, 64] {
            let w = workload_by_name_for("oltp", 1, cores).unwrap();
            assert_eq!(w.cores(), cores, "oltp at {cores} cores");
        }
        // Mixes are four applications over four cores, full stop.
        let m = workload_by_name_for("MIX1", 1, 4).unwrap();
        assert!(matches!(m, AnyWorkload::Mix(_)));
        assert_eq!(
            workload_by_name_for("MIX1", 1, 8).unwrap_err(),
            SimError::UnsupportedCores { workload: "MIX1".into(), cores: 8 }
        );
        assert_eq!(
            workload_by_name_for("oltp", 1, 0).unwrap_err(),
            SimError::UnsupportedCores { workload: "oltp".into(), cores: 0 }
        );
    }

    #[test]
    fn sized_paths_match_paper_paths_at_paper_scale() {
        // The boxed org, the monomorphized paper path and the sized
        // path at the paper book and 8 MB are one machine: a short run
        // is bit-identical through all three, for every organization.
        let book = LatencyBook::paper();
        let cfg = RunConfig::sized(500, 1_000, 7);
        let barnes = || multithreaded_workload("barnes", cfg.seed);
        for kind in OrgKind::ALL {
            let dyn_run = run(barnes(), build_org(kind), &cfg);
            let mono = run_workload_mono(barnes(), kind, &cfg);
            let sized =
                run_workload_mono_with(barnes(), kind, &cfg, &book, cmp_mem::L2_TOTAL_BYTES);
            assert_eq!(dyn_run, mono, "{}: dyn != mono", kind.name());
            assert_eq!(mono, sized, "{}: mono != sized", kind.name());
        }
    }

    #[test]
    fn eight_core_machine_runs_end_to_end() {
        use cmp_latency::{LatencyBook, Table1};
        let book = LatencyBook::from_table1(&Table1::published(), 8);
        let l2_bytes = cmp_mem::L2_TOTAL_BYTES / cmp_mem::PAPER_CORES * 8;
        let cfg = RunConfig::sized(500, 1_000, 7);
        for kind in [OrgKind::Shared, OrgKind::Snuca, OrgKind::Nurapid, OrgKind::Cnuca] {
            let w = workload_by_name_for("apache", cfg.seed, 8).unwrap();
            let r = run_workload_mono_with(w, kind, &cfg, &book, l2_bytes);
            assert!(r.l2.accesses() > 0, "{} at 8 cores", kind.name());
            assert!(r.ipc() > 0.0);
        }
    }

    #[test]
    fn workload_by_name_resolves_both_namespaces() {
        use cmp_trace::TraceSource;
        let w = workload_by_name("oltp", 1).unwrap();
        assert_eq!(w.name(), "oltp");
        assert!(matches!(w, AnyWorkload::Synthetic(_)));
        let m = workload_by_name("MIX4", 1).unwrap();
        assert_eq!(m.name(), "MIX4");
        assert!(matches!(m, AnyWorkload::Mix(_)));
        assert_eq!(m.cores(), 4);
    }

    #[test]
    fn workloads_resolve() {
        for name in ["oltp", "apache", "specjbb", "ocean", "barnes"] {
            let w = multithreaded_workload(name, 1);
            assert_eq!(cmp_trace::TraceSource::name(&w), name);
        }
    }

    #[test]
    #[should_panic(expected = "unknown multithreaded workload")]
    fn unknown_workload_panics() {
        let _ = multithreaded_workload("tpch", 1);
    }

    #[test]
    fn quick_run_produces_stats() {
        let cfg = RunConfig::sized(1_000, 2_000, 3);
        let r =
            run_workload_mono(multithreaded_workload("barnes", cfg.seed), OrgKind::Private, &cfg);
        assert_eq!(r.org, "private");
        assert_eq!(r.workload, "barnes");
        assert!(r.l2.accesses() > 0);
    }

    #[test]
    fn mix_run_produces_stats() {
        let cfg = RunConfig::sized(1_000, 2_000, 3);
        let r = run(try_mix_workload("MIX4", cfg.seed).unwrap(), build_org(OrgKind::Nurapid), &cfg);
        assert_eq!(r.workload, "MIX4");
        assert!(r.ipc() > 0.0);
    }
}
