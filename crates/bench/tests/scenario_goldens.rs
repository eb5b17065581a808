//! Golden snapshots for the spec-driven scenario families.
//!
//! Each committed spec file under `scenarios/` seeds a sharing-degree
//! sweep family (the shared-cache sharing-degree axis of Yavits et
//! al., arXiv:1602.01329): the spec is re-lowered at every divisor of
//! its core count and run across a small organization axis, including
//! the compressed-NUCA org. The whole family is rendered to one JSON
//! snapshot under `tests/goldens/scenarios/` and gated two ways:
//!
//! 1. The render must be byte-identical at 1, 2, and 8 lab threads —
//!    the scheduling of the batch pool must never leak into results.
//!    (The 64-core spec runs one degree, its own, over the three
//!    snoopy-or-shared orgs at 1 and 2 threads, to stay fast.)
//! 2. The 1-thread render must match the committed golden byte for
//!    byte. The simulator is deterministic, so any drift is a real
//!    behavioural change; if intended, regenerate with
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p cmp-bench --test scenario_goldens
//! ```

use std::path::PathBuf;

use cmp_bench::{spec, Json, Lab, Pair, ResultSource, ScenarioSpec, WorkloadId};
use cmp_cache::AccessClass;
use cmp_sim::{OrgKind, RunConfig};

/// The organization axis every family sweeps.
const ORGS: [OrgKind; 3] = [OrgKind::Shared, OrgKind::Nurapid, OrgKind::Cnuca];

/// The 64-core spec's organization axis: the shared baseline and the
/// two organizations that snoop per-core tag arrays.
const SNOOPY_ORGS: [OrgKind; 3] = [OrgKind::Shared, OrgKind::Private, OrgKind::Nurapid];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

fn goldens_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("goldens").join("scenarios")
}

/// The sharing-degree axis: every divisor of the core count.
fn degrees(cores: usize) -> Vec<usize> {
    (1..=cores).filter(|d| cores.is_multiple_of(*d)).collect()
}

/// The axes a spec file is swept over.
struct Axes<'a> {
    degrees: Vec<usize>,
    orgs: &'a [OrgKind],
    threads: &'a [usize],
}

impl Axes<'_> {
    /// Every divisor of the core count, on [`ORGS`], at 1, 2 and 8
    /// lab threads.
    fn family(cores: usize) -> Axes<'static> {
        Axes { degrees: degrees(cores), orgs: &ORGS, threads: &[1, 2, 8] }
    }
}

/// Lowers one spec file into its family of (variant spec, org) pairs.
fn family(base: &ScenarioSpec, axes: &Axes) -> Vec<(&'static spec::InternedSpec, OrgKind)> {
    let mut pairs = Vec::new();
    for &d in &axes.degrees {
        let mut variant = base.clone();
        variant.sharing_degree = d;
        variant.name = format!("{}-deg{d}", base.name);
        let interned = spec::intern(&variant);
        for &org in axes.orgs {
            pairs.push((interned, org));
        }
    }
    pairs
}

/// Renders the family's results as the snapshot text. Exact counts
/// and derived ratios both go in: the gate is byte identity, not a
/// tolerance band, because every run is a pure function of the spec.
fn render(base: &ScenarioSpec, axes: &Axes, lab: &mut Lab) -> String {
    let members = family(base, axes);
    let pairs: Vec<Pair> = members.iter().map(|&(s, o)| (WorkloadId::Spec(s), o)).collect();
    lab.prefetch(&pairs).expect("scenario family must simulate");

    let mut out = Json::obj();
    out.set("spec", Json::Str(spec::intern(base).canon.clone()));
    let mut series = Json::obj();
    for (interned, org) in members {
        let r = lab
            .try_result(WorkloadId::Spec(interned), org)
            .expect("prefetched result must be present")
            .clone();
        let prefix = format!("deg{}/{}", interned.spec.sharing_degree, org.name());
        let miss = [AccessClass::MissRos, AccessClass::MissRws, AccessClass::MissCapacity]
            .iter()
            .map(|&c| r.l2.class_fraction(c).value())
            .sum::<f64>();
        series.set(&format!("{prefix}/accesses/n"), Json::Num(r.accesses as f64));
        series.set(&format!("{prefix}/cycles/n"), Json::Num(r.cycles as f64));
        series.set(&format!("{prefix}/l2-accesses/n"), Json::Num(r.l2.accesses() as f64));
        series.set(&format!("{prefix}/ipc"), Json::Num(r.ipc()));
        series.set(&format!("{prefix}/l2-miss-rate"), Json::Num(miss));
    }
    out.set("series", series);
    format!("{out}\n")
}

fn check_family(spec_file: &str, golden_name: &str, axes: impl FnOnce(usize) -> Axes<'static>) {
    let base = ScenarioSpec::from_file(repo_root().join("scenarios").join(spec_file))
        .expect("committed spec file must parse");
    // The spec files pin their own sizing and seed, so the lab's
    // defaults must not leak into the snapshot: run under a config
    // the spec fully overrides.
    let defaults = RunConfig::quick();
    assert!(
        base.warmup_accesses.is_some() && base.measure_accesses.is_some() && base.seed.is_some(),
        "{spec_file}: golden-snapshotted specs must pin warmup/measure/seed"
    );
    let axes = axes(base.cores);

    let renders: Vec<(usize, String)> = axes
        .threads
        .iter()
        .map(|&threads| {
            let mut lab = Lab::with_threads(defaults, threads);
            (threads, render(&base, &axes, &mut lab))
        })
        .collect();
    for (threads, text) in &renders[1..] {
        assert_eq!(
            text, &renders[0].1,
            "{golden_name}: {threads}-thread render differs from 1-thread render"
        );
    }
    let current = &renders[0].1;

    let path = goldens_dir().join(format!("{golden_name}.json"));
    if std::env::var("UPDATE_GOLDENS").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(goldens_dir()).expect("create goldens/scenarios");
        std::fs::write(&path, current)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}\nregenerate with UPDATE_GOLDENS=1 cargo test -p cmp-bench \
             --test scenario_goldens",
            path.display()
        )
    });
    assert_eq!(
        current, &golden,
        "{golden_name}: scenario family drifted from its golden snapshot; if intended, \
         regenerate with UPDATE_GOLDENS=1 cargo test -p cmp-bench --test scenario_goldens"
    );
}

#[test]
fn web8_family_matches_golden_across_thread_counts() {
    check_family("web8.json", "web8", Axes::family);
}

#[test]
fn sci16_family_matches_golden_across_thread_counts() {
    check_family("sci16.toml", "sci16", Axes::family);
}

/// The one golden above 16 cores: every core shares the block pool,
/// so snoops find holders across all 64 tag arrays, core 63 included.
#[test]
fn apache64_matches_golden_on_snoopy_orgs() {
    check_family("apache64.json", "apache64", |cores| Axes {
        degrees: vec![cores],
        orgs: &SNOOPY_ORGS,
        threads: &[1, 2],
    });
}
