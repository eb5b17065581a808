//! Resident-memory footprint of the L2 organizations: state a run
//! never touches must cost no resident memory, except at the paper's
//! 8 MB, where storage is backed in full at construction.
//!
//! The 64-core machine's 128 MiB L2 has 2 M NuRAPID tag slots and
//! 1 M data frames, yet the `apache64` scenario makes only a few
//! thousand L2 accesses. Building any 64-core organization must
//! therefore cost next to nothing, on a fresh thread and on one that
//! has built machines before, and the whole run must stay far below
//! what materializing every frame and slot would take. A second run of
//! the scenario on the same thread must reuse the pages the first one
//! wrote rather than fault them in again. The 4-core NuRAPID (4.3 MiB
//! of tags, summary and frames) must instead be resident as soon as it
//! is built, so its footprint does not depend on the run. When it is
//! dropped, the thread keeps that storage for its next build, so a
//! second 4-core NuRAPID must fault almost no pages in; the first
//! on-demand (64-core) build must let it go.
//!
//! This file is its own test binary with a single test, so nothing
//! else allocates in the process while it reads `/proc/self/status`.
//! Off Linux the test has nothing to read and passes vacuously.

use std::path::Path;

use cmp_bench::ScenarioSpec;
use nurapid_suite::latency::{LatencyBook, Table1};
use nurapid_suite::mem::storage::retained_bytes;
use nurapid_suite::sim::{build_org_sized, OrgKind, RunConfig};

/// Building a 64-core organization may raise `VmRSS` by at most this.
const BUILD_BOUND_MIB: f64 = 4.0;

/// The 64-core organizations held to [`BUILD_BOUND_MIB`] on a fresh
/// thread and after earlier builds.
const ORGS_64: [OrgKind; 4] = [OrgKind::Shared, OrgKind::Private, OrgKind::Dnuca, OrgKind::Nurapid];

/// Building the paper's 4-core NuRAPID must raise `VmRSS` by at least
/// this.
const EAGER_BUILD_MIB: f64 = 3.5;

/// Simulating `scenarios/apache64.json` may raise `VmHWM` above the
/// starting `VmRSS` by at most this.
const RUN_BOUND_MIB: f64 = 40.0;

/// A second 4-core NuRAPID build, or a second `apache64` run, on the
/// same thread may take at most this share of the first one's minor
/// page faults.
const REBUILD_FAULT_SHARE: f64 = 0.1;

/// Building and dropping the 64-core NuRAPID after the 4-core ones
/// must lower `VmRSS` by at least this: the 4-core storage the
/// thread kept is released.
const RELEASE_MIB: f64 = 3.0;

/// The process's minor page faults so far (field 10 of
/// `/proc/self/stat`).
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
    // Fields after the parenthesized command name start at field 3.
    let fields: Vec<&str> = stat.rsplit_once(')').expect("comm").1.split_whitespace().collect();
    fields[10 - 3].parse().expect("minflt")
}

/// A `/proc/self/status` field in MiB (`VmRSS:`, `VmHWM:`).
fn status_mib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(field))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// How much building the 64-core `kind` raises `VmRSS`, in MiB; the
/// machine is dropped afterwards.
fn build_64(kind: OrgKind) -> f64 {
    let book = LatencyBook::from_table1(&Table1::published(), 64);
    let before = status_mib("VmRSS:").expect("VmRSS");
    let org = build_org_sized(kind, &book, 128 << 20);
    let built = status_mib("VmRSS:").expect("VmRSS") - before;
    assert_eq!(org.cores(), 64);
    built
}

#[test]
fn untouched_l2_state_costs_no_resident_memory() {
    if status_mib("VmRSS:").is_none() {
        return;
    }
    for kind in ORGS_64 {
        let built = std::thread::spawn(move || build_64(kind)).join().unwrap();
        assert!(
            built < BUILD_BOUND_MIB,
            "building a 64-core {kind:?} on a fresh thread raised VmRSS by {built:.1} MiB (bound {BUILD_BOUND_MIB} MiB)"
        );
    }

    let rss_before_paper = status_mib("VmRSS:").expect("VmRSS");
    let faults_before_paper = minor_faults();
    let paper = build_org_sized(OrgKind::Nurapid, &LatencyBook::paper(), 8 << 20);
    let first_faults = minor_faults() - faults_before_paper;
    let backed = status_mib("VmRSS:").expect("VmRSS") - rss_before_paper;
    drop(paper);
    assert!(
        backed >= EAGER_BUILD_MIB,
        "building a 4-core nurapid raised VmRSS by only {backed:.1} MiB (at least {EAGER_BUILD_MIB} MiB expected)"
    );

    let faults_before_rebuild = minor_faults();
    let rebuilt = build_org_sized(OrgKind::Nurapid, &LatencyBook::paper(), 8 << 20);
    let rebuild_faults = minor_faults() - faults_before_rebuild;
    drop(rebuilt);
    assert!(
        rebuild_faults as f64 <= REBUILD_FAULT_SHARE * first_faults as f64,
        "rebuilding a 4-core nurapid took {rebuild_faults} minor faults against the first build's {first_faults}"
    );

    // The 64-core build lets the retained storage go before it adds
    // its own, so that storage is no part of what the build adds.
    let rss_before_build = status_mib("VmRSS:").expect("VmRSS");
    let retained = retained_bytes() as f64 / (1 << 20) as f64;
    let book = LatencyBook::from_table1(&Table1::published(), 64);
    let org = build_org_sized(OrgKind::Nurapid, &book, 128 << 20);
    let built = status_mib("VmRSS:").expect("VmRSS") - (rss_before_build - retained);
    assert_eq!(org.cores(), 64);
    drop(org);
    let released = rss_before_build - status_mib("VmRSS:").expect("VmRSS");
    assert!(
        built < BUILD_BOUND_MIB,
        "building a 64-core nurapid raised VmRSS by {built:.1} MiB (bound {BUILD_BOUND_MIB} MiB)"
    );
    assert!(
        released >= RELEASE_MIB,
        "building and dropping a 64-core nurapid lowered VmRSS by only {released:.1} MiB (at least {RELEASE_MIB} MiB expected)"
    );

    for kind in ORGS_64 {
        let built = build_64(kind);
        assert!(
            built < BUILD_BOUND_MIB,
            "building a 64-core {kind:?} after earlier builds raised VmRSS by {built:.1} MiB (bound {BUILD_BOUND_MIB} MiB)"
        );
    }

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios/apache64.json");
    let spec = ScenarioSpec::from_file(&path).expect("apache64 spec");
    let rss_before_run = status_mib("VmRSS:").expect("VmRSS");
    let faults_before_run = minor_faults();
    let result = spec.simulate(spec.org, &RunConfig::quick());
    let run_faults = minor_faults() - faults_before_run;
    let peak = status_mib("VmHWM:").expect("VmHWM") - rss_before_run;
    assert!(result.accesses > 0);
    assert!(
        peak < RUN_BOUND_MIB,
        "simulating apache64 raised VmHWM {peak:.1} MiB above VmRSS (bound {RUN_BOUND_MIB} MiB)"
    );

    let faults_before_rerun = minor_faults();
    let again = spec.simulate(spec.org, &RunConfig::quick());
    let rerun_faults = minor_faults() - faults_before_rerun;
    assert_eq!(again, result, "a rerun on recycled storage must give the same result");
    assert!(
        rerun_faults as f64 <= REBUILD_FAULT_SHARE * run_faults as f64,
        "rerunning apache64 took {rerun_faults} minor faults against the first run's {run_faults}"
    );
}
