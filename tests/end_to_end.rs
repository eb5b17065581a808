//! Cross-crate integration tests: the whole stack (workload → system
//! → organizations) at small scale, asserting the directional claims
//! that hold at any scale.

use nurapid_suite::cache::{AccessClass, CacheOrg};
use nurapid_suite::coherence::Bus;
use nurapid_suite::mem::storage::retained_bytes;
use nurapid_suite::mem::{AccessKind, BlockAddr, CoreId};
use nurapid_suite::nurapid::{CmpNurapid, NurapidConfig};
use nurapid_suite::sim::{
    run_workload_mono, try_mix_workload, try_multithreaded_workload, OrgKind, RunConfig, RunResult,
};

fn quick() -> RunConfig {
    RunConfig::sized(15_000, 30_000, 0xE2E)
}

fn run_mt(workload: &str, kind: OrgKind, cfg: &RunConfig) -> RunResult {
    run_workload_mono(try_multithreaded_workload(workload, cfg.seed).unwrap(), kind, cfg)
}

fn run_mix(mix: &str, kind: OrgKind, cfg: &RunConfig) -> RunResult {
    run_workload_mono(try_mix_workload(mix, cfg.seed).unwrap(), kind, cfg)
}

#[test]
fn ideal_always_beats_uniform_shared() {
    for wl in ["oltp", "barnes"] {
        let shared = run_mt(wl, OrgKind::Shared, &quick());
        let ideal = run_mt(wl, OrgKind::Ideal, &quick());
        assert!(
            ideal.ipc() > shared.ipc(),
            "{wl}: ideal {} vs shared {}",
            ideal.ipc(),
            shared.ipc()
        );
        // Same capacity, same contents policy: miss counts agree to
        // within the run-until-any measurement jitter.
        let (a, b) = (ideal.l2.misses() as f64, shared.l2.misses() as f64);
        assert!((a - b).abs() / b < 0.02, "ideal {a} vs shared {b} misses");
    }
}

#[test]
fn shared_cache_has_no_coherence_misses() {
    let r = run_mt("oltp", OrgKind::Shared, &quick());
    assert_eq!(r.l2.miss_ros, 0);
    assert_eq!(r.l2.miss_rws, 0);
    assert!(r.l2.miss_capacity > 0);
}

#[test]
fn private_caches_see_sharing_misses_on_commercial_workloads() {
    let r = run_mt("oltp", OrgKind::Private, &quick());
    assert!(r.l2.miss_ros > 0, "OLTP must produce read-only-sharing misses");
    assert!(r.l2.miss_rws > 0, "OLTP must produce read-write-sharing misses");
}

#[test]
fn isc_cuts_rws_misses_versus_private() {
    let cfg = RunConfig::sized(40_000, 80_000, 0xE2E);
    let private = run_mt("oltp", OrgKind::Private, &cfg);
    let nurapid = run_mt("oltp", OrgKind::Nurapid, &cfg);
    let p = private.l2.class_fraction(AccessClass::MissRws).value();
    let n = nurapid.l2.class_fraction(AccessClass::MissRws).value();
    // At this (cold, small) scale the cut is partial; the paper-scale
    // harness shows ~80% (see EXPERIMENTS.md).
    assert!(n < p * 0.8, "ISC should clearly cut RWS misses: private {p:.4} vs nurapid {n:.4}");
}

#[test]
fn cr_performs_pointer_transfers_on_sharing_workloads() {
    let r = run_mt("apache", OrgKind::Nurapid, &quick());
    assert!(r.l2.pointer_transfers > 0, "CR must take tag-only copies");
}

#[test]
fn multiprogrammed_mixes_have_no_sharing() {
    let r = run_mix("MIX2", OrgKind::Private, &quick());
    assert_eq!(r.l2.miss_ros, 0);
    assert_eq!(r.l2.miss_rws, 0);
}

#[test]
fn nurapid_steals_capacity_on_mixes() {
    // Paper-scale d-groups take millions of references to fill, so
    // drive a tiny-d-group CMP-NuRAPID directly with MIX3's reference
    // stream: mcf's multi-MB footprint must overflow its d-group and
    // demote into the neighbours'.
    use nurapid_suite::trace::{MixWorkload, TraceSource};
    let mut workload = MixWorkload::table2("MIX3", 0xE2E).expect("table 2 mix");
    let mut l2 = CmpNurapid::new(NurapidConfig::tiny(4, 32 * 128));
    let mut bus = Bus::paper();
    let mut now = 0;
    let mut inv = nurapid_suite::cache::InvalScratch::new();
    for i in 0..40_000u64 {
        now += 100;
        let a = workload.next_access(CoreId((i % 4) as u8));
        l2.access(CoreId((i % 4) as u8), a.addr.block(128), a.kind, now, &mut bus, &mut inv);
    }
    l2.check_invariants();
    assert!(l2.stats().demotions > 0, "asymmetric mixes must trigger demotions");
    // The overflowing cores own frames outside their closest d-group.
    let by_owner = l2.occupancy_by_owner();
    let stolen: usize =
        (0..4).map(|g| (0..4).filter(|c| *c != g).map(|c| by_owner[g][c]).sum::<usize>()).sum();
    assert!(stolen > 0, "some frames must be owned across d-groups: {by_owner:?}");
}

#[test]
fn whole_system_runs_are_deterministic() {
    let a = run_mt("specjbb", OrgKind::Nurapid, &quick());
    let b = run_mt("specjbb", OrgKind::Nurapid, &quick());
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.instructions, b.instructions);
    assert_eq!(a.l2.hits(), b.l2.hits());
    assert_eq!(a.l2.misses(), b.l2.misses());
}

#[test]
fn figure3_walkthrough_through_public_api() {
    // The crate-level example of the paper's Figure 3, via the
    // umbrella crate's re-exports.
    let mut l2 = CmpNurapid::new(NurapidConfig::paper());
    let mut bus = Bus::paper();
    let mut inv = nurapid_suite::cache::InvalScratch::new();
    l2.access(CoreId(0), BlockAddr(7), AccessKind::Read, 0, &mut bus, &mut inv);
    l2.access(CoreId(1), BlockAddr(7), AccessKind::Read, 1_000, &mut bus, &mut inv);
    assert_eq!(l2.data_copies(BlockAddr(7)), 1, "first use: tag-only copy");
    l2.access(CoreId(1), BlockAddr(7), AccessKind::Read, 2_000, &mut bus, &mut inv);
    assert_eq!(l2.data_copies(BlockAddr(7)), 2, "second use: replicate");
    l2.check_invariants();
}

#[test]
fn all_organizations_agree_on_workload_accesses() {
    // Same workload seed => the organizations see the same reference
    // stream; total measured references must match.
    let counts: Vec<u64> = [OrgKind::Shared, OrgKind::Private, OrgKind::Nurapid]
        .iter()
        .map(|k| run_mt("barnes", *k, &quick()).accesses)
        .collect();
    // run-until-any semantics: totals are close but need not be
    // identical (faster orgs complete slightly different interleaves).
    for c in &counts {
        let lo = counts[0] as f64 * 0.9;
        let hi = counts[0] as f64 * 1.1;
        assert!((*c as f64) > lo && (*c as f64) < hi, "{counts:?}");
    }
}

#[test]
fn recycled_l2_storage_runs_like_fresh_storage() {
    // A paper-sized L2's storage stays with the thread that dropped
    // it and backs that thread's next build, so the second run of each
    // pair below reuses the first run's dirty tags, ranks, summary and
    // frame pools. Each result must equal the same pair run on a fresh
    // thread, which recycles nothing.
    let cfg = RunConfig::sized(3_000, 6_000, 0xE2E);
    let on_fresh_threads: Vec<RunResult> = OrgKind::ALL
        .iter()
        .map(|&kind| std::thread::spawn(move || run_mt("oltp", kind, &cfg)).join().unwrap())
        .collect();
    for (kind, fresh) in OrgKind::ALL.into_iter().zip(on_fresh_threads) {
        let first = run_mt("oltp", kind, &cfg);
        assert!(retained_bytes() > 0, "{kind:?}: the dropped L2 is retained");
        let second = run_mt("oltp", kind, &cfg);
        assert_eq!(first, fresh, "{kind:?}");
        assert_eq!(second, fresh, "{kind:?} on recycled storage");
    }
}
