//! Mutation self-test for the audit harness.
//!
//! For every fault class: inject it into an audited CMP-NuRAPID run
//! and prove the harness reports a violation (within the audit
//! cadence for structural faults, immediately for protocol faults).
//! Complemented by clean-run tests: with no faults scheduled, every
//! organization must complete the same workload with zero violations
//! — the checks themselves must not cry wolf.

use cmp_audit::{AuditConfig, AuditedOrg, FaultKind, FaultSpec, ReplayArtifact};
use cmp_cache::{CacheOrg, Dnuca, InvalScratch, PrivateMesi, Snuca, UniformShared};
use cmp_coherence::Bus;
use cmp_latency::LatencyBook;
use cmp_mem::{AccessKind, BlockAddr, CoreId, Rng};
use cmp_nurapid::{CmpNurapid, NurapidConfig};

/// Drives a deterministic 4-core pattern that mixes a *rotating*
/// shared working set (the window moves every 97 accesses, so every
/// core keeps taking cross-core sharing misses and the snoop wires
/// keep mattering) with a streaming tail (cold misses, so the bus
/// keeps sampling silent wires too).
fn drive(org: &mut dyn CacheOrg, bus: &mut Bus, accesses: u64) {
    let mut inv = InvalScratch::new();
    for i in 0..accesses {
        let core = CoreId((i % 4) as u8);
        let block = if i % 3 == 0 {
            BlockAddr(0x10_000 + i) // streaming: always cold
        } else {
            // Rotating shared window; the offset advances only every
            // 4 accesses, so all four cores touch the same block in
            // turn (offset and core index must not be correlated
            // mod 4, or the "shared" set silently partitions into
            // per-core private sets).
            BlockAddr((i / 97) * 31 + ((i / 4) * 5) % 24)
        };
        let kind = if i % 5 == 0 { AccessKind::Write } else { AccessKind::Read };
        let now = i * 1_000;
        let _ = org.access(core, block, kind, now, bus, &mut inv);
    }
}

fn nurapid() -> Box<dyn CacheOrg> {
    Box::new(CmpNurapid::new(NurapidConfig::paper()))
}

#[test]
fn clean_run_reports_zero_violations_for_every_org() {
    let book = LatencyBook::paper();
    let orgs: Vec<Box<dyn CacheOrg>> = vec![
        Box::new(UniformShared::paper_shared(&book)),
        Box::new(UniformShared::paper_ideal(&book)),
        Box::new(PrivateMesi::paper(&book)),
        Box::new(Snuca::paper(&book)),
        Box::new(Dnuca::paper(&book)),
        Box::new(CmpNurapid::new(NurapidConfig::paper())),
        Box::new(CmpNurapid::new(NurapidConfig::paper_cr_only())),
        Box::new(CmpNurapid::new(NurapidConfig::paper_isc_only())),
    ];
    for inner in orgs {
        let name = inner.name();
        let mut audited = AuditedOrg::new(inner, AuditConfig::checking(64), "selftest", 1);
        let log = audited.log();
        let mut bus = Bus::paper();
        drive(&mut audited, &mut bus, 6_000);
        assert!(
            log.is_empty(),
            "clean {name} run must not violate: {}",
            log.first().map(|v| v.to_string()).unwrap_or_default()
        );
        // End-of-run audit, explicitly.
        audited.audit().unwrap_or_else(|v| panic!("final {name} audit failed: {v}"));
    }
}

/// Tag-fault injection rewrites a forward pointer (NuRAPID) or a
/// MESI state (private), never residency, so the holder summary stays
/// exact and the audit — which checks the summary first — still names
/// only the fault's own invariants.
#[test]
fn tag_faults_trip_only_their_own_checks_on_both_snoopy_orgs() {
    let book = LatencyBook::paper();
    type Build = fn(&LatencyBook) -> Box<dyn CacheOrg>;
    let cases: [(Build, &[&str]); 2] = [
        (|_| nurapid(), &["forward-pointer-live", "forward-pointer-block"]),
        (|book| Box::new(PrivateMesi::paper(book)), &["private-implies-sole-copy"]),
    ];
    for (build, expected) in cases {
        for seed in 1..=8 {
            let mut org = build(&book);
            let mut bus = Bus::paper();
            drive(org.as_mut(), &mut bus, 3_000);
            assert_eq!(org.audit(), Ok(()), "{}: clean before the fault", org.name());
            let desc = org.inject_tag_fault(&mut Rng::new(seed)).expect("a victim exists");
            let v = org.audit().expect_err("the injected fault must be detected");
            assert!(
                expected.contains(&v.check),
                "{} seed {seed}: {desc} tripped {:?}, expected one of {expected:?}",
                org.name(),
                v.check
            );
        }
    }
}

fn run_with_fault(kind: FaultKind) -> (cmp_audit::ViolationLog, cmp_audit::InjectionLog) {
    let spec = FaultSpec::new(kind, 500);
    let cfg = AuditConfig::checking(16).with_fault(spec);
    let mut audited = AuditedOrg::new(nurapid(), cfg, "selftest", 1);
    let log = audited.log();
    let injections = audited.injections();
    let mut bus = Bus::paper();
    drive(&mut audited, &mut bus, 6_000);
    (log, injections)
}

#[test]
fn tag_corruption_is_detected_within_cadence() {
    let (log, injections) = run_with_fault(FaultKind::TagCorruption);
    assert_eq!(injections.len(), 1, "the tag fault must inject");
    let (at, desc) = &injections.snapshot()[0];
    let v = log.first().unwrap_or_else(|| panic!("undetected tag corruption: {desc}"));
    assert!(
        v.access_index >= *at && v.access_index < at + 16 + 1,
        "detection at #{} outside the cadence window after injection at #{at}",
        v.access_index
    );
    assert!(
        v.check.starts_with("forward-pointer") || v.check.starts_with("reverse-pointer"),
        "unexpected check {:?}",
        v.check
    );
}

#[test]
fn dropped_snoop_reply_is_detected() {
    let (log, injections) = run_with_fault(FaultKind::DropSnoopReply);
    assert_eq!(injections.len(), 1, "the snoop fault must arm");
    let v = log.first().expect("undetected dropped snoop reply");
    // Hiding the on-chip copy makes the requestor allocate a duplicate
    // copy behind the existing sharers' backs: the structural audit
    // flags the broken pointer/singleton structure.
    assert!(v.access_index >= 500, "detected before injection: #{}", v.access_index);
    assert!(
        v.check.contains("singleton")
            || v.check.contains("private")
            || v.check.contains("pointer")
            || v.check.starts_with("shadow-"),
        "unexpected check {:?}",
        v.check
    );
}

#[test]
fn duplicated_snoop_reply_is_detected() {
    let (log, _) = run_with_fault(FaultKind::DuplicateSnoopReply);
    let v = log.first().expect("undetected duplicated snoop reply");
    // A phantom sharer sends the requestor looking for a copy that
    // does not exist: the protocol check fires on the spot.
    assert_eq!(v.check, "shared-signal-has-copy");
}

#[test]
fn flipped_dirty_signal_is_detected() {
    let (log, _) = run_with_fault(FaultKind::FlipDirtySignal);
    let v = log.first().expect("undetected dirty-signal flip");
    assert!(
        v.check == "dirty-signal-has-frame"
            || v.check.contains("singleton")
            || v.check.contains("private")
            || v.check.starts_with("shadow-"),
        "unexpected check {:?}",
        v.check
    );
}

#[test]
fn faulted_run_still_completes_and_keeps_serving() {
    // The harness must degrade, not die: after a violation the run
    // continues and statistics keep accumulating.
    let (log, _) = run_with_fault(FaultKind::DuplicateSnoopReply);
    assert!(!log.is_empty());
    // drive() already pushed 5.5k accesses past the fault at #500
    // without panicking; nothing more to assert.
}

#[test]
fn violations_carry_run_coordinates_and_serialize() {
    let (log, _) = run_with_fault(FaultKind::DuplicateSnoopReply);
    let v = log.first().expect("violation expected");
    assert_eq!(v.org, "nurapid");
    assert_eq!(v.workload, "selftest");
    assert_eq!(v.seed, 1);
    assert!(v.access_index >= 500);
    let art = ReplayArtifact::from_violation(
        &v,
        1_000,
        5_000,
        16,
        &[FaultSpec::new(FaultKind::DuplicateSnoopReply, 500)],
    );
    let parsed: ReplayArtifact = art.to_string().parse().expect("artifact roundtrip");
    assert_eq!(parsed, art);
    assert!(parsed.matches(&v));
}

#[test]
fn detection_is_deterministic_across_reruns() {
    let (a, _) = run_with_fault(FaultKind::TagCorruption);
    let (b, _) = run_with_fault(FaultKind::TagCorruption);
    let (va, vb) = (a.first().expect("run a"), b.first().expect("run b"));
    assert_eq!(va.access_index, vb.access_index);
    assert_eq!(va.check, vb.check);
    assert_eq!(va.block, vb.block);
}
