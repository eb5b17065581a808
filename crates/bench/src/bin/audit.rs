//! Audited smoke run + audit-overhead measurement.
//!
//! For every organization the runner can build, runs the same
//! workload three ways — plain (no wrapper), wrapped with all checks
//! off, and wrapped with shadow checking + structural audits — and
//! reports wall-clock overheads and violation counts as JSON on
//! stdout. A clean machine must report zero violations everywhere;
//! any violation makes the binary exit nonzero, so CI can use it as a
//! correctness gate as well as a cost report.
//!
//! A second pass runs the committed 64-core spec
//! (`scenarios/apache64.json`, its own pinned sizing) on the two
//! organizations that snoop per-core tag arrays, so the holder
//! summary and the MESI/MESIC checks are audited at the high core
//! bits too.
//!
//! Usage: `audit [quick|paper|REFS]`

use std::time::Instant;

use cmp_bench::{config_from_args, ok_or_exit, ScenarioSpec};
use cmp_sim::{
    build_org_sized, run_workload_audited, run_workload_mono, try_multithreaded_workload, OrgKind,
};

use cmp_audit::{AuditConfig, AuditedOrg};

const WORKLOAD: &str = "oltp";
const AUDIT_EVERY: u64 = 1_024;

/// The 64-core pass: every core shares one block pool.
const SPEC64: &str = include_str!("../../../../scenarios/apache64.json");
const ORGS64: [OrgKind; 2] = [OrgKind::Nurapid, OrgKind::Private];
/// Its structural-audit cadence, in L2 accesses (the spec makes a few
/// thousand).
const AUDIT_EVERY64: u64 = 256;

fn main() {
    let cfg = config_from_args();
    let workload = || ok_or_exit(try_multithreaded_workload(WORKLOAD, cfg.seed));
    let mut rows = Vec::new();
    let mut total_violations = 0usize;
    for kind in OrgKind::ALL {
        let t0 = Instant::now();
        let plain = run_workload_mono(workload(), kind, &cfg);
        let plain_ms = t0.elapsed().as_secs_f64() * 1e3;

        // Wrapper present, every check off: the cost of the
        // indirection alone.
        let off =
            AuditConfig { shadow: false, audit_every: 0, ..AuditConfig::checking(AUDIT_EVERY) };
        let t0 = Instant::now();
        let wrapped = ok_or_exit(run_workload_audited(WORKLOAD, kind, &cfg, off));
        let wrapped_off_ms = t0.elapsed().as_secs_f64() * 1e3;

        let t0 = Instant::now();
        let audited = ok_or_exit(run_workload_audited(
            WORKLOAD,
            kind,
            &cfg,
            AuditConfig::checking(AUDIT_EVERY),
        ));
        let audited_ms = t0.elapsed().as_secs_f64() * 1e3;

        // The wrapper must be performance-transparent: identical
        // simulated statistics with checks on or off.
        assert_eq!(plain.cycles, wrapped.result.cycles, "{}: wrapper changed timing", kind.name());
        assert_eq!(plain.cycles, audited.result.cycles, "{}: audit changed timing", kind.name());

        let violations = audited.violations.len() + wrapped.violations.len();
        total_violations += violations;
        let pct = |ms: f64| (ms / plain_ms - 1.0) * 100.0;
        rows.push(format!(
            "    {{\"org\": \"{}\", \"plain_ms\": {:.1}, \"wrapped_off_ms\": {:.1}, \
             \"audited_ms\": {:.1}, \"wrapper_overhead_pct\": {:.1}, \
             \"audit_overhead_pct\": {:.1}, \"l2_accesses\": {}, \"violations\": {}}}",
            kind.name(),
            plain_ms,
            wrapped_off_ms,
            audited_ms,
            pct(wrapped_off_ms),
            pct(audited_ms),
            audited.result.l2.accesses(),
            violations,
        ));
        for v in audited.violations.snapshot().iter().chain(wrapped.violations.snapshot().iter()) {
            eprintln!("violation: {v}");
        }
        if let Some(artifact) = &audited.artifact {
            eprintln!("replay: {artifact}");
        }
    }
    let spec = ok_or_exit(ScenarioSpec::parse_str(SPEC64));
    let spec_cfg = spec.run_config(&cfg);
    let mut rows64 = Vec::new();
    for kind in ORGS64 {
        let plain = spec.simulate(kind, &cfg);
        let org = build_org_sized(kind, &spec.book(), spec.l2_bytes());
        let audited =
            AuditedOrg::new(org, AuditConfig::checking(AUDIT_EVERY64), &spec.name, spec_cfg.seed);
        let log = audited.log();
        let t0 = Instant::now();
        let result = cmp_sim::run(spec.workload(spec_cfg.seed), audited, &spec_cfg);
        let audited_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(plain.cycles, result.cycles, "{} x64: audit changed timing", kind.name());
        total_violations += log.len();
        rows64.push(format!(
            "    {{\"org\": \"{}\", \"audited_ms\": {audited_ms:.1}, \"l2_accesses\": {}, \
             \"violations\": {}}}",
            kind.name(),
            result.l2.accesses(),
            log.len(),
        ));
        for v in log.snapshot().iter() {
            eprintln!("violation: {v}");
        }
    }
    println!(
        "{{\n  \"workload\": \"{WORKLOAD}\",\n  \"warmup\": {},\n  \"measure\": {},\n  \
         \"seed\": {},\n  \"audit_every\": {AUDIT_EVERY},\n  \"orgs\": [\n{}\n  ],\n  \
         \"spec\": \"{}\",\n  \"spec_cores\": {},\n  \"spec_audit_every\": {AUDIT_EVERY64},\n  \
         \"spec_orgs\": [\n{}\n  ]\n}}",
        cfg.warmup_accesses,
        cfg.measure_accesses,
        cfg.seed,
        rows.join(",\n"),
        spec.name,
        spec.cores,
        rows64.join(",\n"),
    );
    if total_violations > 0 {
        eprintln!("{total_violations} violation(s) on a clean machine");
        std::process::exit(1);
    }
}
