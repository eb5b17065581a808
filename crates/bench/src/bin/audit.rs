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
//! Usage: `audit [quick|paper|REFS]`

use std::time::Instant;

use cmp_bench::{config_from_args, ok_or_exit};
use cmp_sim::{run_workload_audited, run_workload_mono, try_multithreaded_workload, OrgKind};

use cmp_audit::AuditConfig;

const WORKLOAD: &str = "oltp";
const AUDIT_EVERY: u64 = 1_024;

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
    println!(
        "{{\n  \"workload\": \"{WORKLOAD}\",\n  \"warmup\": {},\n  \"measure\": {},\n  \
         \"seed\": {},\n  \"audit_every\": {AUDIT_EVERY},\n  \"orgs\": [\n{}\n  ]\n}}",
        cfg.warmup_accesses,
        cfg.measure_accesses,
        cfg.seed,
        rows.join(",\n"),
    );
    if total_violations > 0 {
        eprintln!("{total_violations} violation(s) on a clean machine");
        std::process::exit(1);
    }
}
