//! General-purpose simulation CLI: run any workload on any
//! organization with explicit sizing, and print the full statistics.
//!
//! ```text
//! simulate [--approx[=RHW[:CONF]]] <workload> <org> \
//!          [measure-refs] [warmup-refs] [seed]
//! simulate --spec FILE [org]
//!
//! workload: oltp | apache | specjbb | ocean | barnes | MIX1..MIX4
//! org:      shared | private | snuca | dnuca | ideal | nurapid |
//!           nurapid-cr | nurapid-isc | cnuca
//! ```
//!
//! `--approx` turns on confidence-based early stopping (the
//! approximate mode): the run ends as soon as the miss-rate estimate
//! is within the relative half-width `RHW` (default 0.02) at
//! confidence `CONF` (default 0.95), capped at the fixed budget.
//!
//! `--spec FILE` runs a declarative scenario spec
//! ([`cmp_bench::spec`]) instead: a JSON (or flat-TOML, by `.toml`
//! extension) file naming the machine (core count, org), the
//! workload overrides, and optionally the run sizing and stop rule.
//! A trailing `org` argument overrides the spec's own `org` field,
//! which is how one spec file sweeps an organization axis.

use cmp_bench::{ok_or_exit, Lab, ResultSource, ScenarioSpec, WorkloadId};
use cmp_cache::AccessClass;
use cmp_mem::ReuseBucket;
use cmp_sim::{OrgKind, RunConfig, StopMetric, StopRule};

fn usage() -> ! {
    eprintln!(
        "usage: simulate [--approx[=RHW[:CONF]]] <workload> <org> [measure-refs] [warmup-refs] [seed]\n\
         \x20      simulate --spec FILE [org]\n\
         workload: oltp|apache|specjbb|ocean|barnes|MIX1..MIX4\n\
         org: shared|private|snuca|dnuca|ideal|nurapid|nurapid-cr|nurapid-isc|cnuca\n\
         --approx: stop early once the miss rate is within RHW (default 0.02)\n\
         \x20         at confidence CONF (default 0.95)\n\
         --spec: run a scenario spec file (JSON, or flat TOML by .toml extension)"
    );
    std::process::exit(2);
}

/// Parses `--approx`, `--approx=0.05`, or `--approx=0.05:0.9`.
fn parse_approx(flag: &str) -> StopRule {
    let mut rel_half_width = 0.02;
    let mut confidence = 0.95;
    if let Some(spec) = flag.strip_prefix("--approx=") {
        let mut parts = spec.splitn(2, ':');
        rel_half_width = parts.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
        if let Some(c) = parts.next() {
            confidence = c.parse().unwrap_or_else(|_| usage());
        }
    } else if flag != "--approx" {
        usage();
    }
    if !(rel_half_width > 0.0 && rel_half_width <= 0.5 && (0.5..1.0).contains(&confidence)) {
        usage();
    }
    StopRule::Confidence { metric: StopMetric::MissRate, rel_half_width, confidence }
}

/// The `--spec FILE [org]` path: lower the scenario spec and run it
/// through the same batch lab as the named-workload path.
fn run_spec(path: &str, org_arg: Option<&str>) {
    let spec = ok_or_exit(ScenarioSpec::from_file(path));
    let kind = match org_arg {
        Some(org) => OrgKind::from_name(org).unwrap_or_else(|| usage()),
        None => spec.org,
    };
    // The spec's sizing overrides apply over the CLI's defaults.
    let cfg = spec.run_config(&RunConfig::sized(500_000, 1_000_000, 0x15CA));
    let id = WorkloadId::Spec(cmp_bench::spec::intern(&spec));
    let mut lab = Lab::new(cfg);
    ok_or_exit(lab.prefetch(&[(id, kind)]));
    let r = ok_or_exit(lab.try_result(id, kind)).clone();
    println!(
        "scenario {} ({} cores, base {}, sharing degree {}, {} MB L2) on {}",
        spec.name,
        spec.cores,
        spec.base,
        spec.sharing_degree,
        spec.l2_bytes() / (1024 * 1024),
        kind.label()
    );
    println!(
        "  sizing              warmup {}, measure {}, seed {:#x}",
        cfg.warmup_accesses, cfg.measure_accesses, cfg.seed
    );
    if !cfg.stop.is_fixed() {
        println!(
            "  approximate mode    {} (references below reflect the early stop)",
            cfg.stop.tag()
        );
    }
    print_stats(&r);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut stop = StopRule::Fixed;
    if let Some(first) = args.first() {
        if first == "--spec" {
            let (Some(path), extra) = (args.get(1), args.get(3)) else { usage() };
            if extra.is_some() {
                usage();
            }
            return run_spec(&path.clone(), args.get(2).map(String::as_str));
        }
        if first.starts_with("--approx") {
            stop = parse_approx(first);
            args.remove(0);
        } else if first.starts_with('-') {
            usage();
        }
    }
    let (Some(workload), Some(org)) = (args.first(), args.get(1)) else { usage() };
    let Some(kind) = OrgKind::from_name(org) else { usage() };
    let measure = args.get(2).map_or(1_000_000, |s| s.parse().unwrap_or_else(|_| usage()));
    let warmup = args.get(3).map_or(measure / 2, |s| s.parse().unwrap_or_else(|_| usage()));
    let seed = args.get(4).map_or(0x15CA, |s| s.parse().unwrap_or_else(|_| usage()));
    let cfg = RunConfig::sized(warmup, measure, seed).with_stop(stop);
    // WorkloadId keys the lab's memo cache on &'static str; a CLI
    // argument lives for the whole process anyway, so leak it.
    let name: &'static str = Box::leak(workload.clone().into_boxed_str());
    let id = if name.starts_with("MIX") {
        WorkloadId::Mix(name)
    } else {
        WorkloadId::Multithreaded(name)
    };
    let mut lab = Lab::new(cfg);
    ok_or_exit(lab.prefetch(&[(id, kind)]));
    let r = ok_or_exit(lab.try_result(id, kind)).clone();

    println!(
        "workload {} on {} (warmup {warmup}, measure {measure}, seed {seed:#x})",
        r.workload,
        kind.label()
    );
    if !stop.is_fixed() {
        println!("  approximate mode    {} (references below reflect the early stop)", stop.tag());
    }
    print_stats(&r);
}

/// The statistics block shared by the named-workload and `--spec`
/// paths.
fn print_stats(r: &cmp_sim::RunResult) {
    println!("  instructions        {:>12}", r.instructions);
    println!("  references          {:>12}", r.accesses);
    println!("  cycles              {:>12}", r.cycles);
    println!("  IPC (all cores)     {:>12.3}", r.ipc());
    let s = &r.l2;
    let f = |c| s.class_fraction(c).value() * 100.0;
    println!(
        "  L2 accesses         {:>12}   ({:.1}% of references)",
        s.accesses(),
        100.0 * s.accesses() as f64 / r.accesses as f64
    );
    println!("    hits closest      {:>11.1}%", f(AccessClass::Hit { closest: true }));
    println!("    hits farther      {:>11.1}%", f(AccessClass::Hit { closest: false }));
    println!("    ROS misses        {:>11.1}%", f(AccessClass::MissRos));
    println!("    RWS misses        {:>11.1}%", f(AccessClass::MissRws));
    println!("    capacity misses   {:>11.1}%", f(AccessClass::MissCapacity));
    println!("  L1D hits/misses     {:>12} / {}", r.l1.hits, r.l1.misses);
    println!("  bus transactions    {:>12}", r.bus.total());
    println!("  writebacks          {:>12}", s.writebacks);
    if s.pointer_transfers + s.replications + s.promotions + s.demotions > 0 {
        println!("  pointer transfers   {:>12}", s.pointer_transfers);
        println!("  replications        {:>12}", s.replications);
        println!("  promotions          {:>12}", s.promotions);
        println!("  demotions           {:>12}", s.demotions);
        println!("  BusRepl tag drops   {:>12}", s.busrepl_invalidations);
    }
    if s.ros_reuse.total() > 0 {
        let h = |hist: &cmp_mem::ReuseHistogram| {
            ReuseBucket::ALL
                .iter()
                .map(|b| format!("{}: {:.1}%", b.label(), hist.fraction(*b).value() * 100.0))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("  ROS reuse           {}", h(&s.ros_reuse));
        println!("  RWS reuse           {}", h(&s.rws_reuse));
    }
}
