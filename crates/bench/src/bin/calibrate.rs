//! Scratch calibration harness (developer tool): prints the key
//! statistics of every figure at moderate scale so workload profiles
//! can be tuned against the paper's targets.

use cmp_bench::ok_or_exit;
use cmp_cache::AccessClass;
use cmp_mem::ReuseBucket;
use cmp_sim::{
    run_workload_mono, try_mix_workload, try_multithreaded_workload, OrgKind, RunConfig,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(100_000);
    let cfg = RunConfig::sized(scale / 2, scale, 0x15CA);
    let run_mt = |wl, kind| {
        run_workload_mono(ok_or_exit(try_multithreaded_workload(wl, cfg.seed)), kind, &cfg)
    };
    let run_mix =
        |mix, kind| run_workload_mono(ok_or_exit(try_mix_workload(mix, cfg.seed)), kind, &cfg);
    println!("== multithreaded (scale {scale}/core) ==");
    let mut relsum = std::collections::HashMap::<&str, (f64, usize)>::new();
    for wl in ["oltp", "apache", "specjbb", "ocean", "barnes"] {
        let shared = run_mt(wl, OrgKind::Shared);
        let base_ipc = shared.ipc();
        for kind in [
            OrgKind::Shared,
            OrgKind::Private,
            OrgKind::Snuca,
            OrgKind::Ideal,
            OrgKind::Nurapid,
            OrgKind::NurapidCrOnly,
            OrgKind::NurapidIscOnly,
        ] {
            let r = if kind == OrgKind::Shared { shared.clone() } else { run_mt(wl, kind) };
            let s = &r.l2;
            let f = |c| s.class_fraction(c).value() * 100.0;
            println!(
                "{wl:8} {:24} rel={:6.3} | hits {:5.1}+{:5.1} ros {:4.1} rws {:4.1} cap {:4.1} | l2acc/ref {:4.1}% ipc {:.3}",
                kind.label(),
                r.ipc() / base_ipc,
                f(AccessClass::Hit { closest: true }),
                f(AccessClass::Hit { closest: false }),
                f(AccessClass::MissRos),
                f(AccessClass::MissRws),
                f(AccessClass::MissCapacity),
                100.0 * s.accesses() as f64 / r.accesses as f64,
                r.ipc(),
            );
            if wl == "oltp" || wl == "apache" || wl == "specjbb" {
                let e = relsum.entry(kind.label()).or_insert((0.0, 0));
                e.0 += r.ipc() / base_ipc;
                e.1 += 1;
            }
            if kind == OrgKind::Private {
                let h = &s.ros_reuse;
                let g = &s.rws_reuse;
                let pct = |h: &cmp_mem::ReuseHistogram, b| h.fraction(b).value() * 100.0;
                println!(
                    "         reuse ROS: 0={:4.1} 1={:4.1} 2-5={:4.1} >5={:4.1} (n={})  RWS: 0={:4.1} 1={:4.1} 2-5={:4.1} >5={:4.1} (n={})",
                    pct(h, ReuseBucket::Zero), pct(h, ReuseBucket::One), pct(h, ReuseBucket::TwoToFive), pct(h, ReuseBucket::MoreThanFive), h.total(),
                    pct(g, ReuseBucket::Zero), pct(g, ReuseBucket::One), pct(g, ReuseBucket::TwoToFive), pct(g, ReuseBucket::MoreThanFive), g.total(),
                );
            }
        }
    }
    println!("\ncommercial averages (rel to shared):");
    for (k, (sum, n)) in &relsum {
        println!("  {k:24} {:.3}", sum / *n as f64);
    }
    println!("\n== multiprogrammed ==");
    for mix in ["MIX1", "MIX2", "MIX3", "MIX4"] {
        let shared = run_mix(mix, OrgKind::Shared);
        for kind in [OrgKind::Shared, OrgKind::Private, OrgKind::Snuca, OrgKind::Nurapid] {
            let r = if kind == OrgKind::Shared { shared.clone() } else { run_mix(mix, kind) };
            println!(
                "{mix:5} {:24} rel={:6.3} miss={:5.2}% l2acc/ref {:4.1}% stall/l2acc {:5.1} buswait {:4} ipc {:.3}",
                kind.label(),
                r.ipc() / shared.ipc(),
                r.l2.miss_fraction().value() * 100.0,
                100.0 * r.l2.accesses() as f64 / r.accesses as f64,
                r.l2_stall_cycles as f64 / r.l2.accesses() as f64,
                r.bus.arbitration_wait / r.bus.total().max(1),
                r.ipc(),
            );
        }
    }
}
