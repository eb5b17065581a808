//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! Usage: `ablations [quick|paper|REFS]`
//!
//! 1. CR x ISC factorial on OLTP (which optimization buys what);
//! 2. promotion policy: fastest vs next-fastest (Section 3.3.1);
//! 3. tag-capacity factor: 1x / 2x / 4x (Section 2.2.2);
//! 4. staggered vs naive d-group rankings (Section 2.2.1).
//!
//! The uniform-shared baselines are prefetched through the parallel
//! lab; the custom-organization runs (which vary `NurapidConfig`
//! beyond the stock `OrgKind` variants) are fanned out as one batch
//! on the same scoped worker pool, then rendered in submission order.

use cmp_bench::pool::{self, Job};
use cmp_bench::table::{pct, rel, TextTable};
use cmp_bench::{config_from_args, ok_or_exit, Lab, ResultSource, WorkloadId};
use cmp_nurapid::{CmpNurapid, NurapidConfig, PromotionPolicy};
use cmp_sim::{run, try_mix_workload, try_multithreaded_workload, OrgKind, RunConfig, RunResult};

/// One custom CMP-NuRAPID run as a pool job.
fn custom(wl: &'static str, nur: NurapidConfig, cfg: RunConfig) -> Job<'static, RunResult> {
    Box::new(move || {
        let org = CmpNurapid::new(nur);
        if wl.starts_with("MIX") {
            run(ok_or_exit(try_mix_workload(wl, cfg.seed)), org, &cfg)
        } else {
            run(ok_or_exit(try_multithreaded_workload(wl, cfg.seed)), org, &cfg)
        }
    })
}

fn baseline(wl: &'static str) -> (WorkloadId, OrgKind) {
    let id =
        if wl.starts_with("MIX") { WorkloadId::Mix(wl) } else { WorkloadId::Multithreaded(wl) };
    (id, OrgKind::Shared)
}

fn main() {
    let cfg = config_from_args();

    // Every uniform-shared baseline any study divides by.
    let baselines = ["oltp", "specjbb", "ocean", "MIX3", "MIX2"].map(baseline);
    let mut lab = Lab::new(cfg);
    ok_or_exit(lab.prefetch(&baselines));
    let mut base_ipc = |wl: &'static str| {
        let (id, kind) = baseline(wl);
        lab.result(id, kind).ipc()
    };

    // One batch of every custom run, in study order.
    let mut jobs: Vec<Job<RunResult>> = Vec::new();
    let combos: [(&str, bool, bool); 4] = [
        ("neither (migration only)", false, false),
        ("CR only", true, false),
        ("ISC only", false, true),
        ("CR + ISC (paper)", true, true),
    ];
    for (_, cr, isc) in combos {
        let nur = NurapidConfig {
            controlled_replication: cr,
            in_situ_communication: isc,
            ..NurapidConfig::paper()
        };
        jobs.push(custom("oltp", nur, cfg));
    }
    let policy_workloads = ["specjbb", "ocean", "MIX3"];
    for wl in policy_workloads {
        for policy in [PromotionPolicy::Fastest, PromotionPolicy::NextFastest] {
            jobs.push(custom(
                wl,
                NurapidConfig { promotion: policy, ..NurapidConfig::paper() },
                cfg,
            ));
        }
    }
    let factors = [1usize, 2, 4];
    for factor in factors {
        let nur = NurapidConfig { tag_capacity_factor: factor, ..NurapidConfig::paper() };
        jobs.push(custom("oltp", nur, cfg));
    }
    let ranking_mixes = ["MIX2", "MIX3"];
    for m in ranking_mixes {
        for staggered in [true, false] {
            jobs.push(custom(
                m,
                NurapidConfig { staggered_ranking: staggered, ..NurapidConfig::paper() },
                cfg,
            ));
        }
    }
    let collapse_workloads = ["oltp", "specjbb"];
    for wl in collapse_workloads {
        for collapse in [false, true] {
            jobs.push(custom(
                wl,
                NurapidConfig { c_collapse: collapse, ..NurapidConfig::paper() },
                cfg,
            ));
        }
    }

    let results = pool::run_jobs(jobs, pool::default_threads());
    let mut results = results.into_iter();
    let mut take = |n: usize| results.by_ref().take(n).collect::<Vec<_>>();

    // --- 1. CR x ISC factorial on OLTP --------------------------------
    let shared_oltp = base_ipc("oltp");
    let mut t =
        TextTable::new(vec!["configuration", "rel perf", "ROS miss", "RWS miss", "cap miss"]);
    for ((label, _, _), r) in combos.iter().zip(take(combos.len())) {
        t.row(vec![
            label.to_string(),
            rel(r.ipc() / shared_oltp),
            pct(r.l2.class_fraction(cmp_cache::AccessClass::MissRos).value()),
            pct(r.l2.class_fraction(cmp_cache::AccessClass::MissRws).value()),
            pct(r.l2.class_fraction(cmp_cache::AccessClass::MissCapacity).value()),
        ]);
    }
    println!("Ablation 1: CR x ISC on OLTP (relative to uniform-shared)\n{t}");

    // --- 2. Promotion policy ------------------------------------------
    let mut t = TextTable::new(vec![
        "workload",
        "fastest",
        "(closest hits)",
        "next-fastest",
        "(closest hits)",
    ]);
    for wl in policy_workloads {
        let base = base_ipc(wl);
        let pair = take(2);
        let (fast, next) = (&pair[0], &pair[1]);
        let closest =
            |r: &cmp_sim::RunResult| pct(r.l2.hits_closest as f64 / r.l2.hits().max(1) as f64);
        t.row(vec![
            wl.to_string(),
            rel(fast.ipc() / base),
            closest(fast),
            rel(next.ipc() / base),
            closest(next),
        ]);
    }
    println!(
        "Ablation 2: promotion policy (relative to uniform-shared)\n{t}\
         paper (Section 3.3.1): fastest is more effective in CMPs than next-fastest\n"
    );

    // --- 3. Tag capacity factor ----------------------------------------
    let mut t = TextTable::new(vec!["tag factor", "rel perf (oltp)", "tag overhead"]);
    for (factor, r) in factors.iter().zip(take(factors.len())) {
        let nur = NurapidConfig { tag_capacity_factor: *factor, ..NurapidConfig::paper() };
        // Overhead estimate per Section 2.2.2: a tag entry is ~8 bytes
        // (tag + forward pointer + state); overhead is entries beyond
        // the 1x baseline relative to the 8 MB data capacity.
        let baseline_entries = 16_384usize;
        let entries_per_core = nur.tag_geometry().num_blocks();
        let overhead_bytes = 4 * (entries_per_core - baseline_entries) * 8;
        let total = 8 * 1024 * 1024 + 4 * baseline_entries * 8 + overhead_bytes;
        t.row(vec![
            format!("{factor}x"),
            rel(r.ipc() / shared_oltp),
            pct(overhead_bytes as f64 / total as f64),
        ]);
    }
    println!(
        "Ablation 3: tag capacity (relative to uniform-shared)\n{t}\
         paper (Section 2.2.2): doubling costs ~6% capacity and performs almost as\n\
         well as quadrupling (~23%)\n"
    );

    // --- 4. Ranking -----------------------------------------------------
    let mut t = TextTable::new(vec!["mix", "staggered", "(demotions)", "naive", "(demotions)"]);
    for m in ranking_mixes {
        let base = base_ipc(m);
        let pair = take(2);
        let (stag, naive) = (&pair[0], &pair[1]);
        t.row(vec![
            m.to_string(),
            rel(stag.ipc() / base),
            stag.l2.demotions.to_string(),
            rel(naive.ipc() / base),
            naive.l2.demotions.to_string(),
        ]);
    }
    println!(
        "Ablation 4: d-group preference rankings (relative to uniform-shared)\n{t}\
         paper (Section 2.2.1): staggered rankings avoid contention among cores for\n\
         the same second-preference d-groups\n"
    );

    // --- 5. C-collapse extension ----------------------------------------
    let mut t = TextTable::new(vec![
        "workload",
        "no exits from C (paper)",
        "(collapses)",
        "c_collapse",
        "(collapses)",
    ]);
    for wl in collapse_workloads {
        let base = base_ipc(wl);
        let pair = take(2);
        let (paper, ext) = (&pair[0], &pair[1]);
        t.row(vec![
            wl.to_string(),
            rel(paper.ipc() / base),
            paper.l2.c_collapses.to_string(),
            rel(ext.ipc() / base),
            ext.l2.c_collapses.to_string(),
        ]);
    }
    println!(
        "Ablation 5 (extension): exits from the C state\n{t}\
         the paper keeps blocks in C forever (Section 3.2's future work); c_collapse\n\
         reverts a C block to M once its other sharers' tags are gone"
    );
}
