//! The studies beyond the paper's figures: the design-choice
//! ablations, the CMP-DNUCA exclusion, and the energy, core-count,
//! latency-sensitivity and instruction-fetch extensions.
//!
//! Each study is one [`crate::figures::ENTRIES`] row. It builds its
//! text and its raw golden series in one pass ([`Study`]), so the
//! golden suite gates exactly the numbers the text prints; series
//! keys are `<study>/<row>/<metric>`.
//!
//! `dnuca` and `energy` read catalog pairs through the [`Lab`]. The
//! other four vary what an [`OrgKind`] cannot name — the
//! [`NurapidConfig`], the core count, the latency book, instruction
//! fetch — so each runs its custom systems as one
//! [`Lab::run_study_jobs`] batch at the lab's [`RunConfig`]. The jobs
//! share no state and come back in submission order, so a study
//! prints the same bytes at any thread count. Custom runs are
//! neither memoized nor journaled, although some repeat a catalog
//! pair the figure sweep already ran.

use cmp_cache::{AccessClass, CacheOrg, PrivateMesi, Snuca, UniformShared};
use cmp_coherence::Bus;
use cmp_latency::energy::EnergyModel;
use cmp_latency::{LatencyBook, Table1};
use cmp_mem::Cycle;
use cmp_nurapid::{CmpNurapid, NurapidConfig, PromotionPolicy};
use cmp_sim::{
    build_org, energy_account, run, try_mix_workload, try_multithreaded_workload, OrgKind,
    RunConfig, RunResult, System,
};
use cmp_trace::{profiles, SyntheticWorkload};

use crate::figures::series::Series;
use crate::lab::{Lab, ResultSource, WorkloadId};
use crate::pool::Job;
use crate::table::{pct, rel, TextTable};
use crate::MULTITHREADED;

/// One study's printed text and its raw series, built side by side.
pub struct Study {
    name: &'static str,
    /// The text the `repro` subcommand prints.
    pub text: String,
    /// The raw values behind the text, for the golden suite.
    pub series: Series,
}

impl Study {
    fn new(name: &'static str) -> Self {
        Study { name, text: String::new(), series: Vec::new() }
    }

    /// Records `value` under `<study>/<row>/<metric>` and returns it,
    /// so a table cell formats the very value the series holds.
    fn put(&mut self, row: &str, metric: &str, value: f64) -> f64 {
        self.series.push((format!("{}/{row}/{metric}", self.name), value));
        value
    }
}

fn closest_of_hits(r: &RunResult) -> f64 {
    r.l2.hits_closest as f64 / r.l2.hits().max(1) as f64
}

/// The workloads the ablations divide by uniform-shared on.
pub(crate) const ABLATION_BASELINES: [&str; 5] = ["oltp", "specjbb", "ocean", "MIX3", "MIX2"];

const FACTORIAL: [(&str, &str, bool, bool); 4] = [
    ("neither (eager replication)", "neither", false, false),
    ("CR only", "cr-only", true, false),
    ("ISC only", "isc-only", false, true),
    ("CR + ISC (paper)", "cr+isc", true, true),
];
const POLICY_WORKLOADS: [&str; 3] = ["specjbb", "ocean", "MIX3"];
const TAG_FACTORS: [usize; 3] = [1, 2, 4];
const RANKING_MIXES: [&str; 2] = ["MIX2", "MIX3"];
const COLLAPSE_WORKLOADS: [&str; 2] = ["oltp", "specjbb"];

pub(crate) fn catalog(wl: &'static str) -> WorkloadId {
    WorkloadId::from_catalog(wl).expect("studies name catalog workloads")
}

/// One custom CMP-NuRAPID run as a pool job.
fn nurapid_job(wl: &'static str, nur: NurapidConfig, cfg: RunConfig) -> Job<'static, RunResult> {
    Box::new(move || {
        let org = CmpNurapid::new(nur);
        match catalog(wl) {
            WorkloadId::Mix(m) => {
                run(try_mix_workload(m, cfg.seed).expect("catalog mix"), org, &cfg)
            }
            _ => {
                run(try_multithreaded_workload(wl, cfg.seed).expect("catalog workload"), org, &cfg)
            }
        }
    })
}

/// The design choices DESIGN.md calls out: the CR x ISC factorial on
/// OLTP, fastest vs next-fastest promotion (Section 3.3.1), the tag
/// capacity factor (Section 2.2.2), staggered vs naive d-group
/// rankings (Section 2.2.1), and the C-collapse extension.
pub fn ablations(lab: &mut Lab) -> Study {
    let cfg = *lab.config();
    let paper = NurapidConfig::paper;
    let mut jobs: Vec<Job<RunResult>> = Vec::new();
    for (_, _, cr, isc) in FACTORIAL {
        let nur =
            NurapidConfig { controlled_replication: cr, in_situ_communication: isc, ..paper() };
        jobs.push(nurapid_job("oltp", nur, cfg));
    }
    for wl in POLICY_WORKLOADS {
        for promotion in [PromotionPolicy::Fastest, PromotionPolicy::NextFastest] {
            jobs.push(nurapid_job(wl, NurapidConfig { promotion, ..paper() }, cfg));
        }
    }
    for tag_capacity_factor in TAG_FACTORS {
        jobs.push(nurapid_job("oltp", NurapidConfig { tag_capacity_factor, ..paper() }, cfg));
    }
    for m in RANKING_MIXES {
        for staggered_ranking in [true, false] {
            jobs.push(nurapid_job(m, NurapidConfig { staggered_ranking, ..paper() }, cfg));
        }
    }
    for wl in COLLAPSE_WORKLOADS {
        for c_collapse in [false, true] {
            jobs.push(nurapid_job(wl, NurapidConfig { c_collapse, ..paper() }, cfg));
        }
    }
    let mut results = lab.run_study_jobs(jobs).into_iter();
    let mut next = || results.next().expect("one result per job");
    let mut base = |wl: &'static str| lab.result(catalog(wl), OrgKind::Shared).ipc();
    let mut s = Study::new("ablations");

    let shared_oltp = base("oltp");
    let mut t =
        TextTable::new(vec!["configuration", "rel perf", "ROS miss", "RWS miss", "cap miss"]);
    for (label, key, _, _) in FACTORIAL {
        let r = next();
        let row = format!("factorial/{key}");
        t.row(vec![
            label.to_string(),
            rel(s.put(&row, "rel", r.ipc() / shared_oltp)),
            pct(s.put(&row, "miss_ros", r.l2.class_fraction(AccessClass::MissRos).value())),
            pct(s.put(&row, "miss_rws", r.l2.class_fraction(AccessClass::MissRws).value())),
            pct(s.put(
                &row,
                "miss_capacity",
                r.l2.class_fraction(AccessClass::MissCapacity).value(),
            )),
        ]);
    }
    s.text += &format!("Ablation 1: CR x ISC on OLTP (relative to uniform-shared)\n{t}\n");

    let mut t = TextTable::new(vec![
        "workload",
        "fastest",
        "(closest hits)",
        "next-fastest",
        "(closest hits)",
    ]);
    for wl in POLICY_WORKLOADS {
        let b = base(wl);
        let mut cells = vec![wl.to_string()];
        for policy in ["fastest", "next-fastest"] {
            let r = next();
            let row = format!("promotion/{wl}/{policy}");
            cells.push(rel(s.put(&row, "rel", r.ipc() / b)));
            cells.push(pct(s.put(&row, "closest_of_hits", closest_of_hits(&r))));
        }
        t.row(cells);
    }
    s.text += &format!(
        "Ablation 2: promotion policy (relative to uniform-shared)\n{t}\
         paper (Section 3.3.1): fastest is more effective in CMPs than next-fastest\n\n"
    );

    let mut t = TextTable::new(vec!["tag factor", "rel perf (oltp)", "tag overhead"]);
    for factor in TAG_FACTORS {
        let r = next();
        let nur = NurapidConfig { tag_capacity_factor: factor, ..paper() };
        // Overhead estimate per Section 2.2.2: a tag entry is ~8 bytes
        // (tag + forward pointer + state); overhead is entries beyond
        // the 1x baseline relative to the 8 MB data capacity.
        let baseline_entries = 16_384usize;
        let entries_per_core = nur.tag_geometry().num_blocks();
        let overhead_bytes = 4 * (entries_per_core - baseline_entries) * 8;
        let total = 8 * 1024 * 1024 + 4 * baseline_entries * 8 + overhead_bytes;
        let row = format!("tag-capacity/{factor}x");
        t.row(vec![
            format!("{factor}x"),
            rel(s.put(&row, "rel", r.ipc() / shared_oltp)),
            pct(s.put(&row, "tag_overhead", overhead_bytes as f64 / total as f64)),
        ]);
    }
    s.text += &format!(
        "Ablation 3: tag capacity (relative to uniform-shared)\n{t}\
         paper (Section 2.2.2): doubling costs ~6% capacity and performs almost as\n\
         well as quadrupling (~23%)\n\n"
    );

    let mut t = TextTable::new(vec!["mix", "staggered", "(demotions)", "naive", "(demotions)"]);
    for m in RANKING_MIXES {
        let b = base(m);
        let mut cells = vec![m.to_string()];
        for ranking in ["staggered", "naive"] {
            let r = next();
            let row = format!("ranking/{m}/{ranking}");
            cells.push(rel(s.put(&row, "rel", r.ipc() / b)));
            cells.push(s.put(&row, "demotions", r.l2.demotions as f64).to_string());
        }
        t.row(cells);
    }
    s.text += &format!(
        "Ablation 4: d-group preference rankings (relative to uniform-shared)\n{t}\
         paper (Section 2.2.1): staggered rankings avoid contention among cores for\n\
         the same second-preference d-groups\n\n"
    );

    let mut t = TextTable::new(vec![
        "workload",
        "no exits from C (paper)",
        "(collapses)",
        "c_collapse",
        "(collapses)",
    ]);
    for wl in COLLAPSE_WORKLOADS {
        let b = base(wl);
        let mut cells = vec![wl.to_string()];
        for variant in ["paper", "c_collapse"] {
            let r = next();
            let row = format!("c-collapse/{wl}/{variant}");
            cells.push(rel(s.put(&row, "rel", r.ipc() / b)));
            cells.push(s.put(&row, "c_collapses", r.l2.c_collapses as f64).to_string());
        }
        t.row(cells);
    }
    s.text += &format!(
        "Ablation 5 (extension): exits from the C state\n{t}\
         the paper keeps blocks in C forever (Section 3.2's future work); c_collapse\n\
         reverts a C block to M once its other sharers' tags are gone\n"
    );
    s
}

const CORE_COUNTS: [usize; 4] = [2, 4, 8, 16];

/// Builds the `which`-th of uniform-shared, private, non-uniform-shared
/// and CMP-NuRAPID at `cores` on `book`, with the 8 MB total split
/// among the cores (at 4 cores, the paper's organizations).
fn core_scaled_org(book: &LatencyBook, cores: usize, which: usize) -> Box<dyn CacheOrg> {
    match which {
        0 => Box::new(UniformShared::paper_shared(book)),
        1 => Box::new(PrivateMesi::paper(book)),
        2 => Box::new(Snuca::paper(book)),
        _ => Box::new(CmpNurapid::new(NurapidConfig {
            cores,
            dgroup_bytes: cmp_mem::L2_TOTAL_BYTES / cores.next_power_of_two(),
            latencies: book.clone(),
            ..NurapidConfig::paper()
        })),
    }
}

/// Core-count scaling (extension): the headline comparison on OLTP at
/// 2, 4, 8 and 16 cores with the total on-chip capacity fixed at
/// 8 MB, so each core's share shrinks as cores grow — the capacity
/// pressure the paper's introduction argues will intensify. The
/// per-core run shrinks as cores grow so each run costs about the
/// same.
pub fn cores(lab: &mut Lab) -> Study {
    let cfg = *lab.config();
    let mut jobs: Vec<Job<RunResult>> = Vec::new();
    for cores in CORE_COUNTS {
        for which in 0..4 {
            jobs.push(Box::new(move || {
                let book = LatencyBook::from_table1(&Table1::published(), cores);
                let per_core = (cfg.measure_accesses * 4 / cores as u64).max(10_000);
                let warmup = (cfg.warmup_accesses * 4 / cores as u64).max(5_000);
                let workload = SyntheticWorkload::new(profiles::oltp_params(), cores, cfg.seed);
                let mut sys = System::new(workload, core_scaled_org(&book, cores, which));
                sys.run_measured(warmup, per_core)
            }));
        }
    }
    let all = lab.run_study_jobs(jobs);
    let mut s = Study::new("cores");
    let mut t = TextTable::new(vec![
        "cores",
        "private (rel)",
        "non-uniform-shared (rel)",
        "CMP-NuRAPID (rel)",
        "NuRAPID miss%",
    ]);
    for (cores, results) in CORE_COUNTS.iter().zip(all.chunks(4)) {
        let base = results[0].ipc();
        let mut cells = vec![cores.to_string()];
        for (r, org) in results[1..].iter().zip(["private", "snuca", "nurapid"]) {
            cells.push(rel(s.put(&format!("c{cores}/{org}"), "rel", r.ipc() / base)));
        }
        let miss =
            s.put(&format!("c{cores}/nurapid"), "miss_rate", results[3].l2.miss_fraction().value());
        cells.push(format!("{:.1}%", miss * 100.0));
        t.row(cells);
    }
    s.text = format!(
        "Core-count scaling on OLTP, total L2 capacity fixed at 8 MB\n\n{t}\n\
         Trend to look for: as cores grow (and each core's capacity share\n\
         shrinks), private caches lose their latency advantage to capacity\n\
         pressure while CMP-NuRAPID holds on by sharing the data array -\n\
         the latency-capacity tension the paper opens with.\n"
    );
    s
}

/// CMP-DNUCA vs CMP-SNUCA, the paper's exclusion argument: Section
/// 4.2 skips CMP-DNUCA because Beckmann & Wood showed realistic
/// CMP-DNUCA performs *worse* than CMP-SNUCA, and Section 1 explains
/// why — each sharer pulls a shared block toward itself, stranding it
/// in the middle.
pub fn dnuca(lab: &mut Lab) -> Study {
    let mut s = Study::new("dnuca");
    let mut t = TextTable::new(vec![
        "workload",
        "SNUCA (rel)",
        "DNUCA (rel)",
        "DNUCA closest hits",
        "DNUCA migrations",
    ]);
    for wl in MULTITHREADED {
        let id = WorkloadId::Multithreaded(wl);
        let shared = lab.result(id, OrgKind::Shared).ipc();
        let snuca = lab.result(id, OrgKind::Snuca).ipc();
        let dnuca = lab.result(id, OrgKind::Dnuca);
        let (dnuca_ipc, closest, migrations) =
            (dnuca.ipc(), closest_of_hits(dnuca), dnuca.l2.promotions as f64);
        let row = format!("{wl}/dnuca");
        t.row(vec![
            wl.to_string(),
            rel(s.put(&format!("{wl}/snuca"), "rel", snuca / shared)),
            rel(s.put(&row, "rel", dnuca_ipc / shared)),
            pct(s.put(&row, "closest_of_hits", closest)),
            s.put(&row, "migrations", migrations).to_string(),
        ]);
    }
    s.text = format!(
        "CMP-DNUCA vs CMP-SNUCA (relative to uniform-shared)\n{t}\n\
         paper (Sections 1 and 4.2, citing Beckmann & Wood): realistic CMP-DNUCA\n\
         performs worse than CMP-SNUCA on shared workloads because sharers drag\n\
         blocks to the middle of the bankset and the incremental search taxes\n\
         every non-nearest hit. Our incremental-search model sits at the\n\
         pessimistic end of Beckmann & Wood's search options, so the deficit is\n\
         larger than theirs; the *ordering* (DNUCA < SNUCA under sharing) is\n\
         the paper's point, and it reproduces.\n"
    );
    s
}

/// The workloads the energy study accounts.
pub(crate) const ENERGY_WORKLOADS: [&str; 2] = ["oltp", "apache"];

/// Dynamic energy across organizations (extension: the paper
/// evaluates performance only; the NuRAPID line motivates distance
/// associativity with energy as well).
pub fn energy(lab: &mut Lab) -> Study {
    let model = EnergyModel::paper_70nm();
    let mut s = Study::new("energy");
    for wl in ENERGY_WORKLOADS {
        let mut t = TextTable::new(vec![
            "org",
            "tag mJ",
            "data mJ",
            "bus mJ",
            "memory mJ",
            "L1 mJ",
            "total mJ",
            "nJ/ref",
        ]);
        let mut shared_total = 0.0;
        for kind in OrgKind::COMPARISON {
            let r = lab.result(WorkloadId::Multithreaded(wl), kind);
            let e = energy_account(r, kind, &model);
            let nj_per_ref = e.per_reference_nj(r.accesses);
            if kind == OrgKind::Shared {
                shared_total = e.total_mj();
            }
            let row = format!("{wl}/{}", kind.name());
            let mut mj = |metric: &str, v: f64| format!("{:.2}", s.put(&row, metric, v));
            t.row(vec![
                kind.label().to_string(),
                mj("tag_mj", e.tag_mj),
                mj("data_mj", e.data_mj),
                mj("bus_mj", e.bus_mj),
                mj("memory_mj", e.memory_mj),
                mj("l1_mj", e.l1_mj),
                format!(
                    "{} ({:+.0}%)",
                    mj("total_mj", e.total_mj()),
                    (e.total_mj() / shared_total - 1.0) * 100.0
                ),
                mj("nj_per_ref", nj_per_ref),
            ]);
        }
        s.text +=
            &format!("Dynamic energy on {wl} (70 nm model; extension, not in the paper)\n{t}\n");
    }
    s.text += "Reading: the uniform-shared cache pays a central tag plus a monolithic\n\
               8 MB array on every access; CMP-NuRAPID pays a small private tag and a\n\
               2 MB d-group, mostly the closest one - the energy argument behind\n\
               distance associativity (Chishti et al., MICRO 2004).\n";
    s
}

const ICACHE_ORGS: [OrgKind; 3] = [OrgKind::Shared, OrgKind::Private, OrgKind::Nurapid];

/// Instruction streams (extension): Section 4.1's L1 I-caches
/// modelled explicitly. In multithreaded workloads all cores execute
/// one binary, so instruction blocks are the canonical
/// read-only-shared data: private caches replicate them four times
/// while controlled replication shares one copy through pointers.
pub fn icache(lab: &mut Lab) -> Study {
    let cfg = *lab.config();
    let workloads = ["oltp", "apache"];
    let mut jobs: Vec<Job<RunResult>> = Vec::new();
    for wl in workloads {
        for kind in ICACHE_ORGS {
            jobs.push(Box::new(move || {
                let workload = try_multithreaded_workload(wl, cfg.seed).expect("catalog workload");
                let mut sys = System::new(workload, build_org(kind));
                assert!(sys.enable_instruction_fetch(cfg.seed), "profiles model code");
                sys.run_measured(cfg.warmup_accesses, cfg.measure_accesses)
            }));
        }
    }
    let all = lab.run_study_jobs(jobs);
    let mut s = Study::new("icache");
    for (wl, results) in workloads.iter().zip(all.chunks(ICACHE_ORGS.len())) {
        let mut t = TextTable::new(vec![
            "org",
            "rel perf",
            "L1I hit rate",
            "L2 ROS misses",
            "L2 miss rate",
        ]);
        let base = results[0].ipc();
        for (kind, r) in ICACHE_ORGS.iter().zip(results) {
            let row = format!("{wl}/{}", kind.name());
            let l1i_hits = r.l1i.hits as f64 / (r.l1i.hits + r.l1i.misses).max(1) as f64;
            t.row(vec![
                kind.label().to_string(),
                rel(s.put(&row, "rel", r.ipc() / base)),
                pct(s.put(&row, "l1i_hit_rate", l1i_hits)),
                pct(s.put(&row, "miss_ros", r.l2.class_fraction(AccessClass::MissRos).value())),
                pct(s.put(&row, "miss_rate", r.l2.miss_fraction().value())),
            ]);
        }
        s.text += &format!("With instruction fetch enabled, on {wl}\n{t}\n");
    }
    s.text += "Code is read-only-shared: the private caches' ROS misses now include\n\
               instruction blocks bouncing between the four copies of the binary,\n\
               while CMP-NuRAPID's controlled replication shares hot code through\n\
               pointer copies (extension experiment; the paper's figures use the\n\
               data stream only).\n";
    s
}

/// The sensitivity sweeps: (axis, key prefix, values, paper value).
const SWEEPS: [(&str, &str, [Cycle; 3], Cycle); 2] =
    [("memory latency", "memory", [150, 300, 600], 300), ("bus latency", "bus", [16, 32, 64], 32)];

/// Latency sensitivity (extension): how robust the OLTP comparison is
/// to the two most uncertain timing assumptions, the off-chip memory
/// latency and the snoopy-bus latency.
pub fn sensitivity(lab: &mut Lab) -> Study {
    let cfg = *lab.config();
    let mut jobs: Vec<Job<f64>> = Vec::new();
    for (_, axis, values, _) in SWEEPS {
        for value in values {
            let mut book = LatencyBook::from_table1(&Table1::published(), 4);
            if axis == "memory" {
                book.memory = value;
            } else {
                book.bus = value;
            }
            // Uniform-shared, private and CMP-NuRAPID.
            for which in [0, 1, 3] {
                let book = book.clone();
                jobs.push(Box::new(move || {
                    let bus = Bus::new(book.bus, (book.bus / 8).max(1));
                    let org = core_scaled_org(&book, 4, which);
                    let mut sys = System::with_bus(profiles::oltp(4, cfg.seed), org, bus);
                    sys.run_measured(cfg.warmup_accesses, cfg.measure_accesses).ipc()
                }));
            }
        }
    }
    let all = lab.run_study_jobs(jobs);
    let mut ipcs = all.chunks(3);
    let mut s = Study::new("sensitivity");
    s.text = "Sensitivity of the OLTP comparison (relative to uniform-shared)\n\n".to_string();
    for (header, axis, values, paper) in SWEEPS {
        let mut t = TextTable::new(vec![header, "private", "CMP-NuRAPID"]);
        for value in values {
            let ipc = ipcs.next().expect("three runs per point");
            let row = format!("{axis}-{value}");
            t.row(vec![
                format!("{value} cycles{}", if value == paper { " (paper)" } else { "" }),
                rel(s.put(&format!("{row}/private"), "rel", ipc[1] / ipc[0])),
                rel(s.put(&format!("{row}/nurapid"), "rel", ipc[2] / ipc[0])),
            ]);
        }
        s.text += &format!("{t}\n");
    }
    s.text += "Reading: longer memory latency amplifies capacity effects (helping the\n\
               designs with fewer misses); a slower bus taxes the miss paths of the\n\
               private and CMP-NuRAPID designs, which both snoop on it. The ordering\n\
               of the organizations should be stable across the sweep.\n";
    s
}
