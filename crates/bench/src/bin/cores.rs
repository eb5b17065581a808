//! Core-count scaling study (extension): the paper evaluates a
//! 4-core CMP; every structure in this reproduction is generic over
//! the core count, so this binary repeats the headline comparison at
//! 2, 4, 8, and 16 cores with the total on-chip capacity fixed at
//! 8 MB (so each core's share shrinks as cores grow — the capacity
//! pressure trend the paper's introduction argues will intensify).
//!
//! The whole (core count x organization) grid is one batch on the
//! scoped worker pool; each job builds its workload and organization
//! from scratch on its worker, so runs share no state and the table
//! is identical at any `CMP_BENCH_THREADS`.
//!
//! Usage: `cores [quick|paper|REFS]`

use cmp_bench::config_from_args;
use cmp_bench::pool::{self, Job};
use cmp_bench::table::{rel, TextTable};
use cmp_cache::{CacheOrg, PrivateMesi, Snuca, UniformShared};
use cmp_latency::{LatencyBook, Table1};
use cmp_nurapid::{CmpNurapid, NurapidConfig};
use cmp_sim::{RunResult, System};
use cmp_trace::{profiles, SyntheticWorkload};

const ORG_LABELS: [&str; 4] = ["uniform-shared", "private", "non-uniform-shared", "CMP-NuRAPID"];

fn build_org(book: &LatencyBook, cores: usize, which: usize) -> Box<dyn CacheOrg> {
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

fn main() {
    let cfg = config_from_args();
    // Scale the per-core run down as cores go up so wall time stays
    // comparable.
    println!("Core-count scaling on OLTP, total L2 capacity fixed at 8 MB\n");
    let core_counts = [2usize, 4, 8, 16];
    let mut jobs: Vec<Job<RunResult>> = Vec::new();
    for &cores in &core_counts {
        for which in 0..ORG_LABELS.len() {
            jobs.push(Box::new(move || {
                let book = LatencyBook::from_table1(&Table1::published(), cores);
                let per_core = (cfg.measure_accesses * 4 / cores as u64).max(10_000);
                let warmup = (cfg.warmup_accesses * 4 / cores as u64).max(5_000);
                let workload = SyntheticWorkload::new(profiles::oltp_params(), cores, cfg.seed);
                let mut sys = System::new(workload, build_org(&book, cores, which));
                sys.run_measured(warmup, per_core)
            }));
        }
    }
    let all = pool::run_jobs(jobs, pool::default_threads());

    let mut t = TextTable::new(vec![
        "cores",
        "private (rel)",
        "non-uniform-shared (rel)",
        "CMP-NuRAPID (rel)",
        "NuRAPID miss%",
    ]);
    for (i, &cores) in core_counts.iter().enumerate() {
        let results = &all[i * ORG_LABELS.len()..(i + 1) * ORG_LABELS.len()];
        let base = results[0].ipc();
        let miss = results[3].l2.miss_fraction().value() * 100.0;
        t.row(vec![
            cores.to_string(),
            rel(results[1].ipc() / base),
            rel(results[2].ipc() / base),
            rel(results[3].ipc() / base),
            format!("{miss:.1}%"),
        ]);
    }
    println!("{t}");
    println!(
        "Trend to look for: as cores grow (and each core's capacity share\n\
         shrinks), private caches lose their latency advantage to capacity\n\
         pressure while CMP-NuRAPID holds on by sharing the data array -\n\
         the latency-capacity tension the paper opens with."
    );
}
