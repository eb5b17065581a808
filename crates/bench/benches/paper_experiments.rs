//! Criterion benches: one per table/figure of the paper.
//!
//! Each bench drives the same code path that regenerates the
//! corresponding experiment (workload generator → system → cache
//! organization → statistics) at a reduced reference count, so
//! `cargo bench` both exercises every experiment end-to-end and
//! tracks the simulator's throughput. The printed *results* of the
//! paper experiments come from the `cmp-bench` binaries
//! (`--bin repro -- all`); these benches measure that machinery.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cmp_bench::figures;
use cmp_bench::Lab;
use cmp_latency::Table1;
use cmp_nurapid::{CmpNurapid, NurapidConfig, PromotionPolicy};
use cmp_sim::{run, run_workload_mono, try_multithreaded_workload, OrgKind, RunConfig};
use cmp_trace::SyntheticWorkload;

/// Small but non-trivial run sizing for benchmarking the harness.
fn bench_cfg() -> RunConfig {
    RunConfig::sized(5_000, 10_000, 0xBE7C)
}

fn workload(name: &str) -> SyntheticWorkload {
    try_multithreaded_workload(name, bench_cfg().seed).unwrap()
}

fn bench_table1(c: &mut Criterion) {
    c.bench_function("table1_latency_model", |b| b.iter(|| black_box(Table1::from_model())));
}

fn bench_figures(c: &mut Criterion) {
    let mut group = c.benchmark_group("figures");
    group.sample_size(10);
    group.bench_function("fig5_access_distribution", |b| {
        b.iter(|| black_box(figures::fig5(&mut Lab::new(bench_cfg()))))
    });
    group.bench_function("fig6_opportunity", |b| {
        b.iter(|| black_box(figures::fig6(&mut Lab::new(bench_cfg()))))
    });
    group.bench_function("fig7_reuse", |b| {
        b.iter(|| black_box(figures::fig7(&mut Lab::new(bench_cfg()))))
    });
    group.bench_function("fig8_tag_distribution", |b| {
        b.iter(|| black_box(figures::fig8(&mut Lab::new(bench_cfg()))))
    });
    group.bench_function("fig9_data_distribution", |b| {
        b.iter(|| black_box(figures::fig9(&mut Lab::new(bench_cfg()))))
    });
    group.bench_function("fig10_performance", |b| {
        b.iter(|| black_box(figures::fig10(&mut Lab::new(bench_cfg()))))
    });
    group.bench_function("fig11_mp_distribution", |b| {
        b.iter(|| black_box(figures::fig11(&mut Lab::new(bench_cfg()))))
    });
    group.bench_function("fig12_mp_performance", |b| {
        b.iter(|| black_box(figures::fig12(&mut Lab::new(bench_cfg()))))
    });
    group.finish();
}

fn bench_ablations(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);
    let cfg = bench_cfg();
    group.bench_function("cr_ablation", |b| {
        b.iter(|| {
            for (cr, isc) in [(false, false), (true, false), (false, true), (true, true)] {
                let nur = NurapidConfig {
                    controlled_replication: cr,
                    in_situ_communication: isc,
                    ..NurapidConfig::paper()
                };
                black_box(run(workload("oltp"), CmpNurapid::new(nur), &cfg));
            }
        })
    });
    group.bench_function("promotion_ablation", |b| {
        b.iter(|| {
            for policy in [PromotionPolicy::Fastest, PromotionPolicy::NextFastest] {
                let nur = NurapidConfig { promotion: policy, ..NurapidConfig::paper() };
                black_box(run(workload("specjbb"), CmpNurapid::new(nur), &cfg));
            }
        })
    });
    group.bench_function("tag_capacity", |b| {
        b.iter(|| {
            for factor in [1usize, 2, 4] {
                let nur = NurapidConfig { tag_capacity_factor: factor, ..NurapidConfig::paper() };
                black_box(run(workload("oltp"), CmpNurapid::new(nur), &cfg));
            }
        })
    });
    group.bench_function("ranking", |b| {
        b.iter(|| {
            for staggered in [true, false] {
                let nur = NurapidConfig { staggered_ranking: staggered, ..NurapidConfig::paper() };
                black_box(run(workload("apache"), CmpNurapid::new(nur), &cfg));
            }
        })
    });
    group.finish();
}

fn bench_org_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator_throughput");
    group.sample_size(10);
    let cfg = bench_cfg();
    for kind in OrgKind::COMPARISON {
        group.bench_function(kind.label(), |b| {
            b.iter(|| black_box(run_workload_mono(workload("oltp"), kind, &cfg)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_table1, bench_figures, bench_ablations, bench_org_throughput);
criterion_main!(benches);
