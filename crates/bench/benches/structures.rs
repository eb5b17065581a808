//! Criterion microbenches for the core data structures: the hot
//! paths every simulated reference goes through.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cmp_cache::{CacheOrg, InvalScratch, TagArray};
use cmp_coherence::Bus;
use cmp_mem::{AccessKind, BlockAddr, CacheGeometry, CoreId, Rng};
use cmp_nurapid::{CmpNurapid, DGroupId, DataArray, NurapidConfig, TagRef};
use cmp_sim::l1::{L1Cache, L1Outcome};
use cmp_trace::{profiles, TraceSource};

fn bench_tag_array(c: &mut Criterion) {
    let geom = CacheGeometry::new(2 * 1024 * 1024, 128, 8);
    let mut tags: TagArray<u32> = TagArray::new(geom);
    let mut rng = Rng::new(1);
    for _ in 0..20_000 {
        let b = BlockAddr(rng.gen_range(40_000));
        let set = tags.set_of(b);
        if tags.lookup(b).is_none() {
            let way = tags.victim_by(set, |e| u32::from(e.is_some()));
            tags.evict(set, way);
            tags.fill(set, way, b, 0);
        }
    }
    c.bench_function("tag_array_lookup_touch", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_mul(6364136223846793005).wrapping_add(1);
            let blk = BlockAddr(i % 40_000);
            if let Some(way) = tags.lookup(blk) {
                tags.touch(tags.set_of(blk), way);
            }
            black_box(())
        })
    });
}

fn bench_l1(c: &mut Criterion) {
    // 1,100 blocks over the L1's 1,024 lines: mostly hits, as in a
    // simulated run, with enough conflict misses to exercise fills.
    const BLOCKS: u64 = 1_100;
    let mut l1 = L1Cache::paper();
    let mut rng = Rng::new(1);
    for _ in 0..20_000 {
        let b = BlockAddr(rng.gen_range(BLOCKS));
        if l1.access(b, AccessKind::Read) == L1Outcome::Miss {
            l1.fill(b, false, false);
        }
    }
    c.bench_function("l1_access_hot", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_mul(6364136223846793005).wrapping_add(1);
            let blk = BlockAddr(i % BLOCKS);
            let kind = if i & 8 == 0 { AccessKind::Read } else { AccessKind::Write };
            let outcome = l1.access(blk, kind);
            if outcome != L1Outcome::Hit {
                l1.fill(blk, false, kind.is_write());
            }
            black_box(outcome)
        })
    });
}

fn bench_data_array(c: &mut Criterion) {
    c.bench_function("data_array_alloc_free", |b| {
        let mut data = DataArray::new(4, 16_384);
        let owner = TagRef { core: CoreId(0), set: 0, way: 0 };
        b.iter(|| {
            let f = data.alloc(DGroupId(1), BlockAddr(7), owner);
            black_box(data.free(f))
        })
    });
    c.bench_function("data_array_random_victim", |b| {
        let mut data = DataArray::new(4, 4_096);
        let owner = TagRef { core: CoreId(0), set: 0, way: 0 };
        for i in 0..4_096 {
            data.alloc(DGroupId(2), BlockAddr(i), owner);
        }
        let mut rng = Rng::new(9);
        b.iter(|| black_box(data.random_occupied(DGroupId(2), &mut rng, &[])))
    });
}

fn bench_nurapid_access(c: &mut Criterion) {
    c.bench_function("nurapid_access_hot", |b| {
        let mut l2 = CmpNurapid::new(NurapidConfig::paper());
        let mut bus = Bus::paper();
        let mut now = 0u64;
        let mut inv = InvalScratch::new();
        // Warm one block so the loop measures the hit path.
        l2.access(CoreId(0), BlockAddr(42), AccessKind::Read, 0, &mut bus, &mut inv);
        b.iter(|| {
            now += 100;
            black_box(l2.access(
                CoreId(0),
                BlockAddr(42),
                AccessKind::Read,
                now,
                &mut bus,
                &mut inv,
            ))
        })
    });
    c.bench_function("nurapid_access_streaming", |b| {
        let mut l2 = CmpNurapid::new(NurapidConfig::paper());
        let mut bus = Bus::paper();
        let mut now = 0u64;
        let mut blk = 0u64;
        let mut inv = InvalScratch::new();
        b.iter(|| {
            now += 400;
            blk += 1;
            black_box(l2.access(
                CoreId((blk % 4) as u8),
                BlockAddr(blk),
                AccessKind::Read,
                now,
                &mut bus,
                &mut inv,
            ))
        })
    });
}

fn bench_workload_generation(c: &mut Criterion) {
    c.bench_function("trace_oltp_next_access", |b| {
        let mut w = profiles::oltp(4, 3);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(w.next_access(CoreId((i % 4) as u8)))
        })
    });
}

criterion_group!(
    benches,
    bench_tag_array,
    bench_l1,
    bench_data_array,
    bench_nurapid_access,
    bench_workload_generation
);
criterion_main!(benches);
