//! Criterion microbenches for the per-access hot path rewritten in
//! PR 3: flat tag array lookup/fill, bit-packed LRU touch, Zipf
//! sampling, and the full per-reference system step. The same
//! kernels are self-measured by `src/bin/hotpath.rs` so their
//! numbers land in `BENCH_hotpath.json`; this target exists for
//! interactive `cargo bench` comparisons.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cmp_cache::lru::LruSets;
use cmp_cache::TagArray;
use cmp_mem::{BlockAddr, CacheGeometry, Rng, Zipf};
use cmp_sim::{build_org, OrgKind, System};
use cmp_trace::profiles;

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
    c.bench_function("hotpath_tag_array_lookup_touch", |b| {
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
    c.bench_function("hotpath_tag_array_fill_evict", |b| {
        let mut j = 0u64;
        b.iter(|| {
            j += 1;
            let blk = BlockAddr(j * 2_048 + 17);
            let set = tags.set_of(blk);
            let way = tags.victim_by(set, |e| u32::from(e.is_some()));
            tags.evict(set, way);
            tags.fill(set, way, blk, 0);
            black_box(())
        })
    });
}

fn bench_lru_touch(c: &mut Criterion) {
    c.bench_function("hotpath_lru_touch", |b| {
        let mut lru = LruSets::new(1, 16);
        let mut k = 0u64;
        b.iter(|| {
            k = k.wrapping_mul(6364136223846793005).wrapping_add(1);
            lru.touch(0, (k % 16) as usize);
            black_box(lru.least_recent(0))
        })
    });
}

fn bench_zipf_sample(c: &mut Criterion) {
    c.bench_function("hotpath_zipf_sample", |b| {
        let zipf = Zipf::new(100_000, 0.9);
        let mut rng = Rng::new(7);
        b.iter(|| black_box(zipf.sample(&mut rng)))
    });
}

fn bench_system_step(c: &mut Criterion) {
    c.bench_function("hotpath_system_step_x100", |b| {
        let mut system = System::new(profiles::oltp(4, 3), build_org(OrgKind::Nurapid));
        system.run(2_000); // warm past cold misses
        b.iter(|| {
            system.run(100);
            black_box(())
        })
    });
}

criterion_group!(benches, bench_tag_array, bench_lru_touch, bench_zipf_sample, bench_system_step);
criterion_main!(benches);
