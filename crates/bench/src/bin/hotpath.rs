//! Self-measuring hot-path benchmark: times the full figure sweep
//! (the union of every figure's (workload, organization) pairs)
//! through the sequential [`Lab`] (which takes the monomorphized
//! driver), re-times the same sweep through the `Box<dyn CacheOrg>`
//! entry points as the dyn-dispatch baseline — measured in the same
//! run, on the same machine, never carried over from an old report —
//! and asserts the two sweeps agree bit-for-bit before reporting the
//! speedup. A handful of microbenchmarks of the structures on the
//! per-access path round out the `BENCH_hotpath.json` report,
//! including the `dispatch` pair `system_step_mono_ns` /
//! `system_step_dyn_ns`.
//!
//! Usage: `hotpath [quick|paper|<refs>]` — defaults to `quick`.

use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

use cmp_bench::{figures, ok_or_exit, parse_config, Json, Lab, ResultSource, WorkloadId};
use cmp_cache::lru::LruSets;
use cmp_cache::{TagArray, UniformShared};
use cmp_latency::LatencyBook;
use cmp_mem::{AccessKind, BlockAddr, CacheGeometry, CoreId, Rng, Zipf};
use cmp_nurapid::{CmpNurapid, NurapidConfig};
use cmp_sim::{
    build_org, run, try_mix_workload, try_multithreaded_workload, OrgKind, RunConfig, RunResult,
    System,
};
use cmp_trace::{profiles, Region};

const REPORT_PATH: &str = "BENCH_hotpath.json";

/// Average nanoseconds per call of `f` over `iters` calls.
fn ns_per_op<F: FnMut()>(iters: u64, mut f: F) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_secs_f64() * 1e9 / iters as f64
}

/// The tentpole's receipt: the memory-system step — the
/// `CacheOrg::access` call the L1 filter forwards to — at the
/// engine's real operating point, where runs of *different* orgs
/// interleave in one process (a figure sweep cycles through five
/// organizations; the service mixes arbitrary jobs).
///
/// `system_step_dyn_ns` drives an L2-hit replay through
/// `Box<dyn CacheOrg>` with the org changing per access on a
/// balanced pseudo-random schedule — the vtable load plus a
/// megamorphic indirect branch on every step, which is what
/// per-access virtual dispatch degrades to once more than one org
/// type is live. (The schedule must be unpredictable: a periodic
/// round-robin is learnable by the indirect-branch predictor, which
/// hides most of the dispatch cost and makes the row unstable from
/// run to run.) `system_step_mono_ns` drives the identical
/// access stream the way `run_workload_mono` is shaped: one `OrgKind`
/// dispatch per batch, then a statically-dispatched inlined loop on
/// the concrete org. The workload draw and L1 filter are deliberately
/// excluded from both rows: a Zipf draw alone costs more than the
/// whole dispatch boundary and is byte-identical on both paths, so
/// including it would only dilute the quantity the tentpole changed.
/// CI holds the mono/dyn ratio of these two rows.
fn dispatch_rows(out: &mut Json) {
    use cmp_cache::{CacheOrg, Dnuca, InvalScratch, PrivateMesi, Snuca};
    use cmp_coherence::Bus;

    // A small cycling block set: hot in the host's caches, hits in
    // the simulated L2, so the timed work is the access step itself.
    const BLOCKS: u64 = 64;
    // The dispatch grain of the mono path. Production re-dispatches
    // once per run (millions of accesses); even this tiny batch fully
    // amortizes the OrgKind match, so the row is not flattered.
    const BATCH: u64 = 256;
    const ORGS: usize = 5;
    const CORES: u64 = cmp_mem::PAPER_CORES as u64;
    let block = |i: u64| {
        Region::Private(CoreId((i % CORES) as u8))
            .block_addr(i % BLOCKS)
            .block(cmp_mem::L2_BLOCK_BYTES)
    };
    let book = LatencyBook::paper();
    let rounds = 3_000u64;

    // Balanced pseudo-random org schedule: each org appears BATCH
    // times per round, in a fixed shuffled order, so both sides do
    // identical per-org work but the dyn side's indirect branch
    // target is unpredictable.
    let mut schedule: Vec<usize> =
        (0..ORGS as u64 * BATCH).map(|i| (i % ORGS as u64) as usize).collect();
    let mut srng = Rng::new(0x5eed);
    for i in (1..schedule.len()).rev() {
        let j = srng.gen_range(i as u64 + 1) as usize;
        schedule.swap(i, j);
    }

    // Dyn baseline: five live org types behind one Box each, the org
    // chosen per access by the schedule. `black_box` hides the
    // concrete types so fat LTO cannot devirtualize what production
    // (any of 8 orgs behind one Box) cannot devirtualize either.
    let mut dyn_orgs: Vec<Box<dyn CacheOrg>> = black_box(
        [OrgKind::Shared, OrgKind::Private, OrgKind::Snuca, OrgKind::Dnuca, OrgKind::Nurapid]
            .into_iter()
            .map(build_org)
            .collect(),
    );
    let mut buses: Vec<Bus> = (0..ORGS).map(|_| Bus::paper()).collect();
    let mut inv = InvalScratch::new();
    let mut now = 0u64;
    let mut i = 0u64;
    let mut dyn_step = |i: u64, now: u64, inv: &mut InvalScratch| {
        let o = schedule[(i % (ORGS as u64 * BATCH)) as usize];
        let core = CoreId((i % CORES) as u8);
        black_box(dyn_orgs[o].access(core, block(i), AccessKind::Read, now, &mut buses[o], inv));
    };
    for _ in 0..BLOCKS * ORGS as u64 * 4 {
        dyn_step(i, now, &mut inv); // warm the simulated L2s
        i += 1;
        now += 8;
    }
    let dyn_ns = ns_per_op(rounds, || {
        for _ in 0..ORGS as u64 * BATCH {
            dyn_step(i, now, &mut inv);
            i += 1;
            now += 8;
        }
    }) / (ORGS as u64 * BATCH) as f64;
    drop(dyn_orgs);

    // Monomorphized: the same five-org interleave, dispatched once
    // per batch onto concrete types — the `run_workload_mono` shape.
    let mut shared = UniformShared::paper_shared(&book);
    let mut private = PrivateMesi::paper(&book);
    let mut snuca = Snuca::paper(&book);
    let mut dnuca = Dnuca::paper(&book);
    let mut nurapid = CmpNurapid::new(NurapidConfig::paper());
    let mut buses: Vec<Bus> = (0..ORGS).map(|_| Bus::paper()).collect();
    let mut inv = InvalScratch::new();
    let mut now = 0u64;
    let mut i = 0u64;
    macro_rules! mono_batch {
        ($org:expr, $bus:expr) => {
            for _ in 0..BATCH {
                let core = CoreId((i % CORES) as u8);
                black_box($org.access(core, block(i), AccessKind::Read, now, $bus, &mut inv));
                i += 1;
                now += 8;
            }
        };
    }
    // Warm the simulated L2s with the same stream shape.
    for _ in 0..4 {
        mono_batch!(shared, &mut buses[0]);
        mono_batch!(private, &mut buses[1]);
        mono_batch!(snuca, &mut buses[2]);
        mono_batch!(dnuca, &mut buses[3]);
        mono_batch!(nurapid, &mut buses[4]);
    }
    let mono_ns = ns_per_op(rounds, || {
        mono_batch!(shared, &mut buses[0]);
        mono_batch!(private, &mut buses[1]);
        mono_batch!(snuca, &mut buses[2]);
        mono_batch!(dnuca, &mut buses[3]);
        mono_batch!(nurapid, &mut buses[4]);
    }) / (ORGS as u64 * BATCH) as f64;

    out.set("system_step_dyn_ns", Json::Num(dyn_ns));
    out.set("system_step_mono_ns", Json::Num(mono_ns));
    out.set("dispatch_speedup", Json::Num(dyn_ns / mono_ns));
}

/// Microbenchmarks of the structures on the per-access hot path.
/// Same kernels as `benches/hotpath.rs`, self-measured so the numbers
/// land in the JSON report.
fn microbenches() -> Json {
    let mut out = Json::obj();

    // TagArray: hit-path lookup + LRU touch on a warmed 2 MB array.
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
    let mut i = 0u64;
    out.set(
        "tag_array_lookup_touch_ns",
        Json::Num(ns_per_op(2_000_000, || {
            i = i.wrapping_mul(6364136223846793005).wrapping_add(1);
            let blk = BlockAddr(i % 40_000);
            if let Some(way) = tags.lookup(blk) {
                tags.touch(tags.set_of(blk), way);
            }
        })),
    );

    // TagArray: miss-path evict + fill on a conflicting stream.
    let mut j = 0u64;
    out.set(
        "tag_array_fill_evict_ns",
        Json::Num(ns_per_op(1_000_000, || {
            j += 1;
            let blk = BlockAddr(j * 2_048 + 17);
            let set = tags.set_of(blk);
            let way = tags.victim_by(set, |e| u32::from(e.is_some()));
            tags.evict(set, way);
            tags.fill(set, way, blk, 0);
        })),
    );

    // Packed LRU: touch over a cycling way pattern at 16 ways.
    let mut lru = LruSets::new(1, 16);
    let mut k = 0u64;
    out.set(
        "lru_touch_ns",
        Json::Num(ns_per_op(4_000_000, || {
            k = k.wrapping_mul(6364136223846793005).wrapping_add(1);
            lru.touch(0, (k % 16) as usize);
            black_box(lru.least_recent(0));
        })),
    );

    // Zipf sampling, the inner loop of every synthetic workload.
    let zipf = Zipf::new(100_000, 0.9);
    let mut zrng = Rng::new(7);
    out.set(
        "zipf_sample_ns",
        Json::Num(ns_per_op(2_000_000, || {
            black_box(zipf.sample(&mut zrng));
        })),
    );

    // Full system step: one simulated reference end to end (workload
    // draw, L1s, L2 organization, bus), amortized over a run batch —
    // through the monomorphized system every production sweep uses.
    let cores = cmp_mem::PAPER_CORES;
    let mut system = System::new(profiles::oltp(cores, 3), CmpNurapid::new(NurapidConfig::paper()));
    system.run(2_000); // warm
    let batch = 10_000u64;
    let reps = 10u64;
    let per_run = ns_per_op(reps, || system.run(batch));
    out.set("system_step_ns", Json::Num(per_run / (batch * cores as u64) as f64));

    // The dispatch pair: mono vs dyn on an identical replay.
    dispatch_rows(&mut out);

    out
}

/// The CI gate on the dispatch pair: the monomorphized step must cost
/// at most `CMP_DISPATCH_FLOOR` (default 0.7) of the dyn-dispatch
/// step, i.e. a >=1.43x speedup. `CMP_DISPATCH_WARN_ONLY=1`
/// downgrades a miss to a warning — the escape hatch for noisy
/// shared runners, mirroring the scaling job's floor overrides.
fn check_dispatch_floor(micro: &Json) {
    let num = |key: &str| micro.get(key).and_then(Json::as_f64).expect("dispatch row");
    let (mono, dyn_ns) = (num("system_step_mono_ns"), num("system_step_dyn_ns"));
    let floor: f64 =
        std::env::var("CMP_DISPATCH_FLOOR").ok().and_then(|s| s.parse().ok()).unwrap_or(0.7);
    if mono <= floor * dyn_ns {
        return;
    }
    let msg = format!(
        "dispatch floor missed: system_step_mono_ns {mono:.2} > {floor} * \
         system_step_dyn_ns {dyn_ns:.2}"
    );
    if std::env::var("CMP_DISPATCH_WARN_ONLY").is_ok_and(|v| v == "1") {
        eprintln!("warning: {msg}");
    } else {
        eprintln!("error: {msg} (set CMP_DISPATCH_WARN_ONLY=1 to downgrade)");
        std::process::exit(1);
    }
}

/// Re-runs every pair through [`run`] over [`build_org`]'s
/// `Box<dyn CacheOrg>` — the path custom orgs take. This is the
/// dyn-dispatch baseline the sweep speedup is reported
/// against, measured in the same process invocation.
fn dyn_sequential_sweep(
    unique: &[(WorkloadId, OrgKind)],
    cfg: &RunConfig,
) -> (f64, Vec<RunResult>) {
    let t0 = Instant::now();
    let results = unique
        .iter()
        .map(|&(wl, kind)| match wl {
            WorkloadId::Multithreaded(n) => {
                run(ok_or_exit(try_multithreaded_workload(n, cfg.seed)), build_org(kind), cfg)
            }
            WorkloadId::Mix(n) => {
                run(ok_or_exit(try_mix_workload(n, cfg.seed)), build_org(kind), cfg)
            }
            // Figure sweeps contain no spec pairs; run one anyway (on
            // its own machine) rather than crash the benchmark.
            WorkloadId::Spec(s) => s.spec.simulate(kind, cfg),
        })
        .collect();
    (t0.elapsed().as_secs_f64() * 1e3, results)
}

fn main() {
    // Defaults to `quick`, the sizing the checked-in report history
    // was recorded with.
    let cfg = parse_config(std::env::args().nth(1).as_deref(), RunConfig::quick());
    let submitted = figures::pairs::all();
    let mut seen = HashSet::new();
    let unique: Vec<_> = submitted.iter().copied().filter(|p| seen.insert(*p)).collect();

    // The monomorphized sequential sweep through the same memoizing
    // Lab the figure harnesses use, best-of-3 (a fresh Lab per rep so
    // the memo cache never short-circuits a timed run; the min
    // discards scheduler noise and the first rep's one-time Zipf
    // table construction).
    let mut lab = Lab::new(cfg);
    let mut sweep_ms = f64::INFINITY;
    let mut per_pair = Vec::new();
    for rep in 0..3 {
        let mut rep_lab = Lab::new(cfg);
        let mut rep_pairs = Vec::new();
        let t0 = Instant::now();
        for &(wl, kind) in &unique {
            let t = Instant::now();
            ok_or_exit(rep_lab.try_result(wl, kind).map(|_| ()));
            rep_pairs.push((wl, kind, t.elapsed().as_secs_f64() * 1e3));
        }
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if ms < sweep_ms {
            sweep_ms = ms;
            per_pair = rep_pairs;
        }
        if rep == 0 {
            lab = rep_lab; // keep one populated lab for the identity check
        }
    }

    // The dyn-dispatch baseline, best-of-3 in the same process, and
    // the bit-identity check: the monomorphized fast path must be a
    // pure transcription, not a different simulation.
    let mut dyn_ms = f64::INFINITY;
    let mut dyn_results = Vec::new();
    for _ in 0..3 {
        let (ms, results) = dyn_sequential_sweep(&unique, &cfg);
        if ms < dyn_ms {
            dyn_ms = ms;
        }
        dyn_results = results;
    }
    for (&(wl, kind), dyn_result) in unique.iter().zip(&dyn_results) {
        let mono_result = ok_or_exit(lab.try_result(wl, kind)).clone();
        assert_eq!(
            mono_result,
            *dyn_result,
            "mono/dyn mismatch on ({}, {})",
            wl.name(),
            kind.name()
        );
    }
    let speedup = dyn_ms / sweep_ms;

    let mut report = Json::obj();
    let mut config = Json::obj();
    config.set("warmup_accesses", Json::Num(cfg.warmup_accesses as f64));
    config.set("measure_accesses", Json::Num(cfg.measure_accesses as f64));
    config.set("seed", Json::Num(cfg.seed as f64));
    report.set("config", config);
    report.set("pairs", Json::Num(unique.len() as f64));
    report.set("sweep_ms", Json::Num(sweep_ms));
    report.set("baseline_sequential_ms", Json::Num(dyn_ms));
    report.set("speedup_vs_baseline", Json::Num(speedup));
    let micro = microbenches();
    check_dispatch_floor(&micro);
    report.set("microbench", micro);
    let rows = per_pair
        .iter()
        .map(|(wl, kind, ms)| {
            let mut row = Json::obj();
            row.set("workload", Json::Str(wl.name().to_string()));
            row.set("org", Json::Str(kind.name().to_string()));
            row.set("ms", Json::Num((ms * 1000.0).round() / 1000.0));
            row
        })
        .collect();
    report.set("per_pair", Json::Arr(rows));
    println!("{report}");
    ok_or_exit(cmp_bench::obs_report::write_report(REPORT_PATH, &report));
    ok_or_exit(cmp_bench::obs_report::export_if_enabled().map(|_| ()));

    eprintln!(
        "{} pairs: {sweep_ms:.0} ms mono vs {dyn_ms:.0} ms dyn (same run, bit-identical): {speedup:.2}x",
        unique.len()
    );
}
