//! Capacity stealing on an asymmetric multiprogrammed mix: cores
//! running working sets larger than their private share spill into
//! the d-groups of cores running tiny ones. The demotion policies
//! place the overflow in the neighbours' unused frames.
//!
//! ```text
//! cargo run --release --example capacity_stealing
//! ```

use nurapid_suite::cache::{CacheOrg, InvalScratch};
use nurapid_suite::mem::CoreId;
use nurapid_suite::nurapid::{CmpNurapid, NurapidConfig};
use nurapid_suite::sim::{run_workload_mono, try_mix_workload, OrgKind, RunConfig};
use nurapid_suite::trace::TraceSource;

fn main() {
    let cfg = RunConfig::sized(400_000, 600_000, 9);

    // MIX3 pairs apsi and mcf (multi-MB footprints) with gzip and mesa
    // (far under their 2 MB shares) - Table 2's asymmetric case.
    println!("Running MIX3 (apsi, mcf, gzip, mesa) ...\n");
    let mix3 = || try_mix_workload("MIX3", cfg.seed).expect("table 2 mix");
    let shared = run_workload_mono(mix3(), OrgKind::Shared, &cfg);
    let private = run_workload_mono(mix3(), OrgKind::Private, &cfg);
    let nurapid = run_workload_mono(mix3(), OrgKind::Nurapid, &cfg);

    println!("relative performance vs uniform-shared:");
    println!("  private      {:+.1}%", (private.ipc() / shared.ipc() - 1.0) * 100.0);
    println!("  CMP-NuRAPID  {:+.1}%", (nurapid.ipc() / shared.ipc() - 1.0) * 100.0);
    println!(
        "\nmiss rates: shared {:.1}%  private {:.1}%  CMP-NuRAPID {:.1}%",
        shared.l2.miss_fraction().value() * 100.0,
        private.l2.miss_fraction().value() * 100.0,
        nurapid.l2.miss_fraction().value() * 100.0,
    );
    println!("demotions during measurement (capacity-stealing events): {}", nurapid.l2.demotions);

    // Where does the data end up? Drive the cache directly (with a
    // small recent-blocks filter standing in for the L1) and read the
    // ownership map afterwards.
    let mut workload = mix3();
    let names: Vec<&str> = (0..4).map(|c| workload.app(CoreId(c)).name).collect();
    let mut l2 = CmpNurapid::new(NurapidConfig::paper());
    let mut bus = nurapid_suite::coherence::Bus::paper();
    let mut clocks = [0u64; 4];
    let mut inv = InvalScratch::new();
    let mut recent: Vec<std::collections::HashSet<u64>> = vec![Default::default(); 4];
    for _ in 0..1_500_000u32 {
        let i = (0..4).min_by_key(|&i| clocks[i]).expect("four cores");
        let a = workload.next_access(CoreId(i as u8));
        clocks[i] += a.gap as u64 + 3;
        let l2_block = a.addr.block(128);
        if recent[i].len() > 512 {
            recent[i].clear();
        }
        if recent[i].insert(l2_block.0) || a.kind.is_write() {
            let r = l2.access(CoreId(i as u8), l2_block, a.kind, clocks[i], &mut bus, &mut inv);
            clocks[i] += r.latency;
        }
    }

    println!("\nframes owned per (d-group, core):");
    println!("             {:>8} {:>8} {:>8} {:>8}", names[0], names[1], names[2], names[3]);
    for (g, row) in l2.occupancy_by_owner().iter().enumerate() {
        println!(
            "  d-group {}: {:>8} {:>8} {:>8} {:>8}",
            (b'a' + g as u8) as char,
            row[0],
            row[1],
            row[2],
            row[3]
        );
    }
    let occ = l2.dgroup_occupancy();
    println!(
        "\nd-group occupancy: {}",
        occ.iter()
            .enumerate()
            .map(|(g, (used, cap))| format!("{}={}/{}", (b'a' + g as u8) as char, used, cap))
            .collect::<Vec<_>>()
            .join("  ")
    );
    println!(
        "\nReading the rows: each core fills its own d-group first; the\n\
         big-footprint cores (apsi, mcf) also own frames in the d-groups of\n\
         gzip and mesa - that is capacity stealing (Section 3.3)."
    );
}
