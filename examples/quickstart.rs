//! Quickstart: simulate OLTP on CMP-NuRAPID and the two conventional
//! designs, and print the headline comparison.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use nurapid_suite::sim::{run_workload_mono, try_multithreaded_workload, OrgKind, RunConfig};

fn main() {
    // A short run: 100 K warm-up + 200 K measured references per core.
    // Use `RunConfig::paper()` for the paper-scale numbers.
    let cfg = RunConfig::sized(100_000, 200_000, 42);
    let oltp = || try_multithreaded_workload("oltp", cfg.seed).expect("a Table 3 workload");

    println!("Simulating OLTP on a 4-core CMP with an 8 MB L2 ...\n");
    let shared = run_workload_mono(oltp(), OrgKind::Shared, &cfg);
    println!(
        "{:<22} IPC {:.3}   hits {:>5.1}%  misses {:>5.1}%",
        "uniform-shared",
        shared.ipc(),
        shared.l2.hit_fraction().value() * 100.0,
        shared.l2.miss_fraction().value() * 100.0,
    );

    for kind in [OrgKind::Private, OrgKind::Nurapid] {
        let r = run_workload_mono(oltp(), kind, &cfg);
        println!(
            "{:<22} IPC {:.3}   hits {:>5.1}%  misses {:>5.1}%   ({:+.1}% vs shared)",
            kind.label(),
            r.ipc(),
            r.l2.hit_fraction().value() * 100.0,
            r.l2.miss_fraction().value() * 100.0,
            (r.ipc() / shared.ipc() - 1.0) * 100.0,
        );
    }

    println!(
        "\nCMP-NuRAPID combines the shared cache's capacity with the private\n\
         caches' latency: controlled replication avoids duplicate copies of\n\
         read-shared data, in-situ communication removes read-write-sharing\n\
         coherence misses, and capacity stealing places overflow in\n\
         neighbouring d-groups. Run `cargo run --release -p cmp-bench --bin repro -- all`\n\
         to regenerate every table and figure of the paper."
    );
}
