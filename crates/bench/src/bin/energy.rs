//! Energy comparison across organizations (extension experiment —
//! the ISCA 2005 paper evaluates performance only; the NuRAPID line
//! motivates distance associativity with energy as well).
//!
//! Usage: `energy [quick|paper|REFS]`

use cmp_bench::table::TextTable;
use cmp_bench::{config_from_args, ok_or_exit, Lab, ResultSource, WorkloadId};
use cmp_latency::energy::EnergyModel;
use cmp_sim::{energy_account, OrgKind};

const WORKLOADS: [&str; 2] = ["oltp", "apache"];

fn main() {
    let cfg = config_from_args();
    let model = EnergyModel::paper_70nm();
    // Prefetch the full workload x organization grid across the
    // worker pool before rendering anything.
    let mut lab = Lab::new(cfg);
    let pairs: Vec<_> = WORKLOADS
        .iter()
        .flat_map(|&wl| {
            OrgKind::COMPARISON.into_iter().map(move |k| (WorkloadId::Multithreaded(wl), k))
        })
        .collect();
    ok_or_exit(lab.prefetch(&pairs));
    for wl in WORKLOADS {
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
            let r = ok_or_exit(lab.try_result(WorkloadId::Multithreaded(wl), kind)).clone();
            let e = energy_account(&r, kind, &model);
            if kind == OrgKind::Shared {
                shared_total = e.total_mj();
            }
            t.row(vec![
                kind.label().to_string(),
                format!("{:.2}", e.tag_mj),
                format!("{:.2}", e.data_mj),
                format!("{:.2}", e.bus_mj),
                format!("{:.2}", e.memory_mj),
                format!("{:.2}", e.l1_mj),
                format!(
                    "{:.2} ({:+.0}%)",
                    e.total_mj(),
                    (e.total_mj() / shared_total - 1.0) * 100.0
                ),
                format!("{:.2}", e.per_reference_nj(r.accesses)),
            ]);
        }
        println!("Dynamic energy on {wl} (70 nm model; extension, not in the paper)\n{t}");
    }
    println!(
        "Reading: the uniform-shared cache pays a central tag plus a monolithic\n\
         8 MB array on every access; CMP-NuRAPID pays a small private tag and a\n\
         2 MB d-group, mostly the closest one - the energy argument behind\n\
         distance associativity (Chishti et al., MICRO 2004)."
    );
}
