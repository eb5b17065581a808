//! Property test (via the vendored proptest shim): the lab memo
//! cache never simulates a (workload, organization) pair twice, no
//! matter how single lookups and prefetch batches interleave and no
//! matter the worker count. The lab is instrumented with a
//! simulation counter; after a random op sequence it must equal the
//! number of *unique* pairs touched.

use proptest::prelude::*;

use cmp_bench::{Lab, ResultSource, WorkloadId};
use cmp_sim::{OrgKind, RunConfig};

const WORKLOADS: [WorkloadId; 4] = [
    WorkloadId::Multithreaded("barnes"),
    WorkloadId::Multithreaded("ocean"),
    WorkloadId::Mix("MIX1"),
    WorkloadId::Mix("MIX4"),
];

fn tiny_cfg() -> RunConfig {
    RunConfig::sized(100, 200, 42)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn memo_cache_never_simulates_a_pair_twice(
        ops in proptest::collection::vec((0usize..4, 0usize..8, any::<bool>()), 1..12),
        threads in 1usize..5,
    ) {
        let mut lab = Lab::with_threads(tiny_cfg(), threads);
        let mut unique = std::collections::HashSet::new();
        for (w, o, batch) in ops {
            if batch {
                // A batch op: the pair plus its two organization
                // neighbours (wrapping), submitted with a duplicate.
                let pairs: Vec<_> = (0..3)
                    .map(|d| (WORKLOADS[w], OrgKind::ALL[(o + d) % OrgKind::ALL.len()]))
                    .collect();
                let mut submitted = pairs.clone();
                submitted.push(pairs[0]); // duplicate within the batch
                lab.prefetch(&submitted).unwrap();
                for p in pairs {
                    unique.insert(p);
                }
            } else {
                let pair = (WORKLOADS[w], OrgKind::ALL[o]);
                lab.try_result(pair.0, pair.1).unwrap();
                unique.insert(pair);
            }
        }
        prop_assert_eq!(lab.simulations(), unique.len());
        // And the cache really holds every pair: re-running the whole
        // history costs zero further simulations.
        for &(w, k) in &unique {
            lab.try_result(w, k).unwrap();
        }
        lab.prefetch(&unique.iter().copied().collect::<Vec<_>>()).unwrap();
        prop_assert_eq!(lab.simulations(), unique.len());
    }
}
