//! Regenerates Figure 7 of the paper. Usage: fig7 `[quick|paper|<refs>]`
//!
//! The figure's full (workload, organization) set is prefetched
//! through the parallel lab (`CMP_BENCH_THREADS` workers), then
//! rendered from cache — byte-identical to a sequential run.

use cmp_bench::{config_from_args, figures, ok_or_exit, Lab};

fn main() {
    let mut lab = Lab::new(config_from_args());
    ok_or_exit(lab.prefetch(&figures::pairs::fig7()));
    print!("{}", figures::fig7(&mut lab));
}
