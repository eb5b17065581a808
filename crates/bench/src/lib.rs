#![warn(missing_docs)]

//! Experiment harness for the CMP-NuRAPID reproduction.
//!
//! One function per table/figure of the paper ([`figures`]), driven
//! by one memoizing [`Lab`] so that `repro all` reuses simulation
//! runs across figures. The lab simulates a pair on demand or fans a
//! batch across worker threads; a batch job that panics or overruns
//! its deadline is quarantined on its first attempt with a one-line
//! replay request ([`sweep`]). Binaries under `src/bin/` print each
//! experiment in the paper's layout together with the paper's
//! reported values for side-by-side comparison:
//!
//! ```text
//! cargo run --release -p cmp-bench --bin repro -- table1
//! cargo run --release -p cmp-bench --bin repro -- fig5  # ... fig6..fig12
//! cargo run --release -p cmp-bench --bin repro -- all   # everything
//! cargo run --release -p cmp-bench --bin ablations      # design-choice studies
//! ```
//!
//! The binaries take an optional sizing argument `[quick|paper|<refs>]`
//! ([`parse_config`]; `repro` reads it after the entry name): `quick`
//! is a fast low-fidelity pass (CI smoke), and most binaries default
//! to the full paper-scale configuration.

pub mod figures;
pub mod journal;
pub mod json;
pub mod lab;
pub mod obs_report;
pub mod pool;
pub mod scaling;
pub mod shard;
pub mod spec;
pub mod sweep;
pub mod table;

pub use journal::{Journal, FSYNC_EVERY_ENV, JOURNAL_ENV};
pub use json::Json;
pub use lab::{BatchPlan, BatchSlot, Lab, Pair, PairTiming, RanBatch, ResultSource, WorkloadId};
pub use obs_report::OBS_REPORT_PATH;
pub use pool::{CancelToken, JobError};
pub use scaling::{run_scaling, ScalingReport, ScalingRow};
pub use shard::{
    run_sharded, KillSchedule, KillSpec, MultiShardReport, ShardOptions, ShardSlot, ShardStats,
};
pub use spec::{InternedSpec, ScenarioSpec};
pub use sweep::{Quarantined, Resilience, SweepReport};
pub use table::TextTable;

use cmp_sim::RunConfig;

/// Parses a sizing argument `[quick|paper|<refs>]`: `<refs>` measured
/// references per core after `<refs>/2` of warm-up, at the paper seed;
/// no argument means `default`. Exits 2 with usage on anything else.
pub fn parse_config(arg: Option<&str>, default: RunConfig) -> RunConfig {
    match arg {
        None => default,
        Some("quick") => RunConfig::quick(),
        Some("paper") => RunConfig::paper(),
        Some(n) => {
            let measure: u64 = n.parse().unwrap_or_else(|_| {
                eprintln!("usage: <bin> [quick|paper|<refs>]");
                std::process::exit(2);
            });
            RunConfig::sized(measure / 2, measure, RunConfig::paper().seed)
        }
    }
}

/// The common binary CLI: [`parse_config`] over the first argument,
/// defaulting to the paper-scale configuration.
pub fn config_from_args() -> RunConfig {
    parse_config(std::env::args().nth(1).as_deref(), RunConfig::paper())
}

/// Unwraps a runner result in a binary: prints the error and exits
/// with status 2 instead of panicking with a backtrace.
pub fn ok_or_exit<T>(r: Result<T, cmp_sim::SimError>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// The five multithreaded workloads in the paper's order.
pub const MULTITHREADED: [&str; 5] = ["oltp", "apache", "specjbb", "ocean", "barnes"];

/// The three commercial workloads (the headline average).
pub const COMMERCIAL: [&str; 3] = ["oltp", "apache", "specjbb"];

/// The four multiprogrammed mixes.
pub const MIXES: [&str; 4] = ["MIX1", "MIX2", "MIX3", "MIX4"];
