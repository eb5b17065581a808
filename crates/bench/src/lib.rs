#![warn(missing_docs)]

//! Experiment harness for the CMP-NuRAPID reproduction.
//!
//! One function per table/figure of the paper ([`figures`]) and per
//! study beyond them ([`studies`]), listed in one table
//! ([`figures::ENTRIES`]) and driven by one memoizing [`Lab`] so that
//! `repro all` reuses simulation
//! runs across figures. The lab simulates a pair on demand or fans a
//! batch across worker threads; a batch job that panics or overruns
//! its deadline is quarantined on its first attempt with a one-line
//! replay request ([`sweep`]). The `repro` binary prints each
//! experiment in the paper's layout together with the paper's
//! reported values for side-by-side comparison:
//!
//! ```text
//! cargo run --release -p cmp-bench --bin repro -- table1
//! cargo run --release -p cmp-bench --bin repro -- fig5       # ... fig6..fig12
//! cargo run --release -p cmp-bench --bin repro -- ablations  # design-choice studies
//! cargo run --release -p cmp-bench --bin repro -- all        # everything
//! ```
//!
//! The binaries take an optional sizing argument `[quick|paper|<refs>]`
//! ([`parse_config`]; `repro` reads it after the entry name): `quick`
//! is a fast low-fidelity pass (CI smoke), and the default is the
//! full paper-scale configuration.

pub mod figures;
pub mod journal;
pub mod json;
pub mod lab;
pub mod obs_report;
pub mod pool;
pub mod scaling;
pub mod shard;
pub mod spec;
pub mod studies;
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

/// Parses a sizing argument `[quick|paper|<refs>]`: `<refs>` (at
/// least 1) measured references per core after `<refs>/2` of warm-up,
/// at the paper seed; no argument means `default`. Exits 2 with usage
/// on anything else, `0` included: a run that measures nothing would
/// print ratios of zero cycles.
pub fn parse_config(arg: Option<&str>, default: RunConfig) -> RunConfig {
    match arg {
        None => default,
        Some("quick") => RunConfig::quick(),
        Some("paper") => RunConfig::paper(),
        Some(n) => match n.parse::<u64>() {
            Ok(measure) if measure > 0 => {
                RunConfig::sized(measure / 2, measure, RunConfig::paper().seed)
            }
            _ => {
                eprintln!("usage: <bin> [quick|paper|<refs>]");
                std::process::exit(2);
            }
        },
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
