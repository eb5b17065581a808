#![warn(missing_docs)]

//! System simulator for the CMP-NuRAPID reproduction.
//!
//! Drives N in-order cores (CPI = 1 plus memory stalls, one
//! outstanding miss — the paper's core model, Section 4.1) through a
//! pluggable L2 organization:
//!
//! * [`l1`] — per-core 64 KB 2-way L1 data caches with 64 B blocks,
//!   3-cycle latency, L1/L2 inclusion, write-back by default and
//!   write-through for MESIC C-state blocks;
//! * [`system`] — the discrete-event driver: each core has a local
//!   clock, and the core with the smallest clock executes its next
//!   reference (compute gap + L1 access + possible L2/memory access),
//!   so coherence events interleave in global time order;
//! * [`sched`] — picks that core: a linear scan up to 8 cores, an
//!   O(log cores) winner tree above;
//! * [`runner`] — experiment plumbing: builds any of the five L2
//!   organizations by name, runs warm-up + measurement phases, and
//!   returns the statistics the figure harnesses print.
//!
//! # Example
//!
//! ```
//! use cmp_sim::{run_workload_mono, try_multithreaded_workload, OrgKind, RunConfig};
//!
//! // A short OLTP run: the ideal cache (shared capacity at private
//! // latency) beats the uniform-shared cache at any scale.
//! let cfg = RunConfig::sized(2_000, 2_000, 1);
//! let oltp = || try_multithreaded_workload("oltp", cfg.seed).unwrap();
//! let ideal = run_workload_mono(oltp(), OrgKind::Ideal, &cfg);
//! let shared = run_workload_mono(oltp(), OrgKind::Shared, &cfg);
//! assert!(ideal.ipc() > shared.ipc());
//! ```

pub mod audited;
pub mod energy;
pub mod error;
pub mod l1;
pub mod runner;
pub mod sched;
pub mod stopping;
pub mod system;

pub use audited::{run_replay, run_workload_audited, AuditedRunOutcome, ReplayOutcome};
pub use energy::{account as energy_account, EnergyBreakdown};
pub use error::SimError;
pub use l1::{L1Cache, L1Stats};
pub use runner::{
    build_org, build_org_sized, run, run_workload_mono, run_workload_mono_with, try_mix_workload,
    try_multithreaded_workload, try_multithreaded_workload_for, workload_by_name,
    workload_by_name_for, AnyWorkload, OrgKind, RunConfig,
};
pub use stopping::{z_for_confidence, StopInfo, StopMetric, StopRule, Welford};
pub use system::{RunResult, System};
