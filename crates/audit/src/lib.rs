#![warn(missing_docs)]

//! Audited execution for the CMP-NuRAPID reproduction.
//!
//! The simulator's organizations maintain heavily redundant state —
//! forward/reverse pointer pairs, coherence states cross-checked by
//! snoop wires — and historically defended it with `assert!`s that
//! tear the whole process down. This crate turns that defence into an
//! *audit harness*:
//!
//! * [`AuditedOrg`] wraps any [`cmp_cache::CacheOrg`] and checks every
//!   access against a [`ShadowModel`] (a data-free functional oracle:
//!   last-writer log per block, cross-core) plus the organization's
//!   own structural audit at a configurable cadence;
//! * a deterministic, seeded fault injector ([`FaultSpec`] schedules
//!   applied by the wrapper) corrupts tag state, drops or duplicates
//!   snoop replies, and flips the MESIC dirty signal — the mutation
//!   self-test in `tests/` proves every class is detected;
//! * violations surface as structured [`AuditViolation`] records in a
//!   shared [`ViolationLog`], and serialize into one-line
//!   [`ReplayArtifact`]s that `cmp-sim`'s runner can re-execute
//!   deterministically;
//! * the same seeded-schedule discipline extends to the *lab* layer:
//!   a [`ChaosSchedule`] arms worker panics and job stalls against a
//!   sweep batch so `cmp-bench`'s sweep engine can prove it
//!   quarantines exactly the armed jobs and keeps every other result
//!   bit-identical.

pub mod audited;
pub mod chaos;
pub mod fault;
pub mod replay;
pub mod shadow;

pub use audited::{AuditConfig, AuditViolation, AuditedOrg, InjectionLog, ViolationLog};
pub use chaos::{ChaosEvent, ChaosSchedule, ChaosSpec};
pub use fault::{FaultKind, FaultSpec};
pub use replay::ReplayArtifact;
pub use shadow::ShadowModel;
