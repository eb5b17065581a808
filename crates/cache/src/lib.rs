#![warn(missing_docs)]

//! Cache structures and baseline L2 organizations.
//!
//! This crate provides the building blocks every cache organization in
//! the reproduction is made of, and the four baselines the paper
//! compares CMP-NuRAPID against:
//!
//! * [`lru`] — per-set true-LRU recency tracking;
//! * [`tag_array`] — a generic set-associative tag array with
//!   pluggable per-entry payloads and caller-controlled victim
//!   selection;
//! * [`holders`] — the per-core tag arrays of a snoopy organization
//!   behind a holder summary, so a snoop looks up only the cores that
//!   may hold the block;
//! * [`org`] — the [`CacheOrg`] trait the system simulator drives,
//!   plus the access classification ([`AccessClass`]) and statistics
//!   ([`OrgStats`]) shared by every organization; the trait also
//!   carries the audit hooks (`try_access`, `audit`,
//!   `inject_tag_fault`) the `cmp-audit` harness drives;
//! * [`violation`] — the structured [`Violation`] record those hooks
//!   report instead of panicking;
//! * [`shared`] — the **uniform-shared** 8 MB cache (59-cycle hits)
//!   and the **ideal** cache (shared capacity at private latency,
//!   Section 5.1.1's upper bound);
//! * [`private_mesi`] — four **private** 2 MB caches kept coherent
//!   with snoopy MESI, including the Figure 7 reuse trackers;
//! * [`snuca`] — **CMP-SNUCA**, the non-uniform-shared banked
//!   baseline from Beckmann & Wood;
//! * [`dnuca`] — **CMP-DNUCA** with gradual migration, implemented to
//!   reproduce the paper's justification for excluding it (sharers
//!   drag the block to the middle);
//! * [`cnuca`] — **CMP-CNUCA**, a compressed banked shared cache
//!   (YACC-style, arXiv:2201.00774) reachable from scenario specs.

pub mod cnuca;
pub mod dnuca;
pub mod holders;
pub mod lru;
pub mod org;
pub mod private_mesi;
pub mod shared;
pub mod snuca;
pub mod tag_array;
pub mod violation;

pub use cnuca::Cnuca;
pub use dnuca::Dnuca;
pub use holders::CoreTags;
pub use org::{AccessClass, AccessResponse, CacheOrg, CollectedResponse, InvalScratch, OrgStats};
pub use private_mesi::PrivateMesi;
pub use shared::UniformShared;
pub use snuca::Snuca;
pub use tag_array::TagArray;
pub use violation::Violation;
