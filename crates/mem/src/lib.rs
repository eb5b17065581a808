#![warn(missing_docs)]

//! Foundational types for the CMP-NuRAPID reproduction.
//!
//! This crate holds the vocabulary shared by every other crate in the
//! workspace: physical addresses and cache-block addresses, core
//! identifiers, cycle counts, cache geometry math, a deterministic
//! random-number generator (so every experiment is exactly
//! reproducible), a Zipf sampler for workload synthesis, and the
//! statistics containers the evaluation harness aggregates.
//!
//! # Example
//!
//! ```
//! use cmp_mem::{Addr, CacheGeometry, CoreId};
//!
//! let geom = CacheGeometry::new(2 * 1024 * 1024, 128, 8);
//! assert_eq!(geom.num_sets(), 2048);
//! let block = Addr(0x4_0080).block(geom.block_bytes());
//! assert_eq!(geom.set_of(block), 0x4_0080 >> 7 & 2047);
//! let p0 = CoreId(0);
//! assert_eq!(p0.index(), 0);
//! ```

pub mod addr;
pub mod geometry;
pub mod rng;
pub mod stats;
pub mod storage;

pub use addr::{AccessKind, Addr, BlockAddr, CoreId, Cycle};
pub use geometry::CacheGeometry;
pub use rng::{zipf_interned_distributions, Rng, WeightedTable, Zipf};
pub use stats::{Fraction, ReuseBucket, ReuseHistogram};
pub use storage::{L2Vec, Storage};

/// Number of cores in the paper's evaluated configuration (Section 4).
///
/// The library itself is generic over the core count; this constant is
/// the default used by experiment configurations.
pub const PAPER_CORES: usize = 4;

/// Cache-block size of the paper's L2 configurations, in bytes.
pub const L2_BLOCK_BYTES: usize = 128;

/// Cache-block size of the paper's L1 configurations, in bytes.
pub const L1_BLOCK_BYTES: usize = 64;

/// Total on-chip L2 capacity evaluated by the paper, in bytes (8 MB).
pub const L2_TOTAL_BYTES: usize = 8 * 1024 * 1024;

/// Main-memory access latency in cycles (Section 4.1).
pub const MEMORY_LATENCY: Cycle = 300;
