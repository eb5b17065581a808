//! Host-speed calibration.
//!
//! A shared host runs the whole process slower by 10 to 50 % for
//! spells of seconds to minutes, often longer than one run, so no
//! statistic inside a run can filter them out. Much of what a spell
//! does to the simulator it also does to other CPU- and cache-bound
//! code. The benchmark therefore times a fixed kernel of its own before
//! every timed operation and every cold set-up. A simulation workload
//! scales each pass's operation times by the host speed sampled during
//! that pass, and every workload scales its set-up time by the speed
//! sampled between the set-ups. The kernel depends on nothing in the
//! code under test, so the scaling cannot hide a change in the program.
//! Raw values stay printed, and `baseline.json` records the spread of
//! both over the same runs.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Median kernel time, in ms, on the host the baselines were recorded
/// on (a 2-vCPU Xeon VM, quiet). Normalized metrics read as raw ones
/// would there; any constant works for comparing two commits.
pub const REFERENCE_MS: f64 = 0.70;

/// Table entries: 256 KiB, beyond L1 and within L2. Each sample first
/// touches every line, so what the preceding operation evicted does not
/// leak into the timed part. A table larger than L2 tracked some slow
/// spells better, but only part of it stays cached after the warm-up,
/// so its time depended on how much the preceding operation evicted:
/// on the code under test. A pure compute loop tracked no better.
const TABLE_WORDS: usize = 1 << 16;
/// Dependent lookups per sample (~0.7 ms).
const STEPS: usize = 100_000;

/// Samples the host's speed with a fixed chain of dependent lookups
/// and data-dependent branches.
pub struct Calibrator {
    table: Vec<u32>,
    samples_ms: Vec<f64>,
}

impl Calibrator {
    pub fn new() -> Self {
        let mut x: u32 = 0x2545_F491;
        let table = (0..TABLE_WORDS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x
            })
            .collect();
        Calibrator { table, samples_ms: Vec::new() }
    }

    /// Times one run of the kernel.
    pub fn sample(&mut self) {
        let warm = self.table.iter().step_by(16).fold(0u32, |a, &v| a.wrapping_add(v));
        black_box(warm);
        let mask = TABLE_WORDS - 1;
        let mut x: u32 = 0x9E37_79B9;
        let mut acc = 0u64;
        let start = Instant::now();
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            // Each index depends on the previous load: a latency chain.
            let v = self.table[(x as usize ^ acc as usize) & mask];
            acc = acc.wrapping_add(u64::from(v)).rotate_left(7);
            if v & 1 == 1 {
                acc ^= 0x5555_5555;
            }
        }
        black_box(acc);
        self.samples_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }

    pub fn samples(&self) -> usize {
        self.samples_ms.len()
    }

    /// Host speed relative to the reference host over all samples:
    /// above 1 when faster.
    pub fn speed(&self) -> f64 {
        self.speed_over(0..self.samples_ms.len())
    }

    /// Host speed over the samples in `range`. Multiply a time taken
    /// while they were sampled by it, or divide a rate by it, to
    /// normalize.
    pub fn speed_over(&self, range: std::ops::Range<usize>) -> f64 {
        REFERENCE_MS / median(&self.samples_ms[range]).unwrap_or(REFERENCE_MS)
    }
}
