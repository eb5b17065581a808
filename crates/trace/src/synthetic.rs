//! The parameterized multithreaded workload generator.
//!
//! Two-level structure, mirroring how real workloads look to a cache
//! hierarchy:
//!
//! * a per-core **hot window** — a ring of recently touched blocks
//!   re-referenced with high probability. This is the short-term
//!   locality the 64 KB L1s absorb; its size and re-reference
//!   probability calibrate the L1 hit rate and hence how
//!   memory-bound the workload is;
//! * **cold draws** — the L2-relevant references, split between a
//!   private region (Zipf popularity), a static read-only shared pool
//!   that every core of a sharing group reads (three popularity
//!   classes, hot, warm and cold: a draw picks a class by its weight,
//!   then a block of it uniformly; blocks are never retired, so the
//!   pool's size and class weights shape Figure 7a's
//!   reuse-before-replacement histogram), a streaming
//!   component (touch-once blocks, the 0-reuse population), and
//!   read-write-shared communication objects with a probabilistic
//!   writer (readers accumulate 2–5 reads between writes, Figure 7b).

use cmp_mem::{AccessKind, Addr, CoreId, Rng, WeightedTable, Zipf};

use crate::access::{Access, Region, TraceSource};
use crate::profiles::WorkloadParams;

/// A core's in-progress visit to a communication object: the planned
/// sequence of actions (migratory read-modify-write visits are
/// `[R, W, R...]`; consumer visits are `[R; k]`).
#[derive(Clone, Debug)]
struct RwsVisit {
    object: usize,
    /// Remaining actions, executed back to front.
    actions: Vec<AccessKind>,
}

/// Synthesizes the multithreaded workloads of Table 3. See the
/// module docs for the model.
///
/// # Example
///
/// ```
/// use cmp_mem::CoreId;
/// use cmp_trace::{profiles, SyntheticWorkload, TraceSource};
///
/// let mut w = SyntheticWorkload::new(profiles::apache_params(), 4, 1);
/// for _ in 0..100 {
///     let a = w.next_access(CoreId(1));
///     assert!(a.addr.0 > 0);
/// }
/// ```
pub struct SyntheticWorkload {
    params: WorkloadParams,
    cores: usize,
    /// Cores per sharing group (Yavits et al.'s sharing degree,
    /// arXiv:1602.01329): cores in the same group share one ROS pool
    /// and one set of communication objects; different groups use
    /// disjoint ones. `sharing_degree == cores` (the default) is the
    /// paper's fully shared machine.
    sharing_degree: usize,
    rngs: Vec<Rng>,
    private_zipf: Zipf,
    /// Precomputed private/ROS/RWS mix (draws identically to
    /// `Rng::pick_weighted` over the same weights, without re-summing
    /// them on every reference).
    mix: WeightedTable,
    /// Precomputed ROS popularity-class table, same rationale.
    ros_classes: WeightedTable,
    rws_visit: Vec<Option<RwsVisit>>,
    /// Ring of each core's recently visited objects; revisits draw
    /// from here. The ring's size spaces revisits beyond the L1's
    /// retention so the extra reuses are visible at the L2.
    rws_recent: Vec<Vec<usize>>,
    rws_recent_cursor: Vec<usize>,
    stream_cursor: Vec<u64>,
    hot: Vec<Vec<(Addr, AccessKind)>>,
    hot_cursor: Vec<usize>,
}

impl SyntheticWorkload {
    /// Creates the generator for `cores` cores with a deterministic
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or the parameters are degenerate
    /// (zero-sized regions with nonzero weights).
    pub fn new(params: WorkloadParams, cores: usize, seed: u64) -> Self {
        Self::with_sharing_degree(params, cores, seed, cores)
    }

    /// Like [`SyntheticWorkload::new`], but partitions the cores into
    /// sharing groups of `sharing_degree` cores each. Group 0's
    /// shared regions are identical to the default generator's, so
    /// `sharing_degree == cores` reproduces [`SyntheticWorkload::new`]
    /// bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero, `sharing_degree` is zero or does
    /// not divide `cores`, or the parameters are degenerate.
    pub fn with_sharing_degree(
        params: WorkloadParams,
        cores: usize,
        seed: u64,
        sharing_degree: usize,
    ) -> Self {
        assert!(cores > 0, "at least one core required");
        assert!(
            sharing_degree > 0 && cores.is_multiple_of(sharing_degree),
            "sharing degree must divide the core count"
        );
        params.validate();
        let mut root = Rng::new(seed ^ 0x5711_7E71C);
        let rngs: Vec<Rng> = (0..cores).map(|_| root.fork()).collect();
        SyntheticWorkload {
            private_zipf: Zipf::new(params.private_blocks.max(1), params.private_zipf),
            mix: WeightedTable::new(&[params.weight_private, params.weight_ros, params.weight_rws]),
            ros_classes: params.ros_class_table(),
            rws_visit: vec![None; cores],
            rws_recent: vec![Vec::new(); cores],
            rws_recent_cursor: vec![0; cores],
            stream_cursor: vec![0; cores],
            hot: vec![Vec::new(); cores],
            hot_cursor: vec![0; cores],
            params,
            cores,
            sharing_degree,
            rngs,
        }
    }

    /// The parameters in use.
    pub fn params(&self) -> &WorkloadParams {
        &self.params
    }

    /// Cores per sharing group.
    pub fn sharing_degree(&self) -> usize {
        self.sharing_degree
    }

    /// The sharing group `core` belongs to.
    fn group(&self, core: usize) -> u64 {
        (core / self.sharing_degree) as u64
    }

    fn gap(&mut self, core: usize) -> u32 {
        // Uniform on [0, 2*mean]: mean matches, variance is plenty.
        self.rngs[core].gen_range(2 * self.params.mean_gap as u64 + 1) as u32
    }

    /// Remembers a cold access in the core's hot window.
    fn remember(&mut self, core: usize, addr: Addr, kind: AccessKind) {
        let ring = &mut self.hot[core];
        if ring.len() < self.params.hot_window {
            ring.push((addr, kind));
        } else if self.params.hot_window > 0 {
            let at = self.hot_cursor[core] % self.params.hot_window;
            ring[at] = (addr, kind);
            self.hot_cursor[core] += 1;
        }
    }

    fn private_access(&mut self, core: usize) -> (Addr, AccessKind) {
        let block = self.private_zipf.sample(&mut self.rngs[core]) as u64;
        let kind = if self.rngs[core].gen_bool(self.params.private_write_frac) {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        (Region::Private(CoreId(core as u8)).block_addr(block), kind)
    }

    fn ros_access(&mut self, core: usize) -> (Addr, AccessKind) {
        if self.rngs[core].gen_bool(self.params.ros_stream_frac) {
            // A fresh block, never touched again: the 0-reuse
            // population of Figure 7a.
            self.stream_cursor[core] += 1;
            let addr = Region::Streaming(CoreId(core as u8)).block_addr(self.stream_cursor[core]);
            return (addr, AccessKind::Read);
        }
        let block = self.params.sample_ros_block_with(&self.ros_classes, &mut self.rngs[core]);
        // Disjoint pool per sharing group: group g's pool starts at
        // g × pool size. Group 0 (and hence full sharing) is offset 0.
        let offset = self.group(core) * self.params.ros_pool_blocks() as u64;
        (Region::ReadOnlyShared.block_addr(offset + block), AccessKind::Read)
    }

    fn rws_access(&mut self, core: usize) -> (Addr, AccessKind) {
        // Continue the in-progress visit, or start a new one.
        if self.rws_visit[core].as_ref().is_none_or(|v| v.actions.is_empty()) {
            let rng = &mut self.rngs[core];
            // Revisit affinity: return to a recently visited object
            // with probability rws_revisit_prob. Drawing from a ring
            // of past visits (rather than the last object) spaces the
            // revisit far enough for its reuses to reach the L2.
            const RING: usize = 192;
            let recent = &mut self.rws_recent[core];
            let object = if !recent.is_empty() && rng.gen_bool(self.params.rws_revisit_prob) {
                recent[rng.gen_index(recent.len())]
            } else {
                let o = rng.gen_index(self.params.rws_objects);
                if recent.len() < RING {
                    recent.push(o);
                } else {
                    let at = self.rws_recent_cursor[core] % RING;
                    recent[at] = o;
                    self.rws_recent_cursor[core] += 1;
                }
                o
            };
            let (lo, hi) = self.params.rws_reader_burst;
            let extra_reads = lo + rng.gen_range((hi - lo + 1) as u64) as u32;
            let modify = rng.gen_bool(self.params.rws_modify_prob);
            // Reuse the core's visit buffer: planning a visit is a
            // steady-state event and must not allocate.
            let visit = self.rws_visit[core]
                .get_or_insert_with(|| RwsVisit { object: 0, actions: Vec::new() });
            visit.object = object;
            // Actions are popped from the back.
            visit.actions.clear();
            visit.actions.resize(extra_reads as usize, AccessKind::Read);
            if modify {
                // Migratory visit: read-modify-write, then re-reads.
                visit.actions.push(AccessKind::Write);
            }
            visit.actions.push(AccessKind::Read);
        }
        // Communication objects are per sharing group, offset like the
        // ROS pool.
        let offset = self.group(core) * self.params.rws_objects as u64;
        let visit = self.rws_visit[core].as_mut().expect("visit planned above");
        let kind = visit.actions.pop().expect("nonempty visit");
        (Region::ReadWriteShared.block_addr(offset + visit.object as u64), kind)
    }
}

impl TraceSource for SyntheticWorkload {
    fn next_access(&mut self, core: CoreId) -> Access {
        let c = core.index();
        assert!(c < self.cores, "core out of range");
        // Hot-window re-reference: the short-term locality the L1
        // absorbs.
        if !self.hot[c].is_empty() && self.rngs[c].gen_bool(self.params.hot_prob) {
            let pick = self.rngs[c].gen_index(self.hot[c].len());
            let (addr, kind) = self.hot[c][pick];
            return Access { addr, kind, gap: self.gap(c) };
        }
        let (addr, kind) = match self.mix.pick(&mut self.rngs[c]) {
            0 => self.private_access(c),
            1 => self.ros_access(c),
            _ => {
                // Communication data has transient reuse, modelled
                // explicitly by the visit plans — it does not join
                // the hot window (a write replayed from the window
                // would multiply write-through traffic unrealistically).
                let (addr, kind) = self.rws_access(c);
                return Access { addr, kind, gap: self.gap(c) };
            }
        };
        self.remember(c, addr, kind);
        Access { addr, kind, gap: self.gap(c) }
    }

    fn name(&self) -> &str {
        &self.params.name
    }

    fn cores(&self) -> usize {
        self.cores
    }

    fn code_region(&self, _core: CoreId) -> Option<(Addr, u64, f64)> {
        if self.params.code_bytes == 0 {
            return None;
        }
        // Multithreaded workloads execute one shared binary.
        Some((
            Region::Code(Region::SHARED_CODE).block_addr(0),
            self.params.code_bytes,
            self.params.code_jump_prob,
        ))
    }
}

impl std::fmt::Debug for SyntheticWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SyntheticWorkload")
            .field("name", &self.params.name)
            .field("cores", &self.cores)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;
    use std::collections::HashMap;

    fn histogram(w: &mut SyntheticWorkload, n: usize) -> HashMap<&'static str, usize> {
        let mut h: HashMap<&'static str, usize> = HashMap::new();
        let cores = w.cores();
        for i in 0..n {
            let a = w.next_access(CoreId((i % cores) as u8));
            let key = match Region::of(a.addr).expect("known region") {
                Region::Private(_) => "private",
                Region::ReadOnlyShared => "ros",
                Region::Streaming(_) => "stream",
                Region::ReadWriteShared => "rws",
                Region::Code(_) => "code",
            };
            *h.entry(key).or_default() += 1;
        }
        h
    }

    #[test]
    fn region_mix_tracks_weights() {
        // Private and ROS re-reference through the hot window in
        // proportion to the cold mix; RWS stays cold-only (its reuse
        // is modelled by visit plans). So private/ROS track their
        // weight ratio and RWS appears at roughly the cold rate.
        let mut w = SyntheticWorkload::new(profiles::oltp_params(), 4, 3);
        let h = histogram(&mut w, 120_000);
        let p = w.params().clone();
        let priv_n = h["private"] as f64;
        let ros_n =
            (h.get("ros").copied().unwrap_or(0) + h.get("stream").copied().unwrap_or(0)) as f64;
        let ratio = priv_n / ros_n;
        let expect = p.weight_private / p.weight_ros;
        assert!((ratio - expect).abs() < expect * 0.35, "private/ros ratio {ratio} vs {expect}");
        let rws_n = h.get("rws").copied().unwrap_or(0);
        assert!(rws_n > 0, "RWS region must appear");
    }

    #[test]
    fn hot_window_concentrates_references() {
        // With hot_prob p, a large fraction of consecutive references
        // must revisit a small set of blocks (what the L1 absorbs).
        let mut w = SyntheticWorkload::new(profiles::oltp_params(), 4, 5);
        let mut counts: HashMap<u64, usize> = HashMap::new();
        const N: usize = 20_000;
        for _ in 0..N {
            let a = w.next_access(CoreId(0));
            *counts.entry(a.addr.0).or_default() += 1;
        }
        let repeats: usize = counts.values().map(|c| c - 1).sum();
        let frac = repeats as f64 / N as f64;
        assert!(frac > 0.5, "expected strong short-term locality, got {frac}");
    }

    #[test]
    fn rws_reads_dominate_writes() {
        let mut w = SyntheticWorkload::new(profiles::oltp_params(), 4, 9);
        let cores = w.cores();
        let (mut reads, mut writes) = (0u64, 0u64);
        for i in 0..60_000 {
            let a = w.next_access(CoreId((i % cores) as u8));
            if Region::of(a.addr) == Some(Region::ReadWriteShared) {
                if a.kind.is_write() {
                    writes += 1;
                } else {
                    reads += 1;
                }
            }
        }
        assert!(reads > 2 * writes, "reads {reads} vs writes {writes}");
        assert!(writes > 0);
    }

    #[test]
    fn streaming_blocks_are_never_repeated_by_cold_draws() {
        let mut w = SyntheticWorkload::new(profiles::apache_params(), 4, 5);
        let cores = w.cores();
        let mut prev = std::collections::HashSet::new();
        let mut repeats = 0u32;
        for i in 0..50_000 {
            let a = w.next_access(CoreId((i % cores) as u8));
            if matches!(Region::of(a.addr), Some(Region::Streaming(_))) && !prev.insert(a.addr) {
                repeats += 1; // hot-window re-references only
            }
        }
        assert!(!prev.is_empty(), "apache must have a streaming component");
        // Hot-window repeats exist but cold draws never reuse a
        // streaming block, so repeats stay a bounded multiple.
        assert!((repeats as usize) < prev.len() * 60);
    }

    #[test]
    fn ros_pool_is_static_and_bounded() {
        let mut p = profiles::apache_params();
        p.hot_prob = 0.0;
        p.weight_private = 0.0;
        p.weight_ros = 1.0;
        p.weight_rws = 0.0;
        p.ros_stream_frac = 0.0;
        let pool = p.ros_pool_blocks();
        let mut w = SyntheticWorkload::new(p, 2, 7);
        let cores = w.cores();
        let mut blocks = std::collections::HashSet::new();
        for i in 0..50_000 {
            let a = w.next_access(CoreId((i % cores) as u8));
            blocks.insert(a.addr);
        }
        assert!(blocks.len() <= pool, "pool must be bounded: {} > {pool}", blocks.len());
        assert!(blocks.len() > pool / 4, "pool should be well covered: {}", blocks.len());
    }

    #[test]
    fn deterministic_for_seed() {
        let mut a = SyntheticWorkload::new(profiles::specjbb_params(), 4, 77);
        let mut b = SyntheticWorkload::new(profiles::specjbb_params(), 4, 77);
        let cores = a.cores();
        for i in 0..1_000 {
            let core = CoreId((i % cores) as u8);
            assert_eq!(a.next_access(core), b.next_access(core));
        }
    }

    #[test]
    fn gaps_center_on_mean() {
        let mut w = SyntheticWorkload::new(profiles::ocean_params(), 4, 1);
        let cores = w.cores();
        let n = 20_000;
        let total: u64 = (0..n).map(|i| w.next_access(CoreId((i % cores) as u8)).gap as u64).sum();
        let mean = total as f64 / n as f64;
        let expect = w.params().mean_gap as f64;
        assert!((mean - expect).abs() < expect * 0.2 + 0.5, "mean gap {mean} vs {expect}");
    }

    #[test]
    fn ros_region_is_read_only() {
        let mut w = SyntheticWorkload::new(profiles::apache_params(), 4, 2);
        let cores = w.cores();
        for i in 0..30_000 {
            let a = w.next_access(CoreId((i % cores) as u8));
            if matches!(Region::of(a.addr), Some(Region::ReadOnlyShared | Region::Streaming(_))) {
                assert!(!a.kind.is_write(), "ROS region written");
            }
        }
    }

    #[test]
    fn cores_share_ros_and_rws_blocks() {
        let mut w = SyntheticWorkload::new(profiles::oltp_params(), 4, 8);
        let cores = w.cores();
        let mut ros_by_core: Vec<std::collections::HashSet<u64>> = vec![Default::default(); cores];
        for i in 0..400_000 {
            let core = i % cores;
            let a = w.next_access(CoreId(core as u8));
            if Region::of(a.addr) == Some(Region::ReadWriteShared) {
                ros_by_core[core].insert(a.addr.0);
            }
        }
        let common: Vec<_> =
            ros_by_core[0].iter().filter(|b| ros_by_core[1].contains(*b)).collect();
        assert!(!common.is_empty(), "cores must overlap on communication objects");
    }

    #[test]
    fn every_core_issues_accesses_on_big_machines() {
        // Regression for the `% 4` striping bug: cores 4..N of an
        // 8/16-core workload must produce their own private/streaming
        // traffic, not alias onto cores 0..3.
        for cores in [8usize, 16] {
            let mut w = SyntheticWorkload::new(profiles::oltp_params(), cores, 11);
            let mut private_owner_seen = vec![false; cores];
            for i in 0..(cores * 4_000) {
                let core = i % cores;
                let a = w.next_access(CoreId(core as u8));
                match Region::of(a.addr).expect("known region") {
                    Region::Private(c) | Region::Streaming(c) => {
                        assert_eq!(
                            c.index(),
                            core,
                            "core {core} issued traffic tagged for core {}",
                            c.index()
                        );
                        private_owner_seen[core] = true;
                    }
                    _ => {}
                }
            }
            assert!(
                private_owner_seen.iter().all(|&s| s),
                "every core must issue private traffic at {cores} cores"
            );
        }
    }

    #[test]
    fn full_sharing_degree_is_bit_identical_to_default() {
        let mut a = SyntheticWorkload::new(profiles::oltp_params(), 8, 21);
        let mut b = SyntheticWorkload::with_sharing_degree(profiles::oltp_params(), 8, 21, 8);
        for i in 0..10_000 {
            let core = CoreId((i % 8) as u8);
            assert_eq!(a.next_access(core), b.next_access(core));
        }
    }

    #[test]
    fn sharing_degree_partitions_shared_regions() {
        // Degree 2 on 8 cores: cores 0-1 form group 0, cores 6-7 form
        // group 3. Groups must not overlap on ROS or RWS blocks;
        // cores inside a group must still overlap.
        let mut w = SyntheticWorkload::with_sharing_degree(profiles::oltp_params(), 8, 33, 2);
        let mut shared_by_core: Vec<std::collections::HashSet<u64>> = vec![Default::default(); 8];
        for i in 0..800_000 {
            let core = i % 8;
            let a = w.next_access(CoreId(core as u8));
            if matches!(Region::of(a.addr), Some(Region::ReadWriteShared | Region::ReadOnlyShared))
            {
                shared_by_core[core].insert(a.addr.0);
            }
        }
        assert!(
            shared_by_core[0].intersection(&shared_by_core[1]).next().is_some(),
            "group mates must share"
        );
        assert!(
            shared_by_core[6].intersection(&shared_by_core[7]).next().is_some(),
            "group mates must share"
        );
        for c in 2..8 {
            assert!(
                shared_by_core[0].intersection(&shared_by_core[c]).next().is_none(),
                "cores 0 and {c} are in different groups but overlap"
            );
        }
    }
}
