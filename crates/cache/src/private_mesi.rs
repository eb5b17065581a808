//! The private-cache baseline: per-core 2 MB L2s kept coherent with
//! snoopy MESI.
//!
//! Each core has its own 2 MB, 8-way L2 (10-cycle hits, Table 1). On
//! a miss the request goes on the 32-cycle snoopy bus; if another
//! core's L2 holds the block it supplies it cache-to-cache, otherwise
//! memory does. Misses are classified as in Section 5.1.1: **ROS**
//! when another copy exists in a clean/shared state, **RWS** when a
//! dirty copy exists, **capacity** otherwise.
//!
//! The per-entry reuse counters implement Figure 7: at *replacement*
//! a block that was filled by an ROS miss records its reuse count in
//! the ROS histogram; at *invalidation* a block filled by an RWS miss
//! records into the RWS histogram.

use cmp_coherence::mesi::{self, MesiState};
use cmp_coherence::{Bus, BusTx, SnoopSignals};
use cmp_latency::LatencyBook;
use cmp_mem::{AccessKind, BlockAddr, CacheGeometry, CoreId, Cycle, Rng, Storage};

use crate::holders::CoreTags;
use crate::org::{AccessClass, AccessResponse, CacheOrg, InvalScratch, OrgStats};
use crate::violation::Violation;

/// How a block originally entered a private cache (for Figure 7).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum FillClass {
    /// Filled by a read-only-sharing miss.
    Ros,
    /// Filled by a read-write-sharing miss.
    Rws,
    /// Filled from memory (demand/capacity).
    Demand,
}

#[derive(Clone, Copy, Debug)]
struct PrivEntry {
    state: MesiState,
    reuse: u64,
    fill: FillClass,
}

/// Four private 2 MB MESI caches on a snoopy bus.
///
/// # Example
///
/// ```
/// use cmp_cache::{CacheOrg, InvalScratch, PrivateMesi};
/// use cmp_coherence::Bus;
/// use cmp_latency::LatencyBook;
/// use cmp_mem::{AccessKind, BlockAddr, CoreId};
///
/// let mut l2 = PrivateMesi::paper(&LatencyBook::paper());
/// let mut bus = Bus::paper();
/// let mut inv = InvalScratch::new();
/// l2.access(CoreId(0), BlockAddr(9), AccessKind::Read, 0, &mut bus, &mut inv);
/// let hit = l2.access(CoreId(0), BlockAddr(9), AccessKind::Read, 400, &mut bus, &mut inv);
/// assert_eq!(hit.latency, 10);
/// ```
pub struct PrivateMesi {
    arrays: CoreTags<PrivEntry>,
    tag_latency: Cycle,
    hit_latency: Cycle,
    memory_latency: Cycle,
    stats: OrgStats,
    /// The remote holders of the block in flight, as `(core, set,
    /// way)` in core order: gathered once per bus transaction, read
    /// by the snoop wires and then by the snoop itself.
    remotes: Vec<(CoreId, usize, usize)>,
}

impl PrivateMesi {
    /// Creates per-core private caches with the given geometry and
    /// latencies.
    pub fn new(
        cores: usize,
        geom: CacheGeometry,
        tag_latency: Cycle,
        hit_latency: Cycle,
        memory_latency: Cycle,
    ) -> Self {
        assert!(cores > 0, "at least one core required");
        PrivateMesi {
            arrays: CoreTags::with_storage(
                cores,
                geom,
                Storage::for_l2(cores * geom.capacity_bytes()),
            ),
            tag_latency,
            hit_latency,
            memory_latency,
            stats: OrgStats::default(),
            remotes: Vec::with_capacity(cores),
        }
    }

    /// The paper's configuration: one 2 MB 8-way cache per core.
    pub fn paper(book: &LatencyBook) -> Self {
        Self::sized(book, cmp_mem::L2_TOTAL_BYTES)
    }

    /// Private caches at an explicit *total* capacity, divided evenly
    /// over the cores (rounded to the next power of two).
    pub fn sized(book: &LatencyBook, total_bytes: usize) -> Self {
        PrivateMesi::new(
            book.cores(),
            CacheGeometry::new(
                total_bytes / book.cores().next_power_of_two(),
                cmp_mem::L2_BLOCK_BYTES,
                8,
            ),
            book.private_tag,
            book.private_total,
            book.memory,
        )
    }

    /// MESI state of `block` in `core`'s cache (test/diagnostic hook).
    pub fn state_of(&self, core: CoreId, block: BlockAddr) -> MesiState {
        self.arrays
            .lookup(core, block)
            .and_then(|(set, way)| self.arrays.entry(core, set, way))
            .map_or(MesiState::Invalid, |e| e.payload.state)
    }

    /// Gathers every core other than `requestor` holding `block` into
    /// `remotes`.
    fn gather_remotes(&mut self, requestor: CoreId, block: BlockAddr) {
        self.remotes.clear();
        self.remotes.extend(self.arrays.holders(block).filter(|(c, _, _)| *c != requestor));
    }

    /// Snoop signals of the gathered remote holders.
    fn signals(&self) -> SnoopSignals {
        let mut sig = SnoopSignals::NONE;
        for &(c, set, way) in &self.remotes {
            let state = self.arrays.entry(c, set, way).expect("looked-up entry").payload.state;
            if state.is_valid() {
                sig.shared = true;
                if state.is_dirty() {
                    sig.dirty = true;
                }
            }
        }
        sig
    }

    /// Applies snoop transitions at every gathered remote holder;
    /// returns whether any remote cache supplied the block. Each
    /// transition changes only its own core's array, so the gathered
    /// positions stay valid throughout.
    fn snoop_remotes(&mut self, block: BlockAddr, tx: BusTx, inv: &mut InvalScratch) -> bool {
        let mut supplied = false;
        for i in 0..self.remotes.len() {
            let (c, set, way) = self.remotes[i];
            let state = self.arrays.entry(c, set, way).expect("looked-up entry").payload.state;
            let (next, reply) = mesi::snoop(state, tx);
            if reply.flush {
                supplied = true;
                if state.is_dirty() {
                    // Dirty flush also updates memory.
                    self.stats.writebacks += 1;
                }
            }
            if next == MesiState::Invalid {
                let (_, payload) =
                    self.arrays.evict(c, set, way).expect("invalidated entry present");
                if payload.fill == FillClass::Rws {
                    self.stats.rws_reuse.record(payload.reuse);
                }
            } else {
                self.arrays.entry_mut(c, set, way).expect("looked-up entry").payload.state = next;
            }
            if reply.invalidate_l1 {
                inv.push(c, block);
            }
        }
        supplied
    }

    /// Makes room in `core`'s cache for `block`; returns the L1
    /// inclusion invalidation if a valid victim was evicted.
    fn evict_victim(&mut self, core: CoreId, block: BlockAddr) -> Option<(CoreId, BlockAddr)> {
        let arr = self.arrays.array(core);
        let set = arr.set_of(block);
        let way = arr.victim_by(set, |e| u32::from(e.is_some()));
        let (victim_block, payload) = self.arrays.evict(core, set, way)?;
        if payload.state.is_dirty() {
            self.stats.writebacks += 1;
        }
        match payload.fill {
            FillClass::Ros => self.stats.ros_reuse.record(payload.reuse),
            FillClass::Rws | FillClass::Demand => {}
        }
        if payload.state.is_private() {
            self.stats.evictions_private += 1;
        } else {
            self.stats.evictions_shared += 1;
        }
        Some((core, victim_block))
    }
}

impl CacheOrg for PrivateMesi {
    fn name(&self) -> &'static str {
        "private"
    }

    #[inline]
    fn access(
        &mut self,
        core: CoreId,
        block: BlockAddr,
        kind: AccessKind,
        now: Cycle,
        bus: &mut Bus,
        inv: &mut InvalScratch,
    ) -> AccessResponse {
        match CacheOrg::try_access(self, core, block, kind, now, bus, inv) {
            Ok(resp) => resp,
            Err(v) => panic!("private-MESI protocol violation: {v}"),
        }
    }

    fn try_access(
        &mut self,
        core: CoreId,
        block: BlockAddr,
        kind: AccessKind,
        now: Cycle,
        bus: &mut Bus,
        inv: &mut InvalScratch,
    ) -> Result<AccessResponse, Violation> {
        inv.begin();
        let arr = self.arrays.array(core);
        let set = arr.set_of(block);
        let hit_way = arr.lookup(block);
        let mut resp;
        if let Some(way) = hit_way {
            let state = arr.entry(set, way).expect("hit entry").payload.state;
            debug_assert!(state.is_valid(), "invalid entries are evicted eagerly");
            let action = mesi::processor_access(state, kind, SnoopSignals::NONE);
            let mut latency = self.hit_latency;
            resp = AccessResponse::simple(0, AccessClass::Hit { closest: true });
            if let Some(tx) = action.bus {
                debug_assert_eq!(tx, BusTx::BusUpg, "the only hit-side transaction is an upgrade");
                let grant = bus.transact(tx, now);
                latency = self.tag_latency
                    + grant.stall_from(now)
                    + (self.hit_latency - self.tag_latency);
                self.gather_remotes(core, block);
                self.snoop_remotes(block, tx, inv);
            }
            resp.latency = latency;
            self.arrays.touch(core, set, way);
            let entry = self.arrays.entry_mut(core, set, way).expect("hit entry");
            entry.payload.state = action.next;
            entry.payload.reuse += 1;
        } else {
            // Miss: sample snoop wires (through the bus, so the audit
            // harness's fault plan can tamper with them), classify,
            // transact, fill.
            self.gather_remotes(core, block);
            let signals = bus.sample_signals(self.signals());
            let class = if signals.dirty {
                AccessClass::MissRws
            } else if signals.shared {
                AccessClass::MissRos
            } else {
                AccessClass::MissCapacity
            };
            resp = AccessResponse::simple(0, class);
            let action = mesi::processor_access(MesiState::Invalid, kind, signals);
            let tx = action.bus.expect("misses always use the bus");
            let grant = bus.transact(tx, now);
            let supplied = self.snoop_remotes(block, tx, inv);
            // Consistency of the sampled wires against what the snoop
            // actually did. On BusRd every valid remote copy flushes,
            // so `shared` and `supplied` must agree; on BusRdX a dirty
            // remote copy always flushes.
            if tx == BusTx::BusRd && signals.shared != supplied {
                return Err(Violation::at(
                    "shared-signal-has-supplier",
                    core,
                    block,
                    format!("shared wire ({}) matching a remote supplier", signals.shared),
                    format!("supplied = {supplied}"),
                ));
            }
            if signals.dirty && !supplied {
                return Err(Violation::at(
                    "dirty-signal-has-supplier",
                    core,
                    block,
                    "a dirty remote copy flushing behind an asserted dirty wire",
                    "no remote flush",
                ));
            }
            let transfer = if supplied { self.hit_latency } else { self.memory_latency };
            resp.latency = self.tag_latency + grant.stall_from(now) + transfer;
            if let Some((victim_core, victim_block)) = self.evict_victim(core, block) {
                inv.push(victim_core, victim_block);
            }
            let fill = match class {
                AccessClass::MissRos => FillClass::Ros,
                AccessClass::MissRws => FillClass::Rws,
                _ => FillClass::Demand,
            };
            let arr = self.arrays.array(core);
            let way = arr.victim_by(set, |e| u32::from(e.is_some()));
            debug_assert!(arr.entry(set, way).is_none(), "victim slot was vacated");
            self.arrays.fill(
                core,
                set,
                way,
                block,
                PrivEntry { state: action.next, reuse: 0, fill },
            );
        }
        self.stats.l1_invalidations += inv.len() as u64;
        self.stats.record_class(resp.class);
        Ok(resp)
    }

    fn stats(&self) -> &OrgStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = OrgStats::default();
    }

    fn cores(&self) -> usize {
        self.arrays.cores()
    }

    fn audit(&self) -> Result<(), Violation> {
        self.arrays.check_summary()?;
        // MESI structural redundancy: per block, at most one dirty
        // copy, and a private-state (M/E) copy is the *only* copy.
        let mut holders: std::collections::HashMap<BlockAddr, Vec<(CoreId, MesiState)>> =
            std::collections::HashMap::new();
        for (core, arr) in self.arrays.arrays() {
            for (_, _, block, e) in arr.iter_all() {
                if e.state.is_valid() {
                    holders.entry(block).or_default().push((core, e.state));
                }
            }
        }
        for (block, hs) in &holders {
            let dirty = hs.iter().filter(|(_, s)| s.is_dirty()).count();
            if dirty > 1 {
                return Err(Violation::on_block(
                    "dirty-singleton",
                    *block,
                    "at most 1 dirty copy",
                    format!("{dirty} dirty copies in {hs:?}"),
                ));
            }
            if hs.iter().any(|(_, s)| s.is_private()) && hs.len() != 1 {
                return Err(Violation::on_block(
                    "private-implies-sole-copy",
                    *block,
                    "an M/E copy being the only on-chip copy",
                    format!("{} copies in {hs:?}", hs.len()),
                ));
            }
        }
        Ok(())
    }

    fn inject_tag_fault(&mut self, rng: &mut Rng) -> Option<String> {
        // Promote one sharer of a multi-holder block to Modified: the
        // audit's private-implies-sole-copy check is guaranteed to
        // fire. Without a shared block there is nothing to corrupt
        // detectably.
        let mut shared: Vec<(CoreId, BlockAddr)> = Vec::new();
        let mut count: std::collections::HashMap<BlockAddr, usize> =
            std::collections::HashMap::new();
        for (core, arr) in self.arrays.arrays() {
            for (_, _, block, e) in arr.iter_all() {
                if e.state.is_valid() {
                    *count.entry(block).or_default() += 1;
                    shared.push((core, block));
                }
            }
        }
        shared.retain(|(_, b)| count[b] > 1);
        if shared.is_empty() {
            return None;
        }
        let (core, block) = shared[rng.gen_index(shared.len())];
        let (set, way) = self.arrays.lookup(core, block)?;
        self.arrays.entry_mut(core, set, way)?.payload.state = MesiState::Modified;
        Some(format!("forced {core} copy of {block} to Modified alongside other sharers"))
    }
}

impl std::fmt::Debug for PrivateMesi {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrivateMesi")
            .field("cores", &self.arrays.cores())
            .field("occupied", &self.arrays.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmp_mem::ReuseBucket;

    fn paper_private() -> (PrivateMesi, Bus) {
        (PrivateMesi::paper(&LatencyBook::paper()), Bus::paper())
    }

    use std::cell::Cell;

    thread_local! {
        /// Monotonic per-test clock so consecutive accesses do not
        /// queue behind each other on the bus.
        static NOW: Cell<Cycle> = const { Cell::new(0) };
    }

    fn tick() -> Cycle {
        NOW.with(|t| {
            let now = t.get() + 1_000;
            t.set(now);
            now
        })
    }

    use crate::org::CollectedResponse;

    fn rd(l2: &mut PrivateMesi, bus: &mut Bus, core: u8, block: u64) -> CollectedResponse {
        l2.access_collected(CoreId(core), BlockAddr(block), AccessKind::Read, tick(), bus)
    }

    fn wr(l2: &mut PrivateMesi, bus: &mut Bus, core: u8, block: u64) -> CollectedResponse {
        l2.access_collected(CoreId(core), BlockAddr(block), AccessKind::Write, tick(), bus)
    }

    #[test]
    fn local_hit_is_ten_cycles() {
        let (mut l2, mut bus) = paper_private();
        rd(&mut l2, &mut bus, 0, 9);
        let hit = rd(&mut l2, &mut bus, 0, 9);
        assert_eq!(hit.latency, 10);
        assert_eq!(l2.state_of(CoreId(0), BlockAddr(9)), MesiState::Exclusive);
    }

    #[test]
    fn cold_miss_goes_to_memory() {
        let (mut l2, mut bus) = paper_private();
        let miss = rd(&mut l2, &mut bus, 0, 9);
        assert_eq!(miss.class, AccessClass::MissCapacity);
        // tag (4) + bus (32) + memory (300).
        assert_eq!(miss.latency, 4 + 32 + 300);
    }

    #[test]
    fn read_sharing_classifies_ros_and_transfers_on_chip() {
        let (mut l2, mut bus) = paper_private();
        rd(&mut l2, &mut bus, 0, 9);
        let miss = rd(&mut l2, &mut bus, 1, 9);
        assert_eq!(miss.class, AccessClass::MissRos);
        // tag (4) + bus (32) + remote cache (10): far cheaper than memory.
        assert_eq!(miss.latency, 4 + 32 + 10);
        assert_eq!(l2.state_of(CoreId(0), BlockAddr(9)), MesiState::Shared);
        assert_eq!(l2.state_of(CoreId(1), BlockAddr(9)), MesiState::Shared);
    }

    #[test]
    fn dirty_sharing_classifies_rws() {
        let (mut l2, mut bus) = paper_private();
        wr(&mut l2, &mut bus, 0, 9);
        let miss = rd(&mut l2, &mut bus, 1, 9);
        assert_eq!(miss.class, AccessClass::MissRws);
        assert_eq!(l2.state_of(CoreId(0), BlockAddr(9)), MesiState::Shared);
    }

    #[test]
    fn write_invalidates_remote_copies_and_l1s() {
        let (mut l2, mut bus) = paper_private();
        rd(&mut l2, &mut bus, 0, 9);
        rd(&mut l2, &mut bus, 1, 9);
        let w = wr(&mut l2, &mut bus, 0, 9);
        assert_eq!(l2.state_of(CoreId(0), BlockAddr(9)), MesiState::Modified);
        assert_eq!(l2.state_of(CoreId(1), BlockAddr(9)), MesiState::Invalid);
        assert!(w.l1_invalidate.contains(&(CoreId(1), BlockAddr(9))));
    }

    #[test]
    fn coherence_ping_pong_costs_misses_every_round() {
        // The RWS pattern ISC eliminates: writer invalidates reader,
        // reader misses again.
        let (mut l2, mut bus) = paper_private();
        wr(&mut l2, &mut bus, 0, 9);
        for _ in 0..5 {
            let r = rd(&mut l2, &mut bus, 1, 9);
            assert_eq!(r.class, AccessClass::MissRws);
            wr(&mut l2, &mut bus, 0, 9);
        }
        assert_eq!(l2.stats().miss_rws, 5);
    }

    #[test]
    fn rws_reuse_recorded_at_invalidation() {
        let (mut l2, mut bus) = paper_private();
        wr(&mut l2, &mut bus, 0, 9);
        rd(&mut l2, &mut bus, 1, 9); // P1 fills via RWS miss
        rd(&mut l2, &mut bus, 1, 9); // reuse 1
        rd(&mut l2, &mut bus, 1, 9); // reuse 2
        wr(&mut l2, &mut bus, 0, 9); // invalidates P1's copy
        assert_eq!(l2.stats().rws_reuse.count(ReuseBucket::TwoToFive), 1);
    }

    #[test]
    fn ros_reuse_recorded_at_replacement() {
        let book = LatencyBook::paper();
        // Tiny private caches (4 sets x 2 ways) to force replacements.
        let mut l2 = PrivateMesi::new(2, CacheGeometry::new(1024, 128, 2), 4, 10, 300);
        let mut bus = Bus::paper();
        let _ = book;
        // P0 owns block 1; P1 reads it (ROS fill), reuses once, then
        // conflicts it out with blocks 5 and 9 (same set).
        rd(&mut l2, &mut bus, 0, 1);
        rd(&mut l2, &mut bus, 1, 1);
        rd(&mut l2, &mut bus, 1, 1);
        rd(&mut l2, &mut bus, 1, 5);
        rd(&mut l2, &mut bus, 1, 9);
        assert_eq!(l2.stats().ros_reuse.count(ReuseBucket::One), 1);
    }

    #[test]
    fn upgrade_write_pays_bus_latency() {
        let (mut l2, mut bus) = paper_private();
        rd(&mut l2, &mut bus, 0, 9);
        rd(&mut l2, &mut bus, 1, 9); // both now Shared
        let w = wr(&mut l2, &mut bus, 0, 9);
        assert!(w.class.is_hit(), "upgrade is a hit, not a miss");
        assert!(w.latency > 10, "upgrade must pay for the BusUpg, got {}", w.latency);
    }

    #[test]
    fn audit_flags_a_corrupted_holder_summary() {
        let (mut l2, mut bus) = paper_private();
        rd(&mut l2, &mut bus, 0, 9);
        rd(&mut l2, &mut bus, 2, 9);
        assert_eq!(l2.audit(), Ok(()));
        // Drop every holder bit: both resident copies lose theirs.
        l2.arrays.summary.iter_mut().for_each(|m| *m = 0);
        let v = l2.audit().unwrap_err();
        assert_eq!(
            (v.check, v.core, v.block),
            ("holder-summary-exact", Some(CoreId(0)), Some(BlockAddr(9)))
        );
    }

    #[test]
    fn capacity_is_2mb_per_core() {
        let l2 = PrivateMesi::paper(&LatencyBook::paper());
        assert_eq!(l2.arrays.array(CoreId(0)).geometry().capacity_bytes(), 2 * 1024 * 1024);
        assert_eq!(l2.cores(), 4);
    }
}
