//! CMP-DNUCA: the *dynamic* non-uniform shared baseline the paper
//! deliberately leaves out.
//!
//! Beckmann & Wood's CMP-DNUCA lets a block migrate among the banks
//! of its bankset, moving gradually toward whoever hits it. The ISCA
//! 2005 paper cites their result — "realistic CMP-DNUCA performs
//! worse than CMP-SNUCA" — as the reason it only evaluates SNUCA, and
//! explains why: with multiple sharers, "each sharer pulls the block
//! toward it, leaving the block in the middle, far away from all the
//! sharers" (Section 1). This implementation exists to reproduce that
//! justification (see the `dnuca` experiment binary).
//!
//! Model: the 16 banks form 4 column banksets; a block maps to a
//! bankset by address interleave and may live in any of its 4 banks.
//! Lookups search the bankset's banks from the requestor's nearest
//! outward (incremental search: each probed bank's latency
//! accumulates); a hit migrates the block one bank closer to the
//! requestor by swapping with the target bank's LRU victim in the
//! same set.

use cmp_coherence::Bus;
use cmp_latency::{LatencyBook, SnucaLatencies};
use cmp_mem::{AccessKind, BlockAddr, CacheGeometry, CoreId, Cycle, Storage};

use crate::org::{AccessClass, AccessResponse, CacheOrg, InvalScratch, OrgStats};
use crate::tag_array::TagArray;

#[derive(Clone, Copy, Debug, Default)]
struct DnucaEntry {
    dirty: bool,
    l1_presence: u64,
}

/// The dynamic-NUCA shared L2 (migration enabled).
///
/// # Example
///
/// ```
/// use cmp_cache::{CacheOrg, Dnuca, InvalScratch};
/// use cmp_coherence::Bus;
/// use cmp_latency::LatencyBook;
/// use cmp_mem::{AccessKind, BlockAddr, CoreId};
///
/// let mut l2 = Dnuca::paper(&LatencyBook::paper());
/// let mut bus = Bus::paper();
/// let mut inv = InvalScratch::new();
/// l2.access(CoreId(0), BlockAddr(0), AccessKind::Read, 0, &mut bus, &mut inv);
/// let first = l2.access(CoreId(0), BlockAddr(0), AccessKind::Read, 1_000, &mut bus, &mut inv);
/// let later = {
///     for t in 0..4 {
///         l2.access(CoreId(0), BlockAddr(0), AccessKind::Read, 2_000 + t * 1_000, &mut bus, &mut inv);
///     }
///     l2.access(CoreId(0), BlockAddr(0), AccessKind::Read, 9_000, &mut bus, &mut inv)
/// };
/// assert!(later.latency <= first.latency, "migration pulls the block closer");
/// ```
pub struct Dnuca {
    /// One tag array per bank; `banks[b]` is bank `b` of the grid,
    /// laid out row-major `columns` wide.
    banks: Vec<TagArray<DnucaEntry>>,
    latencies: SnucaLatencies,
    /// Number of column banksets (the bank grid's width; 4 at paper
    /// scale, where each column holds 4 banks).
    columns: usize,
    cores: usize,
    memory_latency: Cycle,
    stats: OrgStats,
}

impl Dnuca {
    /// The paper-scale configuration: 8 MB in 16 banks of 512 KB,
    /// 4 column banksets.
    pub fn paper(book: &LatencyBook) -> Self {
        Self::sized(book, cmp_mem::L2_TOTAL_BYTES)
    }

    /// The dynamic-NUCA organization at an explicit total capacity.
    /// The bank grid is taken from `book.snuca` (twice the d-group
    /// floorplan in each dimension), so the column-bankset layout
    /// follows the machine size; capacity divides evenly over the
    /// banks.
    pub fn sized(book: &LatencyBook, total_bytes: usize) -> Self {
        let (cols, _) = cmp_latency::Floorplan::paper(book.cores()).dims();
        let columns = 2 * cols;
        let bank_count = book.snuca.banks();
        assert!(
            total_bytes.is_multiple_of(bank_count),
            "capacity must divide over {bank_count} banks"
        );
        let bank_geom = CacheGeometry::new(total_bytes / bank_count, cmp_mem::L2_BLOCK_BYTES, 8);
        let storage = Storage::for_l2(total_bytes);
        Dnuca {
            banks: (0..bank_count).map(|_| TagArray::with_storage(bank_geom, storage)).collect(),
            latencies: book.snuca.clone(),
            columns,
            cores: book.cores(),
            memory_latency: book.memory,
            stats: OrgStats::default(),
        }
    }

    fn core_bit(core: CoreId) -> u64 {
        1 << core.index()
    }

    /// The bankset (column) a block maps to.
    fn column_of(&self, block: BlockAddr) -> usize {
        (block.0 as usize) % self.columns
    }

    /// The column's banks ordered nearest-first for `core`.
    fn search_order(&self, core: CoreId, column: usize) -> Vec<usize> {
        let rows = self.banks.len() / self.columns;
        let mut banks: Vec<usize> = (0..rows).map(|row| column + self.columns * row).collect();
        banks.sort_by_key(|&b| self.latencies.latency(core, b));
        banks
    }

    /// Finds the block in its bankset; returns `(search order, found
    /// position/bank/way, search latency)`.
    ///
    /// Hits pay the incremental search: the probe latencies of every
    /// bank tried up to and including the hit. Misses pay only the
    /// farthest bank's latency — the partial-tag "smart search" of
    /// Beckmann & Wood resolves a definite miss with one overlapped
    /// sweep rather than four serial probes.
    fn search(
        &self,
        core: CoreId,
        block: BlockAddr,
    ) -> (Vec<usize>, Option<(usize, usize, usize)>, Cycle) {
        let order = self.search_order(core, self.column_of(block));
        let mut latency = 0;
        for (pos, &bank) in order.iter().enumerate() {
            latency += self.latencies.latency(core, bank);
            if let Some(way) = self.banks[bank].lookup(block) {
                return (order, Some((pos, bank, way)), latency);
            }
        }
        let sweep = order.iter().map(|&b| self.latencies.latency(core, b)).max().unwrap_or(0);
        (order, None, sweep)
    }

    /// Gradual migration: swap `block` from `from_bank` into the LRU
    /// way of the same set in `to_bank` (and move that victim the
    /// other way), mimicking the bank-swap of D-NUCA.
    fn migrate(&mut self, block: BlockAddr, from_bank: usize, to_bank: usize) {
        let from_set = self.banks[from_bank].set_of(block);
        let from_way = self.banks[from_bank].lookup(block).expect("migrating a resident block");
        let (b, payload) = self.banks[from_bank].evict(from_set, from_way).expect("resident");
        debug_assert_eq!(b, block);
        let to_set = self.banks[to_bank].set_of(block);
        let victim_way = self.banks[to_bank].victim_by(to_set, |e| u32::from(e.is_some()));
        if let Some((victim_block, victim_payload)) = self.banks[to_bank].evict(to_set, victim_way)
        {
            // The displaced block takes the vacated slot in the old
            // bank (a swap, so nothing leaves the cache).
            let back_set = self.banks[from_bank].set_of(victim_block);
            let back_way = self.banks[from_bank].victim_by(back_set, |e| u32::from(e.is_some()));
            if let Some((evicted, evicted_payload)) =
                self.banks[from_bank].evict(back_set, back_way)
            {
                // Rare: the swap-back displaced a third block; it
                // falls out of the cache entirely.
                let _ = evicted;
                if evicted_payload.dirty {
                    self.stats.writebacks += 1;
                }
            }
            self.banks[from_bank].fill(back_set, back_way, victim_block, victim_payload);
        }
        self.banks[to_bank].fill(to_set, victim_way, block, payload);
        self.stats.promotions += 1; // migrations counted as promotions
    }
}

impl CacheOrg for Dnuca {
    fn name(&self) -> &'static str {
        "dnuca"
    }

    #[inline]
    fn access(
        &mut self,
        core: CoreId,
        block: BlockAddr,
        kind: AccessKind,
        _now: Cycle,
        _bus: &mut Bus,
        inv: &mut InvalScratch,
    ) -> AccessResponse {
        inv.begin();
        let (order, found, search_latency) = self.search(core, block);
        let resp;
        if let Some((pos, bank, way)) = found {
            let set = self.banks[bank].set_of(block);
            self.banks[bank].touch(set, way);
            resp = AccessResponse::simple(search_latency, AccessClass::Hit { closest: pos == 0 });
            {
                let entry = self.banks[bank].entry_mut(set, way).expect("hit entry");
                if kind.is_write() {
                    entry.payload.dirty = true;
                    let others = entry.payload.l1_presence & !Self::core_bit(core);
                    entry.payload.l1_presence &= !others;
                    for c in CoreId::all(self.cores) {
                        if others & Self::core_bit(c) != 0 {
                            inv.push(c, block);
                        }
                    }
                }
                entry.payload.l1_presence |= Self::core_bit(core);
            }
            if pos > 0 {
                // Gradual migration one bank closer to this requestor.
                self.migrate(block, bank, order[pos - 1]);
            }
        } else {
            resp = AccessResponse::simple(
                search_latency + self.memory_latency,
                AccessClass::MissCapacity,
            );
            // Fill into the requestor's nearest bank of the bankset.
            let bank = order[0];
            let set = self.banks[bank].set_of(block);
            let way = self.banks[bank].victim_by(set, |e| u32::from(e.is_some()));
            if let Some((victim_block, payload)) = self.banks[bank].evict(set, way) {
                if payload.dirty {
                    self.stats.writebacks += 1;
                }
                for c in CoreId::all(self.cores) {
                    if payload.l1_presence & Self::core_bit(c) != 0 {
                        inv.push(c, victim_block);
                    }
                }
            }
            self.banks[bank].fill(
                set,
                way,
                block,
                DnucaEntry { dirty: kind.is_write(), l1_presence: Self::core_bit(core) },
            );
        }
        self.stats.l1_invalidations += inv.len() as u64;
        self.stats.record_class(resp.class);
        resp
    }

    fn stats(&self) -> &OrgStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = OrgStats::default();
    }

    fn cores(&self) -> usize {
        self.cores
    }
}

impl std::fmt::Debug for Dnuca {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dnuca")
            .field("banks", &self.banks.len())
            .field("occupied", &self.banks.iter().map(TagArray::len).sum::<usize>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_dnuca() -> (Dnuca, Bus, u64) {
        (Dnuca::paper(&LatencyBook::paper()), Bus::paper(), 0)
    }

    use crate::org::CollectedResponse;

    fn rd(l2: &mut Dnuca, bus: &mut Bus, t: &mut u64, core: u8, block: u64) -> CollectedResponse {
        *t += 1_000;
        l2.access_collected(CoreId(core), BlockAddr(block), AccessKind::Read, *t, bus)
    }

    #[test]
    fn repeated_hits_migrate_the_block_closer() {
        let (mut l2, mut bus, mut t) = paper_dnuca();
        rd(&mut l2, &mut bus, &mut t, 0, 77); // cold fill already nearest
                                              // Fill lands nearest already; push it away by making P3 hit it.
        for _ in 0..6 {
            rd(&mut l2, &mut bus, &mut t, 3, 77);
        }
        // P3's repeated hits must have shortened P3's latency to the
        // floor (its nearest bank of the bankset).
        let final_hit = rd(&mut l2, &mut bus, &mut t, 3, 77);
        assert_eq!(final_hit.class, AccessClass::Hit { closest: true });
    }

    #[test]
    fn migration_latency_is_monotone_for_a_lone_user() {
        let (mut l2, mut bus, mut t) = paper_dnuca();
        rd(&mut l2, &mut bus, &mut t, 2, 40); // P2 cold fill
                                              // P1 starts hitting it from the other corner.
        let mut last = u64::MAX;
        for _ in 0..6 {
            let hit = rd(&mut l2, &mut bus, &mut t, 1, 40);
            assert!(hit.latency <= last, "latency must not regress: {} > {last}", hit.latency);
            last = hit.latency;
        }
        let settled = rd(&mut l2, &mut bus, &mut t, 1, 40);
        assert_eq!(settled.class, AccessClass::Hit { closest: true });
    }

    #[test]
    fn contested_blocks_ping_pong_between_sharers() {
        // The paper's Section 1 claim: sharers pull the block back and
        // forth, so neither ends up with closest-bank hits on average.
        let (mut l2, mut bus, mut t) = paper_dnuca();
        rd(&mut l2, &mut bus, &mut t, 0, 8);
        let mut closest_hits = 0u32;
        const ROUNDS: u32 = 40;
        for _ in 0..ROUNDS {
            // P0 and P3 sit in opposite corners; they alternate.
            if rd(&mut l2, &mut bus, &mut t, 0, 8).class == (AccessClass::Hit { closest: true }) {
                closest_hits += 1;
            }
            if rd(&mut l2, &mut bus, &mut t, 3, 8).class == (AccessClass::Hit { closest: true }) {
                closest_hits += 1;
            }
        }
        assert!(
            closest_hits < ROUNDS,
            "a contested block must not serve mostly closest-bank hits ({closest_hits}/{})",
            2 * ROUNDS
        );
    }

    #[test]
    fn blocks_never_leave_their_bankset() {
        let (mut l2, mut bus, mut t) = paper_dnuca();
        rd(&mut l2, &mut bus, &mut t, 0, 13); // column 1
        for c in [1u8, 2, 3, 0] {
            rd(&mut l2, &mut bus, &mut t, c, 13);
        }
        let col = l2.column_of(BlockAddr(13));
        let resident: Vec<usize> =
            (0..16).filter(|&b| l2.banks[b].lookup(BlockAddr(13)).is_some()).collect();
        assert_eq!(resident.len(), 1, "exactly one copy");
        assert_eq!(resident[0] % l2.columns, col, "still in its column bankset");
    }

    #[test]
    fn misses_are_capacity_only() {
        let (mut l2, mut bus, mut t) = paper_dnuca();
        let miss = rd(&mut l2, &mut bus, &mut t, 0, 99);
        assert_eq!(miss.class, AccessClass::MissCapacity);
        assert!(miss.latency > 300, "miss pays the search plus memory");
        assert_eq!(l2.stats().miss_ros + l2.stats().miss_rws, 0);
    }

    #[test]
    fn search_reaches_farther_banks_at_higher_cost() {
        let (mut l2, mut bus, mut t) = paper_dnuca();
        rd(&mut l2, &mut bus, &mut t, 0, 16); // P0 fills its nearest bank, column 0
                                              // P3 finds it only after probing its own closer banks first.
        let hit = rd(&mut l2, &mut bus, &mut t, 3, 16);
        assert!(hit.class.is_hit());
        let p3_nearest = l2.search_order(CoreId(3), 0)[0];
        assert!(
            hit.latency > l2.latencies.latency(CoreId(3), p3_nearest),
            "incremental search accumulates probe latency"
        );
    }

    #[test]
    fn write_invalidates_remote_l1_copies() {
        let (mut l2, mut bus, mut t) = paper_dnuca();
        rd(&mut l2, &mut bus, &mut t, 0, 24);
        rd(&mut l2, &mut bus, &mut t, 1, 24);
        t += 1_000;
        let w = l2.access_collected(CoreId(0), BlockAddr(24), AccessKind::Write, t, &mut bus);
        assert!(w.l1_invalidate.iter().any(|(c, b)| *c == CoreId(1) && *b == BlockAddr(24)));
    }
}
