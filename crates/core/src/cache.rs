//! The CMP-NuRAPID cache organization: access paths.
//!
//! See the crate-level docs for the big picture. This module holds
//! the [`CmpNurapid`] structure and its hit/miss handling; the
//! replacement machinery (data replacement, distance replacement /
//! demotion chains, promotion) lives in the impl blocks of
//! `replace.rs`, and the structural-invariant checker used by the
//! test suite in `invariants.rs`.

mod invariants;
mod replace;

use cmp_cache::{
    AccessClass, AccessResponse, CacheOrg, CoreTags, InvalScratch, OrgStats, Violation,
};
use cmp_coherence::mesic::MesicState;
use cmp_coherence::{Bus, BusTx, SnoopSignals};
use cmp_mem::{AccessKind, BlockAddr, CoreId, Cycle, Rng, Storage};

use crate::config::NurapidConfig;
use crate::data_array::{DGroupId, DataArray, FrameRef, TagRef};
use crate::ranking::DGroupRanking;

/// Payload of one CMP-NuRAPID tag entry, packed into 4 bytes: the
/// MESIC state in bits 0..3, the forward pointer's d-group in bits
/// 3..9 and its frame index in bits 9..32. With the 8-byte tag that
/// makes a tag slot cost 12 bytes, the budget the holder summary is
/// paid from.
#[derive(Clone, Copy)]
pub(crate) struct NuEntry(u32);

/// The MESIC states in declaration order, so `state as u32` is a
/// state's index here: its 3-bit code.
const STATES: [MesicState; 5] = [
    MesicState::Modified,
    MesicState::Exclusive,
    MesicState::Shared,
    MesicState::Invalid,
    MesicState::Communication,
];

impl NuEntry {
    const GROUP_SHIFT: u32 = 3;
    const INDEX_SHIFT: u32 = 9;
    /// Frames a d-group may hold: the frame index field's range.
    pub(crate) const MAX_FRAMES: usize = 1 << (32 - Self::INDEX_SHIFT);

    /// Packs a state and a forward pointer. `CmpNurapid::new` checks
    /// that every frame index of its d-groups fits the index field,
    /// and at most 64 d-groups fit the group field.
    #[inline]
    pub(crate) fn new(state: MesicState, fwd: FrameRef) -> Self {
        debug_assert!(fwd.group.index() < 1 << (Self::INDEX_SHIFT - Self::GROUP_SHIFT));
        debug_assert!((fwd.index as usize) < Self::MAX_FRAMES);
        let group = u32::from(fwd.group.0) << Self::GROUP_SHIFT;
        NuEntry(state as u32 | group | (fwd.index << Self::INDEX_SHIFT))
    }

    #[inline]
    pub(crate) fn state(self) -> MesicState {
        STATES[(self.0 & 0b111) as usize]
    }

    #[inline]
    pub(crate) fn fwd(self) -> FrameRef {
        FrameRef {
            group: DGroupId(((self.0 >> Self::GROUP_SHIFT) & 0x3F) as u8),
            index: self.0 >> Self::INDEX_SHIFT,
        }
    }

    #[inline]
    pub(crate) fn set_state(&mut self, state: MesicState) {
        self.0 = (self.0 & !0b111) | state as u32;
    }

    #[inline]
    pub(crate) fn set_fwd(&mut self, fwd: FrameRef) {
        *self = NuEntry::new(self.state(), fwd);
    }
}

/// Counts one tag entry's transition into the Communication state.
/// Callers skip entries that were already in C: re-joining is not a
/// transition, so `coherence.c_transitions` counts only state changes.
#[inline]
fn count_c_join() {
    static C_TRANSITIONS: cmp_obs::Counter = cmp_obs::Counter::new("coherence.c_transitions");
    C_TRANSITIONS.inc();
}

/// The CMP-NuRAPID L2 cache (see crate docs and `NurapidConfig`).
pub struct CmpNurapid {
    pub(crate) cfg: NurapidConfig,
    pub(crate) ranking: DGroupRanking,
    pub(crate) tags: CoreTags<NuEntry>,
    pub(crate) data: DataArray,
    pub(crate) rng: Rng,
    pub(crate) stats: OrgStats,
    /// Frames in use by the current access, protected from the
    /// demotion chain's random victim choice — the functional analogue
    /// of Section 3.1's busy bits.
    pub(crate) busy: Vec<FrameRef>,
    /// Reusable scratch of [`CmpNurapid::for_other_holders`], so
    /// walking a block's sharers never allocates.
    holders: Vec<(CoreId, usize, usize)>,
}

impl CmpNurapid {
    /// Creates the cache from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`NurapidConfig::validate`]) or a d-group holds more frames
    /// than a tag entry's forward pointer can index (2^23).
    pub fn new(cfg: NurapidConfig) -> Self {
        cfg.validate();
        assert!(
            cfg.frames_per_dgroup() <= NuEntry::MAX_FRAMES,
            "a d-group of {} frames is too large: a tag's frame index holds at most {}",
            cfg.frames_per_dgroup(),
            NuEntry::MAX_FRAMES
        );
        let tag_geom = cfg.tag_geometry();
        let ranking = if cfg.staggered_ranking {
            DGroupRanking::staggered(cfg.cores)
        } else {
            DGroupRanking::naive(cfg.cores)
        };
        let storage = Storage::for_l2(cfg.cores * cfg.dgroup_bytes);
        CmpNurapid {
            ranking,
            tags: CoreTags::with_storage(cfg.cores, tag_geom, storage),
            data: DataArray::with_storage(cfg.cores, cfg.frames_per_dgroup(), storage),
            rng: Rng::new(cfg.seed),
            stats: OrgStats::default(),
            busy: Vec::with_capacity(4),
            holders: Vec::with_capacity(cfg.cores),
            cfg,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &NurapidConfig {
        &self.cfg
    }

    /// The staggered d-group ranking in use.
    pub fn ranking(&self) -> &DGroupRanking {
        &self.ranking
    }

    /// MESIC state of `block` in `core`'s tag array (diagnostic).
    pub fn state_of(&self, core: CoreId, block: BlockAddr) -> MesicState {
        self.lookup(core, block)
            .map_or(MesicState::Invalid, |(set, way)| self.entry(core, set, way).state())
    }

    /// D-group currently holding `core`'s copy of `block`, if any
    /// (diagnostic).
    pub fn dgroup_of(&self, core: CoreId, block: BlockAddr) -> Option<DGroupId> {
        self.lookup(core, block).map(|(set, way)| self.entry(core, set, way).fwd().group)
    }

    /// Number of occupied data frames holding `block` (diagnostic:
    /// the replication degree).
    pub fn data_copies(&self, block: BlockAddr) -> usize {
        self.data.iter_occupied().filter(|(_, f)| f.block == block).count()
    }

    /// Occupied frames per d-group, as `(occupied, capacity)` pairs —
    /// shows where capacity stealing placed the data.
    pub fn dgroup_occupancy(&self) -> Vec<(usize, usize)> {
        (0..self.data.num_groups())
            .map(|g| {
                (
                    self.data.occupied(crate::data_array::DGroupId(g as u8)),
                    self.data.frames_per_group(),
                )
            })
            .collect()
    }

    /// For each d-group, how many occupied frames are *owned* by each
    /// core's tag array (`result[group][core]`): the capacity-stealing
    /// allocation picture of Section 3.3.
    pub fn occupancy_by_owner(&self) -> Vec<Vec<usize>> {
        let mut m = vec![vec![0usize; self.cfg.cores]; self.data.num_groups()];
        for (fref, frame) in self.data.iter_occupied() {
            m[fref.group.index()][frame.owner.core.index()] += 1;
        }
        m
    }

    // ---- small internal helpers -------------------------------------------

    pub(crate) fn closest(&self, core: CoreId) -> DGroupId {
        DGroupId(self.ranking.closest(core) as u8)
    }

    pub(crate) fn dlat(&self, core: CoreId, g: DGroupId) -> Cycle {
        self.cfg.latencies.dgroup_latency(core, g.index())
    }

    pub(crate) fn tag_lat(&self) -> Cycle {
        self.cfg.latencies.nurapid_tag
    }

    pub(crate) fn lookup(&self, core: CoreId, block: BlockAddr) -> Option<(usize, usize)> {
        self.tags.lookup(core, block)
    }

    pub(crate) fn entry(&self, core: CoreId, set: usize, way: usize) -> &NuEntry {
        &self.tags.entry(core, set, way).expect("entry present").payload
    }

    pub(crate) fn entry_mut(&mut self, core: CoreId, set: usize, way: usize) -> &mut NuEntry {
        &mut self.tags.entry_mut(core, set, way).expect("entry present").payload
    }

    pub(crate) fn tag_ref(&self, core: CoreId, set: usize, way: usize) -> TagRef {
        TagRef { core, set: set as u32, way: way as u8 }
    }

    /// The MESIC state of the tag entry a frame's reverse pointer
    /// names.
    pub(crate) fn owner_state(&self, owner: TagRef) -> MesicState {
        self.entry(owner.core, owner.set as usize, owner.way as usize).state()
    }

    /// Updates the forward pointer of the entry at `owner`.
    pub(crate) fn update_fwd(&mut self, owner: TagRef, frame: FrameRef) {
        self.entry_mut(owner.core, owner.set as usize, owner.way as usize).set_fwd(frame);
    }

    /// Snoop signals for `block` as sampled by `requestor`.
    pub(crate) fn signals_for(&self, requestor: CoreId, block: BlockAddr) -> SnoopSignals {
        let mut sig = SnoopSignals::NONE;
        for (c, set, way) in self.tags.holders(block) {
            if c == requestor {
                continue;
            }
            let st = self.entry(c, set, way).state();
            if st.is_valid() {
                sig.shared = true;
                if st.is_dirty() {
                    sig.dirty = true;
                }
            }
        }
        sig
    }

    /// Whether any core other than `requestor` holds a tag entry for
    /// `block`.
    fn has_other_holder(&self, requestor: CoreId, block: BlockAddr) -> bool {
        self.tags.holders(block).any(|(c, _, _)| c != requestor)
    }

    /// Calls `f` with `(core, set, way)` for every core other than
    /// `requestor` holding a tag entry for `block`, in core order.
    /// The holders are gathered before the first call, so `f` may
    /// change the tag arrays.
    fn for_other_holders(
        &mut self,
        requestor: CoreId,
        block: BlockAddr,
        mut f: impl FnMut(&mut Self, CoreId, usize, usize),
    ) {
        let mut holders = std::mem::take(&mut self.holders);
        holders.clear();
        holders.extend(self.tags.holders(block).filter(|(c, _, _)| *c != requestor));
        for &(c, s, w) in &holders {
            f(self, c, s, w);
        }
        self.holders = holders;
    }

    /// The data copy of `block` cheapest for `requestor` to reach
    /// (several may exist under replication).
    pub(crate) fn nearest_copy(&self, requestor: CoreId, block: BlockAddr) -> Option<FrameRef> {
        self.tags
            .holders(block)
            .map(|(c, s, w)| self.entry(c, s, w).fwd())
            .min_by_key(|f| self.dlat(requestor, f.group))
    }

    /// The single dirty data copy of `block` (M or C holder's frame).
    pub(crate) fn dirty_frame(&self, block: BlockAddr) -> Option<FrameRef> {
        self.tags
            .holders(block)
            .map(|(c, s, w)| self.entry(c, s, w))
            .find(|e| e.state().is_dirty())
            .map(|e| e.fwd())
    }

    // ---- hit path ---------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn hit(
        &mut self,
        core: CoreId,
        set: usize,
        way: usize,
        block: BlockAddr,
        kind: AccessKind,
        now: Cycle,
        bus: &mut Bus,
        resp: &mut AccessResponse,
        inv: &mut InvalScratch,
    ) -> Result<(), Violation> {
        let closest = self.closest(core);
        let mut state = self.entry(core, set, way).state();
        // Extension: a C block whose other sharers are all gone
        // collapses back to M (see NurapidConfig::c_collapse). The
        // sole remaining holder is necessarily the frame's owner.
        if self.cfg.c_collapse
            && state == MesicState::Communication
            && !self.has_other_holder(core, block)
        {
            state = MesicState::Modified;
            self.entry_mut(core, set, way).set_state(MesicState::Modified);
            self.stats.c_collapses += 1;
        }
        let fwd = self.entry(core, set, way).fwd();
        self.tags.touch(core, set, way);
        let base = self.tag_lat() + self.dlat(core, fwd.group);
        resp.class = AccessClass::Hit { closest: fwd.group == closest };
        resp.latency = base;
        match (state, kind) {
            (MesicState::Exclusive | MesicState::Modified, _) => {
                if kind.is_write() {
                    self.entry_mut(core, set, way).set_state(MesicState::Modified);
                }
                if fwd.group != closest {
                    // Capacity stealing: promote the private block
                    // toward the requestor (Section 3.3.1).
                    self.promote(core, set, way, block, bus, now, inv);
                }
            }
            (MesicState::Shared, AccessKind::Read) => {
                let my_tag = self.tag_ref(core, set, way);
                if fwd.group != closest && self.data.frame(fwd).owner != my_tag {
                    // Controlled replication, second use: make a data
                    // copy in the closest d-group (Figure 3c). Only a
                    // *pointer* holder replicates; if the farther copy
                    // is this core's own (a block that went shared
                    // after being demoted), it stays where it is —
                    // shared blocks are never moved (Section 3.3.1).
                    self.busy.push(fwd);
                    self.ensure_free_frame(core, closest, bus, now, inv);
                    let nf = self.data.alloc(closest, block, my_tag);
                    self.entry_mut(core, set, way).set_fwd(nf);
                    self.stats.replications += 1;
                }
            }
            (MesicState::Shared, AccessKind::Write) => {
                // Base-MESI upgrade: invalidate every other tag copy.
                let grant = bus.transact(BusTx::BusUpg, now);
                resp.latency = self.tag_lat() + grant.stall_from(now) + self.dlat(core, fwd.group);
                let my_tag = self.tag_ref(core, set, way);
                self.for_other_holders(core, block, |this, c, s, w| {
                    let their_fwd = this.entry(c, s, w).fwd();
                    let their_tag = this.tag_ref(c, s, w);
                    // The frame may already be gone: several sharers
                    // can point at one copy whose owner was processed
                    // earlier in this loop.
                    if this.data.is_occupied(their_fwd)
                        && this.data.frame(their_fwd).owner == their_tag
                    {
                        if their_fwd == fwd {
                            // They owned the very copy I point at:
                            // take the frame over.
                            this.data.set_owner(their_fwd, my_tag);
                        } else {
                            // A duplicate copy elsewhere: free it.
                            this.data.free(their_fwd);
                        }
                    }
                    this.tags.evict(c, s, w);
                    inv.push(c, block);
                });
                self.entry_mut(core, set, way).set_state(MesicState::Modified);
            }
            (MesicState::Communication, AccessKind::Read) => {}
            (MesicState::Communication, AccessKind::Write) => {
                // Write-through to the single copy; posted BusRdX so
                // other sharers drop stale L1 copies (their tags stay
                // in C).
                bus.post(BusTx::BusRdX, now);
                self.for_other_holders(core, block, |_, c, _, _| inv.push(c, block));
            }
            (MesicState::Invalid, _) => {
                return Err(Violation::at(
                    "resident-entry-valid",
                    core,
                    block,
                    "a valid MESIC state for a resident entry",
                    "Invalid",
                ));
            }
        }
        if self.entry(core, set, way).state() == MesicState::Communication {
            resp.writethrough = true;
        }
        Ok(())
    }

    // ---- miss path --------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn miss(
        &mut self,
        core: CoreId,
        block: BlockAddr,
        kind: AccessKind,
        now: Cycle,
        bus: &mut Bus,
        resp: &mut AccessResponse,
        inv: &mut InvalScratch,
    ) -> Result<(), Violation> {
        let closest = self.closest(core);
        // Routed through the bus so the audit harness's snoop-fault
        // plan can tamper with the sampled wires deterministically.
        let signals = bus.sample_signals(self.signals_for(core, block));
        // Make room in the tag array first; any frame it frees becomes
        // the demotion chain's preferred stopping point.
        let (set, way, _hole) = self.make_tag_room(core, block, bus, now, inv);
        let my_tag = self.tag_ref(core, set, way);

        if signals.dirty && self.cfg.in_situ_communication {
            // In-situ communication (Section 3.2).
            resp.class = AccessClass::MissRws;
            let src = self.dirty_frame(block).ok_or_else(|| {
                Violation::at(
                    "dirty-signal-has-frame",
                    core,
                    block,
                    "a dirty (M/C) data copy behind an asserted dirty signal",
                    "no dirty copy on chip",
                )
            })?;
            let tx = if kind.is_write() { BusTx::BusRdX } else { BusTx::BusRd };
            let grant = bus.transact(tx, now);
            resp.latency = self.tag_lat() + grant.stall_from(now) + self.dlat(core, src.group);
            if kind.is_write() {
                // Join C writing the existing copy in place.
                self.for_other_holders(core, block, |this, c, s, w| {
                    let e = this.entry_mut(c, s, w);
                    if e.state() != MesicState::Communication {
                        count_c_join();
                    }
                    e.set_state(MesicState::Communication);
                    inv.push(c, block);
                });
                count_c_join();
                self.tags.fill(core, set, way, block, NuEntry::new(MesicState::Communication, src));
                resp.writethrough = true;
            } else {
                // Reader relocates the copy into its closest d-group;
                // every sharer's forward pointer follows.
                let contents = self.data.free(src);
                debug_assert_eq!(contents.block, block);
                self.ensure_free_frame(core, closest, bus, now, inv);
                let nf = self.data.alloc(closest, block, my_tag);
                self.for_other_holders(core, block, |this, c, s, w| {
                    let e = this.entry_mut(c, s, w);
                    if e.state() != MesicState::Communication {
                        count_c_join();
                    }
                    e.set_state(MesicState::Communication);
                    e.set_fwd(nf);
                    // Force the old holder's L1 to refill so its line
                    // adopts write-through C semantics.
                    inv.push(c, block);
                });
                count_c_join();
                self.tags.fill(core, set, way, block, NuEntry::new(MesicState::Communication, nf));
                resp.writethrough = true;
            }
            return Ok(());
        }

        if signals.dirty && !self.cfg.in_situ_communication {
            // ISC disabled: MESI behaviour. The dirty holder is
            // flushed to memory and demoted to S (keeping its frame);
            // the request then proceeds as clean sharing.
            resp.class = AccessClass::MissRws;
            self.for_other_holders(core, block, |this, c, s, w| {
                let e = this.entry_mut(c, s, w);
                if e.state().is_dirty() {
                    e.set_state(MesicState::Shared);
                    this.stats.writebacks += 1;
                }
            });
            return self
                .finish_clean_sharing_miss(core, block, kind, set, way, now, bus, resp, inv);
        }

        if signals.shared {
            resp.class = AccessClass::MissRos;
            return self
                .finish_clean_sharing_miss(core, block, kind, set, way, now, bus, resp, inv);
        }

        // No on-chip copy: fetch from memory.
        resp.class = AccessClass::MissCapacity;
        let tx = if kind.is_write() { BusTx::BusRdX } else { BusTx::BusRd };
        let grant = bus.transact(tx, now);
        resp.latency = self.tag_lat() + grant.stall_from(now) + self.cfg.latencies.memory;
        self.ensure_free_frame(core, closest, bus, now, inv);
        let nf = self.data.alloc(closest, block, my_tag);
        let state = if kind.is_write() { MesicState::Modified } else { MesicState::Exclusive };
        self.tags.fill(core, set, way, block, NuEntry::new(state, nf));
        Ok(())
    }

    /// Completes a miss whose block has on-chip clean copies: CR
    /// pointer transfer or eager replication for reads, BusRdX
    /// takeover for writes.
    #[allow(clippy::too_many_arguments)]
    fn finish_clean_sharing_miss(
        &mut self,
        core: CoreId,
        block: BlockAddr,
        kind: AccessKind,
        set: usize,
        way: usize,
        now: Cycle,
        bus: &mut Bus,
        resp: &mut AccessResponse,
        inv: &mut InvalScratch,
    ) -> Result<(), Violation> {
        let closest = self.closest(core);
        let my_tag = self.tag_ref(core, set, way);
        let src = self.nearest_copy(core, block).ok_or_else(|| {
            Violation::at(
                "shared-signal-has-copy",
                core,
                block,
                "an on-chip data copy behind an asserted shared signal",
                "no copy on chip",
            )
        })?;
        let src_lat = self.dlat(core, src.group);
        if kind.is_write() {
            // BusRdX: every remote tag copy is invalidated; frames
            // they owned are freed; the requestor takes its own copy.
            let grant = bus.transact(BusTx::BusRdX, now);
            resp.latency = self.tag_lat() + grant.stall_from(now) + src_lat;
            self.for_other_holders(core, block, |this, c, s, w| {
                let their_fwd = this.entry(c, s, w).fwd();
                let their_tag = this.tag_ref(c, s, w);
                // Guard against a copy already freed via its owner
                // earlier in this loop.
                if this.data.is_occupied(their_fwd) && this.data.frame(their_fwd).owner == their_tag
                {
                    this.data.free(their_fwd);
                }
                this.tags.evict(c, s, w);
                inv.push(c, block);
            });
            self.ensure_free_frame(core, closest, bus, now, inv);
            let nf = self.data.alloc(closest, block, my_tag);
            self.tags.fill(core, set, way, block, NuEntry::new(MesicState::Modified, nf));
            return Ok(());
        }
        // Read: demote remote E holders to S.
        let grant = bus.transact(BusTx::BusRd, now);
        resp.latency = self.tag_lat() + grant.stall_from(now) + src_lat;
        self.for_other_holders(core, block, |this, c, s, w| {
            let e = this.entry_mut(c, s, w);
            if e.state() == MesicState::Exclusive {
                e.set_state(MesicState::Shared);
            }
        });
        if self.cfg.controlled_replication {
            // CR first use: tag copy only, pointing at the existing
            // data (the pointer return of Figure 3b).
            self.stats.pointer_transfers += 1;
            self.tags.fill(core, set, way, block, NuEntry::new(MesicState::Shared, src));
        } else {
            // Uncontrolled replication: copy the data eagerly, like a
            // private cache would.
            self.busy.push(src);
            self.ensure_free_frame(core, closest, bus, now, inv);
            let nf = self.data.alloc(closest, block, my_tag);
            self.stats.replications += 1;
            self.tags.fill(core, set, way, block, NuEntry::new(MesicState::Shared, nf));
        }
        Ok(())
    }

    // ---- audited access ---------------------------------------------------

    /// Fallible access path: like [`CacheOrg::access`] but surfaces a
    /// protocol [`Violation`] instead of panicking when the structure
    /// contradicts the sampled snoop signals (possible under the audit
    /// harness's fault injection). On `Err` the access is not counted
    /// in the statistics and any partial tag-room changes are left in
    /// a structurally benign state (an empty way at worst).
    pub fn try_access(
        &mut self,
        core: CoreId,
        block: BlockAddr,
        kind: AccessKind,
        now: Cycle,
        bus: &mut Bus,
        inv: &mut InvalScratch,
    ) -> Result<AccessResponse, Violation> {
        self.busy.clear();
        inv.begin();
        let mut resp = AccessResponse::simple(0, AccessClass::MissCapacity);
        match self.lookup(core, block) {
            Some((set, way)) => self.hit(core, set, way, block, kind, now, bus, &mut resp, inv)?,
            None => self.miss(core, block, kind, now, bus, &mut resp, inv)?,
        }
        self.stats.record_class(resp.class);
        self.stats.l1_invalidations += inv.len() as u64;
        Ok(resp)
    }

    /// Deterministically skews one randomly chosen tag entry's forward
    /// pointer to a frame that is either free or holds a different
    /// block — corruptions [`CmpNurapid::try_check_invariants`] is
    /// guaranteed to flag (`forward-pointer-live` /
    /// `forward-pointer-block`). Returns a description of the
    /// corruption, or `None` when no entry is resident yet.
    pub fn inject_tag_fault(&mut self, rng: &mut Rng) -> Option<String> {
        let entries: Vec<(CoreId, usize, usize, BlockAddr)> = self
            .tags
            .arrays()
            .flat_map(|(c, arr)| arr.iter_all().map(move |(s, w, b, _)| (c, s, w, b)))
            .collect();
        if entries.is_empty() {
            return None;
        }
        let (core, set, way, block) = entries[rng.gen_index(entries.len())];
        let cur = self.entry(core, set, way).fwd();
        let mut targets: Vec<FrameRef> = Vec::new();
        for g in 0..self.data.num_groups() {
            let gid = DGroupId(g as u8);
            for index in 0..self.data.frames_per_group() {
                let f = FrameRef { group: gid, index: index as u32 };
                if f != cur && (!self.data.is_occupied(f) || self.data.frame(f).block != block) {
                    targets.push(f);
                }
            }
        }
        let nf = *targets.get(rng.gen_index(targets.len().max(1)))?;
        self.entry_mut(core, set, way).set_fwd(nf);
        Some(format!("skewed {core} tag for {block}: fwd {cur:?} -> {nf:?}"))
    }
}

impl CacheOrg for CmpNurapid {
    fn name(&self) -> &'static str {
        "nurapid"
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
        match CmpNurapid::try_access(self, core, block, kind, now, bus, inv) {
            Ok(resp) => resp,
            Err(v) => panic!("CMP-NuRAPID protocol violation: {v}"),
        }
    }

    fn stats(&self) -> &OrgStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = OrgStats::default();
    }

    fn cores(&self) -> usize {
        self.cfg.cores
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
        CmpNurapid::try_access(self, core, block, kind, now, bus, inv)
    }

    fn audit(&self) -> Result<(), Violation> {
        self.try_check_invariants()
    }

    fn inject_tag_fault(&mut self, rng: &mut Rng) -> Option<String> {
        CmpNurapid::inject_tag_fault(self, rng)
    }
}

impl std::fmt::Debug for CmpNurapid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CmpNurapid")
            .field("cores", &self.cfg.cores)
            .field("frames_per_dgroup", &self.cfg.frames_per_dgroup())
            .field("tag_entries", &self.tags.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tag_payload_costs_four_bytes() {
        // State plus forward pointer in one word; with the 8-byte tag
        // a slot costs 12 bytes, the budget the holder summary is
        // paid from.
        assert_eq!(std::mem::size_of::<NuEntry>(), 4);
    }

    #[test]
    fn packed_payload_round_trips_every_state_at_the_field_limits() {
        let far = FrameRef { group: DGroupId(63), index: NuEntry::MAX_FRAMES as u32 - 1 };
        let near = FrameRef { group: DGroupId(0), index: 0 };
        for state in STATES {
            for fwd in [far, near] {
                let mut e = NuEntry::new(state, fwd);
                assert_eq!((e.state(), e.fwd()), (state, fwd));
                e.set_fwd(if fwd == far { near } else { far });
                assert_eq!(e.state(), state, "moving the pointer keeps the state");
                for other in STATES {
                    e.set_state(other);
                    assert_eq!(e.state(), other);
                }
                assert_ne!(e.fwd(), fwd, "changing the state keeps the pointer");
            }
        }
    }

    #[test]
    #[should_panic(expected = "frame index holds at most 8388608")]
    fn a_dgroup_larger_than_the_frame_index_is_rejected() {
        // 2^24 frames of 128 B: twice what 23 index bits can name.
        CmpNurapid::new(NurapidConfig::tiny(1, 128 << 24));
    }
}
