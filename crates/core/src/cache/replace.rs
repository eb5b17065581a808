//! Replacement machinery: data replacement, distance replacement
//! (demotion chains), and promotion (Section 3.3).

use cmp_cache::InvalScratch;
use cmp_coherence::mesic::MesicState;
use cmp_coherence::{Bus, BusTx};
use cmp_mem::{BlockAddr, CoreId, Cycle};

use crate::cache::CmpNurapid;
use crate::config::PromotionPolicy;
use crate::data_array::{DGroupId, FrameRef, TagRef};

impl CmpNurapid {
    /// Makes room for a new tag entry for `block` in `core`'s array:
    /// picks a victim in the order invalid → private → shared (LRU
    /// within each category, Section 3.3.2) and evicts it. Returns
    /// the victim way and, if the eviction freed a data frame, the
    /// d-group that now has the hole (the demotion chain's preferred
    /// stopping point).
    pub(crate) fn make_tag_room(
        &mut self,
        core: CoreId,
        block: BlockAddr,
        bus: &mut Bus,
        now: Cycle,
        inv: &mut InvalScratch,
    ) -> (usize, usize, Option<DGroupId>) {
        let arr = self.tags.array(core);
        let set = arr.set_of(block);
        let way = arr.victim_by(set, |e| match e {
            None => 0,
            Some(e) if e.payload.state().is_private() => 1,
            Some(_) => 2,
        });
        let mut hole = None;
        if let Some(victim_block) = self.tags.array(core).block_at(set, way) {
            let entry = *self.entry(core, set, way);
            let my_tag = self.tag_ref(core, set, way);
            if self.data.frame(entry.fwd()).owner == my_tag {
                // Owner: the data goes too. For a shared block this
                // broadcasts BusRepl so other sharers drop their tag
                // copies; for a private block only this tag falls.
                hole = Some(entry.fwd().group);
                self.evict_frame(entry.fwd(), bus, now, inv);
                debug_assert!(
                    self.tags.array(core).block_at(set, way).is_none(),
                    "evict_frame must drop the owner tag"
                );
            } else {
                // Non-owner sharer: drop only the tag; the data stays
                // for the other sharers (Section 3.3.2).
                self.tags.evict(core, set, way);
                inv.push(core, victim_block);
            }
        }
        (set, way, hole)
    }

    /// Evicts a data frame from the cache entirely: the owner's tag
    /// entry falls with it, and for shared-category blocks a BusRepl
    /// broadcast drops every other tag entry pointing at the frame
    /// (Section 3.1's replacement rule).
    pub(crate) fn evict_frame(
        &mut self,
        frame: FrameRef,
        bus: &mut Bus,
        now: Cycle,
        inv: &mut InvalScratch,
    ) {
        let f = *self.data.frame(frame);
        let owner_state = self.owner_state(f.owner);
        if owner_state.is_shared_category() {
            bus.post(BusTx::BusRepl, now);
            if owner_state == MesicState::Communication {
                self.stats.writebacks += 1;
            }
            // A copy of the candidate mask: the walk evicts as it goes.
            for c in self.tags.candidates(f.block) {
                if let Some((s, w)) = self.lookup(c, f.block) {
                    if self.entry(c, s, w).fwd() == frame {
                        self.tags.evict(c, s, w);
                        inv.push(c, f.block);
                        self.stats.busrepl_invalidations += 1;
                    }
                }
            }
            self.stats.evictions_shared += 1;
        } else {
            if owner_state == MesicState::Modified {
                self.stats.writebacks += 1;
            }
            self.tags.evict(f.owner.core, f.owner.set as usize, f.owner.way as usize);
            inv.push(f.owner.core, f.block);
            self.stats.evictions_private += 1;
        }
        self.data.free(frame);
    }

    /// Guarantees a free frame in `target` by running the distance-
    /// replacement demotion chain (Section 3.3.2): starting at
    /// `target`, repeatedly demote a randomly chosen block to the
    /// next-fastest d-group in `core`'s ranking. The chain ends
    /// naturally at the first d-group with a free frame (this is
    /// capacity stealing: the demoted block lands in a neighbour's
    /// unused frame, and covers the "specific d-group" case where an
    /// eviction just vacated a frame). When a chosen victim is a
    /// shared block it is evicted rather than demoted, ending the
    /// chain there. Only when *every* d-group on the path is full —
    /// the situation where demotions would cycle back to the first
    /// d-group — is a stop d-group chosen at random and its victim
    /// evicted from the cache (the paper's cycle-breaking rule).
    pub(crate) fn ensure_free_frame(
        &mut self,
        core: CoreId,
        target: DGroupId,
        bus: &mut Bus,
        now: Cycle,
        inv: &mut InvalScratch,
    ) {
        if self.data.has_free(target) {
            return;
        }
        let groups = self.ranking.order(core).len();
        let start = self.ranking.rank_of(core, target.index());
        // Natural termination: the earliest hole along the preference
        // path. If the whole path is full, pick a random stop.
        let stop_rank = (start + 1..groups)
            .find(|&r| self.data.has_free(DGroupId(self.ranking.at(core, r) as u8)))
            .unwrap_or_else(|| start + self.rng.gen_index(groups - start));
        let mut carried: Option<(BlockAddr, TagRef)> = None;
        for rank in start..=stop_rank {
            let g = DGroupId(self.ranking.at(core, rank) as u8);
            if rank > start && self.data.has_free(g) {
                // A hole: the demoted block lands here.
                let (b, o) = carried.take().expect("a block is in flight past the first rank");
                let nf = self.data.alloc(g, b, o);
                self.update_fwd(o, nf);
                return;
            }
            let victim = self
                .data
                .random_occupied(g, &mut self.rng, &self.busy)
                .expect("a full d-group offers a victim");
            let victim_state = self.owner_state(self.data.frame(victim).owner);
            if victim_state.is_shared_category() || rank == stop_rank {
                // Shared blocks are evicted, never demoted
                // (Section 3.3.2); at the stop d-group the chosen
                // block is evicted to end the chain.
                self.evict_frame(victim, bus, now, inv);
                if let Some((b, o)) = carried.take() {
                    let nf = self.data.alloc(g, b, o);
                    self.update_fwd(o, nf);
                }
                return;
            }
            // Demote: the victim becomes the block in flight; the
            // previously carried block takes its frame.
            let contents = self.data.free(victim);
            if let Some((b, o)) = carried.take() {
                let nf = self.data.alloc(g, b, o);
                self.update_fwd(o, nf);
            }
            carried = Some((contents.block, contents.owner));
            self.stats.demotions += 1;
        }
        unreachable!("the demotion chain terminates at the stop d-group");
    }

    /// Promotes a private block hit in a farther d-group toward the
    /// requestor (Section 3.3.1): *fastest* moves it directly to the
    /// closest d-group, *next-fastest* one preference rank closer.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn promote(
        &mut self,
        core: CoreId,
        set: usize,
        way: usize,
        block: BlockAddr,
        bus: &mut Bus,
        now: Cycle,
        inv: &mut InvalScratch,
    ) {
        let fwd = self.entry(core, set, way).fwd();
        let cur_rank = self.ranking.rank_of(core, fwd.group.index());
        debug_assert!(cur_rank > 0, "promotion of a block already closest");
        let target_rank = match self.cfg.promotion {
            PromotionPolicy::Fastest => 0,
            PromotionPolicy::NextFastest => cur_rank - 1,
        };
        let target = DGroupId(self.ranking.at(core, target_rank) as u8);
        let contents = self.data.free(fwd);
        debug_assert_eq!(contents.block, block, "reverse pointer names the promoted block");
        debug_assert_eq!(
            contents.owner,
            self.tag_ref(core, set, way),
            "private blocks are self-owned"
        );
        self.ensure_free_frame(core, target, bus, now, inv);
        let nf = self.data.alloc(target, block, contents.owner);
        self.entry_mut(core, set, way).set_fwd(nf);
        self.stats.promotions += 1;
    }
}
