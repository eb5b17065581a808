//! Structural-invariant checker for CMP-NuRAPID.
//!
//! These are the invariants the pointer machinery must maintain. The
//! non-panicking [`CmpNurapid::try_check_invariants`] is the audit
//! entry point (`cmp-audit` calls it through `CacheOrg::audit` at a
//! configurable cadence); the panicking [`CmpNurapid::check_invariants`]
//! wrapper is kept for the test suite's randomized workloads.

use std::collections::HashMap;

use cmp_cache::Violation;
use cmp_coherence::mesic::MesicState;
use cmp_mem::{BlockAddr, CoreId};

use crate::cache::CmpNurapid;
use crate::data_array::FrameRef;

impl CmpNurapid {
    /// Verifies every structural invariant, returning a structured
    /// [`Violation`] for the first one that fails:
    ///
    /// 1. **Forward pointers are live**: every tag entry's frame is
    ///    occupied and holds the entry's block.
    /// 2. **Reverse pointers are live**: every occupied frame's owner
    ///    tag exists, matches the frame's block, and points back at
    ///    the frame.
    /// 3. **E/M blocks are singletons**: one tag entry on the whole
    ///    chip, which owns its frame.
    /// 4. **C blocks share one copy**: every tag entry for the block
    ///    is in C, all forward pointers agree, and exactly one frame
    ///    holds the block.
    /// 5. **S sharers point at live S copies**: every frame holding
    ///    the block is owned by a tag in state S.
    ///
    /// Before these, the tag arrays' holder summary must match their
    /// contents (`holder-summary-exact`, see [`cmp_cache::CoreTags`]).
    pub fn try_check_invariants(&self) -> Result<(), Violation> {
        self.tags.check_summary()?;
        let mut entries_by_block: HashMap<BlockAddr, Vec<(CoreId, usize, usize)>> = HashMap::new();
        // 1. tag -> frame.
        for (c, arr) in self.tags.arrays() {
            for (set, way, block, entry) in arr.iter_all() {
                if !entry.state().is_valid() {
                    return Err(Violation::at(
                        "resident-entry-valid",
                        c,
                        block,
                        "a valid MESIC state",
                        format!("{:?} (set {set}, way {way})", entry.state()),
                    ));
                }
                if !self.frame_occupied(entry.fwd()) {
                    return Err(Violation::at(
                        "forward-pointer-live",
                        c,
                        block,
                        "an occupied frame",
                        format!("free frame {:?}", entry.fwd()),
                    ));
                }
                let frame = self.data.frame(entry.fwd());
                if frame.block != block {
                    return Err(Violation::at(
                        "forward-pointer-block",
                        c,
                        block,
                        format!("frame {:?} holding {block}", entry.fwd()),
                        format!("frame holding {}", frame.block),
                    ));
                }
                entries_by_block.entry(block).or_default().push((c, set, way));
            }
        }
        // 2. frame -> tag.
        for (fref, frame) in self.data.iter_occupied() {
            let o = frame.owner;
            let arr = self.tags.array(o.core);
            let owner_block = arr.block_at(o.set as usize, o.way as usize);
            if owner_block != Some(frame.block) {
                return Err(Violation::on_block(
                    "reverse-pointer-live",
                    frame.block,
                    format!("owner tag {o:?} naming {}", frame.block),
                    format!("{owner_block:?} (frame {fref:?})"),
                ));
            }
            let entry = self.entry(o.core, o.set as usize, o.way as usize);
            if entry.fwd() != fref {
                return Err(Violation::on_block(
                    "reverse-pointer-agrees",
                    frame.block,
                    format!("owner {o:?} forward-pointing at {fref:?}"),
                    format!("forward pointer {:?}", entry.fwd()),
                ));
            }
        }
        // 3-5. per-block coherence structure.
        let frames_by_block: HashMap<BlockAddr, Vec<FrameRef>> = {
            let mut m: HashMap<BlockAddr, Vec<FrameRef>> = HashMap::new();
            for (fref, frame) in self.data.iter_occupied() {
                m.entry(frame.block).or_default().push(fref);
            }
            m
        };
        for (block, holders) in &entries_by_block {
            let states: Vec<MesicState> =
                holders.iter().map(|(c, s, w)| self.entry(*c, *s, *w).state()).collect();
            let frames = frames_by_block.get(block).map_or(&[][..], Vec::as_slice);
            if states.iter().any(|s| matches!(s, MesicState::Modified | MesicState::Exclusive)) {
                if holders.len() != 1 {
                    return Err(Violation::on_block(
                        "private-singleton",
                        *block,
                        "1 tag entry for an E/M block",
                        format!("{} entries in states {states:?}", holders.len()),
                    ));
                }
                if frames.len() != 1 {
                    return Err(Violation::on_block(
                        "private-single-copy",
                        *block,
                        "1 data copy for an E/M block",
                        format!("{} copies", frames.len()),
                    ));
                }
                let (c, s, w) = holders[0];
                let entry = self.entry(c, s, w);
                if self.data.frame(entry.fwd()).owner != self.tag_ref(c, s, w) {
                    return Err(Violation::at(
                        "private-owns-frame",
                        c,
                        *block,
                        "the E/M holder owning its frame",
                        format!("owner {:?}", self.data.frame(entry.fwd()).owner),
                    ));
                }
            }
            if states.contains(&MesicState::Communication) {
                if !states.iter().all(|s| *s == MesicState::Communication) {
                    return Err(Violation::on_block(
                        "c-uniform-states",
                        *block,
                        "all sharers of a C block in C",
                        format!("{states:?}"),
                    ));
                }
                let fwds: Vec<_> =
                    holders.iter().map(|(c, s, w)| self.entry(*c, *s, *w).fwd()).collect();
                if !fwds.windows(2).all(|w| w[0] == w[1]) {
                    return Err(Violation::on_block(
                        "c-single-pointer",
                        *block,
                        "all C sharers pointing at one data copy",
                        format!("{fwds:?}"),
                    ));
                }
                if frames.len() != 1 {
                    return Err(Violation::on_block(
                        "c-single-copy",
                        *block,
                        "1 data copy for a C block",
                        format!("{} copies", frames.len()),
                    ));
                }
            }
            if states.contains(&MesicState::Shared) {
                for fref in frames {
                    let owner = self.data.frame(*fref).owner;
                    let owner_state = self.owner_state(owner);
                    if owner_state != MesicState::Shared {
                        return Err(Violation::on_block(
                            "shared-copy-owner",
                            *block,
                            "every copy of an S block owned by an S tag",
                            format!("owner {owner:?} in {owner_state:?}"),
                        ));
                    }
                }
            }
        }
        // Orphan frames: every frame's block must have tag entries
        // (follows from 2, but check the map view is consistent too).
        for block in frames_by_block.keys() {
            if !entries_by_block.contains_key(block) {
                return Err(Violation::on_block(
                    "no-orphan-frames",
                    *block,
                    "a tag entry naming every resident block",
                    "frames holding the block with no tag entry".to_string(),
                ));
            }
        }
        Ok(())
    }

    /// Verifies every structural invariant, panicking with a
    /// diagnostic on the first violation. Kept for tests; audit
    /// harnesses use [`CmpNurapid::try_check_invariants`].
    ///
    /// # Panics
    ///
    /// Panics if any invariant is violated.
    pub fn check_invariants(&self) {
        if let Err(v) = self.try_check_invariants() {
            panic!("CMP-NuRAPID invariant violated: {v}");
        }
    }

    fn frame_occupied(&self, fref: FrameRef) -> bool {
        self.data.is_occupied(fref)
    }
}
