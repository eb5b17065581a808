//! The shared data array: d-groups, frames, and reverse pointers.
//!
//! CMP-NuRAPID's data array is divided into distance groups
//! (d-groups), each a pool of block frames with a single uniform
//! access latency per core. Frames are not set-indexed — distance
//! associativity lets any block live in any frame — so navigation is
//! entirely pointer-based: tag entries hold *forward pointers*
//! ([`FrameRef`]) into the data array, and each occupied frame holds
//! a *reverse pointer* ([`TagRef`]) back to the single tag entry that
//! owns it (used by the replacement policies, Section 2.1).

use cmp_mem::{BlockAddr, CoreId, L2Vec, Rng, Storage};

/// Identifier of a d-group (d-group `a` in Figure 1 is 0, etc.).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DGroupId(pub u8);

impl DGroupId {
    /// The d-group's index for table lookups.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Forward pointer: the frame holding a block's data.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FrameRef {
    /// The d-group.
    pub group: DGroupId,
    /// Frame index within the d-group.
    pub index: u32,
}

/// Reverse pointer: the tag entry that owns a frame.
///
/// Only the owner may replace the frame; other sharers' tag entries
/// may point at the frame but are reached via BusRepl, not via the
/// reverse pointer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TagRef {
    /// Owning core.
    pub core: CoreId,
    /// Set index in the owner's tag array.
    pub set: u32,
    /// Way within the set.
    pub way: u8,
}

/// Contents of one occupied frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Frame {
    /// The block resident in this frame.
    pub block: BlockAddr,
    /// Reverse pointer to the owning tag entry.
    pub owner: TagRef,
}

/// One frame's storage: its contents and its place in the occupied
/// list.
#[derive(Clone, Copy, Debug)]
struct Slot {
    /// The contents, meaningful only while the frame is occupied.
    frame: Frame,
    /// Position of the frame in `occupied`, or [`FREE`].
    pos: u32,
}

/// `Slot::pos` of a free frame.
const FREE: u32 = u32::MAX;

/// One d-group's frame pool with O(1) alloc/free and O(1) uniform
/// random victim selection (the demotion policy chooses victims at
/// random because LRU over thousands of frames is infeasible,
/// Section 3.3.2).
///
/// Storage grows as frames are first used: `slots` holds frames
/// `0..slots.len()` (the high-water mark), and a released frame goes
/// on a stack that `alloc` pops before it takes a never-used one.
/// This hands out indices in exactly the order of a LIFO free stack
/// pre-filled with `capacity-1, ..., 1, 0`, so a d-group a run never
/// fills costs memory only for the frames the run touched. Each
/// [`L2Vec`] reserves the whole capacity and never moves; on demand
/// its pages are backed as frames are first written, and with
/// [`Storage::Eager`] at construction instead.
#[derive(Clone, Debug)]
struct DGroupStore {
    slots: L2Vec<Slot>,
    /// Released frame indices (stack), all below the high-water mark.
    released: L2Vec<u32>,
    /// Occupied frame indices (dense, unordered).
    occupied: L2Vec<u32>,
    /// Frames in the d-group.
    capacity: usize,
}

impl DGroupStore {
    fn new(capacity: usize, storage: Storage) -> Self {
        DGroupStore {
            slots: L2Vec::with_capacity(capacity, storage),
            released: L2Vec::with_capacity(capacity, storage),
            occupied: L2Vec::with_capacity(capacity, storage),
            capacity,
        }
    }

    fn has_free(&self) -> bool {
        !self.released.is_empty() || self.slots.len() < self.capacity
    }

    fn is_occupied(&self, idx: u32) -> bool {
        self.slots.get(idx as usize).is_some_and(|s| s.pos != FREE)
    }

    /// The slot of an occupied frame.
    ///
    /// # Panics
    ///
    /// Panics with `what` if the frame is free.
    fn occupied_slot(&mut self, idx: u32, what: &str) -> &mut Slot {
        self.slots.get_mut(idx as usize).filter(|s| s.pos != FREE).expect(what)
    }

    fn get(&self, idx: u32) -> &Frame {
        let slot = self.slots.get(idx as usize).filter(|s| s.pos != FREE);
        &slot.expect("access to a free frame").frame
    }

    fn alloc(&mut self, frame: Frame) -> u32 {
        let pos = self.occupied.len() as u32;
        let idx = match self.released.pop() {
            Some(idx) => {
                self.slots[idx as usize] = Slot { frame, pos };
                idx
            }
            None => {
                assert!(self.slots.len() < self.capacity, "alloc from a full d-group");
                self.slots.push(Slot { frame, pos });
                self.slots.len() as u32 - 1
            }
        };
        self.occupied.push(idx);
        idx
    }

    fn release(&mut self, idx: u32) -> Frame {
        let slot = self.occupied_slot(idx, "free of an empty frame");
        let p = std::mem::replace(&mut slot.pos, FREE) as usize;
        let frame = slot.frame;
        let last = self.occupied.pop().expect("occupied list nonempty");
        if last != idx {
            self.occupied[p] = last;
            self.slots[last as usize].pos = p as u32;
        }
        self.released.push(idx);
        frame
    }
}

/// The full shared data array (all d-groups).
///
/// # Example
///
/// ```
/// use cmp_nurapid::{DataArray, DGroupId, TagRef};
/// use cmp_mem::{BlockAddr, CoreId};
///
/// let mut data = DataArray::new(4, 16);
/// let owner = TagRef { core: CoreId(0), set: 0, way: 0 };
/// let frame = data.alloc(DGroupId(0), BlockAddr(9), owner);
/// assert_eq!(data.frame(frame).block, BlockAddr(9));
/// assert_eq!(data.occupied(DGroupId(0)), 1);
/// ```
#[derive(Clone, Debug)]
pub struct DataArray {
    groups: Vec<DGroupStore>,
}

impl DataArray {
    /// Creates `groups` d-groups of `frames_per_group` frames each,
    /// backed by memory as runs use them.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(groups: usize, frames_per_group: usize) -> Self {
        Self::with_storage(groups, frames_per_group, Storage::OnDemand)
    }

    /// [`DataArray::new`] with the frames backed by memory as
    /// `storage` says.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn with_storage(groups: usize, frames_per_group: usize, storage: Storage) -> Self {
        assert!(groups > 0 && frames_per_group > 0, "data array dimensions must be nonzero");
        let groups = (0..groups).map(|_| DGroupStore::new(frames_per_group, storage)).collect();
        DataArray { groups }
    }

    /// Number of d-groups.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Frames per d-group.
    pub fn frames_per_group(&self) -> usize {
        self.groups[0].capacity
    }

    /// Number of occupied frames in a d-group.
    pub fn occupied(&self, g: DGroupId) -> usize {
        self.groups[g.index()].occupied.len()
    }

    /// `true` if the d-group has at least one free frame.
    pub fn has_free(&self, g: DGroupId) -> bool {
        self.groups[g.index()].has_free()
    }

    /// Allocates a frame in `g` for `block`, owned by `owner`.
    ///
    /// # Panics
    ///
    /// Panics if the d-group is full (callers must create space
    /// first via the replacement policies).
    pub fn alloc(&mut self, g: DGroupId, block: BlockAddr, owner: TagRef) -> FrameRef {
        let index = self.groups[g.index()].alloc(Frame { block, owner });
        FrameRef { group: g, index }
    }

    /// Frees a frame, returning its contents.
    ///
    /// # Panics
    ///
    /// Panics if the frame is already free.
    pub fn free(&mut self, frame: FrameRef) -> Frame {
        self.groups[frame.group.index()].release(frame.index)
    }

    /// `true` if the frame currently holds a block.
    pub fn is_occupied(&self, frame: FrameRef) -> bool {
        self.groups[frame.group.index()].is_occupied(frame.index)
    }

    /// The contents of an occupied frame.
    ///
    /// # Panics
    ///
    /// Panics if the frame is free.
    pub fn frame(&self, frame: FrameRef) -> &Frame {
        self.groups[frame.group.index()].get(frame.index)
    }

    /// Rewrites a frame's reverse pointer (ownership transfer, or a
    /// tag entry that moved during promotion bookkeeping).
    pub fn set_owner(&mut self, frame: FrameRef, owner: TagRef) {
        self.groups[frame.group.index()]
            .occupied_slot(frame.index, "access to a free frame")
            .frame
            .owner = owner;
    }

    /// Picks a uniformly random occupied frame in `g`, excluding any
    /// frame in `busy` (the busy-marking that protects frames being
    /// read from concurrent replacement, Section 3.1's busy bit).
    ///
    /// Returns `None` if every occupied frame is busy or the group is
    /// empty.
    pub fn random_occupied(
        &self,
        g: DGroupId,
        rng: &mut Rng,
        busy: &[FrameRef],
    ) -> Option<FrameRef> {
        let store = &self.groups[g.index()];
        if store.occupied.is_empty() {
            return None;
        }
        let is_busy = |idx: u32| busy.iter().any(|b| b.group == g && b.index == idx);
        // Rejection-sample a few times, then fall back to a scan.
        for _ in 0..8 {
            let idx = store.occupied[rng.gen_index(store.occupied.len())];
            if !is_busy(idx) {
                return Some(FrameRef { group: g, index: idx });
            }
        }
        store
            .occupied
            .iter()
            .copied()
            .find(|&idx| !is_busy(idx))
            .map(|index| FrameRef { group: g, index })
    }

    /// Iterates over all occupied frames as `(FrameRef, &Frame)`.
    pub fn iter_occupied(&self) -> impl Iterator<Item = (FrameRef, &Frame)> + '_ {
        self.groups.iter().enumerate().flat_map(|(g, store)| {
            store.occupied.iter().map(move |&idx| {
                (
                    FrameRef { group: DGroupId(g as u8), index: idx },
                    &store.slots[idx as usize].frame,
                )
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn owner(core: u8) -> TagRef {
        TagRef { core: CoreId(core), set: 0, way: 0 }
    }

    #[test]
    fn alloc_free_roundtrip() {
        let mut d = DataArray::new(2, 4);
        let f = d.alloc(DGroupId(1), BlockAddr(5), owner(2));
        assert_eq!(f.group, DGroupId(1));
        assert_eq!(d.occupied(DGroupId(1)), 1);
        assert_eq!(d.frame(f).block, BlockAddr(5));
        assert_eq!(d.frame(f).owner.core, CoreId(2));
        let contents = d.free(f);
        assert_eq!(contents.block, BlockAddr(5));
        assert_eq!(d.occupied(DGroupId(1)), 0);
        assert!(d.has_free(DGroupId(1)));
    }

    #[test]
    fn fills_to_capacity_then_panics() {
        let mut d = DataArray::new(1, 2);
        d.alloc(DGroupId(0), BlockAddr(1), owner(0));
        d.alloc(DGroupId(0), BlockAddr(2), owner(0));
        assert!(!d.has_free(DGroupId(0)));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut d2 = d.clone();
            d2.alloc(DGroupId(0), BlockAddr(3), owner(0));
        }));
        assert!(r.is_err(), "alloc on full group must panic");
    }

    #[test]
    fn random_occupied_covers_all_frames() {
        let mut d = DataArray::new(1, 8);
        for b in 0..8 {
            d.alloc(DGroupId(0), BlockAddr(b), owner(0));
        }
        let mut rng = Rng::new(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(d.random_occupied(DGroupId(0), &mut rng, &[]).unwrap().index);
        }
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn random_occupied_respects_busy_marks() {
        let mut d = DataArray::new(1, 2);
        let f0 = d.alloc(DGroupId(0), BlockAddr(0), owner(0));
        let f1 = d.alloc(DGroupId(0), BlockAddr(1), owner(0));
        let mut rng = Rng::new(9);
        for _ in 0..50 {
            let pick = d.random_occupied(DGroupId(0), &mut rng, &[f0]).unwrap();
            assert_eq!(pick, f1);
        }
        assert_eq!(d.random_occupied(DGroupId(0), &mut rng, &[f0, f1]), None);
    }

    #[test]
    fn random_occupied_empty_group() {
        let d = DataArray::new(1, 2);
        let mut rng = Rng::new(1);
        assert_eq!(d.random_occupied(DGroupId(0), &mut rng, &[]), None);
    }

    #[test]
    fn set_owner_transfers_reverse_pointer() {
        let mut d = DataArray::new(1, 1);
        let f = d.alloc(DGroupId(0), BlockAddr(9), owner(0));
        d.set_owner(f, owner(3));
        assert_eq!(d.frame(f).owner.core, CoreId(3));
    }

    #[test]
    fn free_list_reuses_frames() {
        let mut d = DataArray::new(1, 1);
        let f = d.alloc(DGroupId(0), BlockAddr(1), owner(0));
        d.free(f);
        let f2 = d.alloc(DGroupId(0), BlockAddr(2), owner(1));
        assert_eq!(f.index, f2.index, "single frame must be reused");
    }

    #[test]
    fn frames_come_lowest_first_and_released_ones_last_in_first_out() {
        let mut d = DataArray::new(1, 4);
        let alloc = |d: &mut DataArray| d.alloc(DGroupId(0), BlockAddr(1), owner(0)).index;
        assert_eq!((alloc(&mut d), alloc(&mut d), alloc(&mut d)), (0, 1, 2));
        d.free(FrameRef { group: DGroupId(0), index: 0 });
        d.free(FrameRef { group: DGroupId(0), index: 2 });
        assert_eq!((alloc(&mut d), alloc(&mut d), alloc(&mut d)), (2, 0, 3));
        assert!(!d.has_free(DGroupId(0)));
        assert!(!d.is_occupied(FrameRef { group: DGroupId(0), index: 9 }), "past the capacity");
    }

    #[test]
    fn a_rebuilt_eager_array_hands_out_frames_lowest_first() {
        let (groups, frames) = (4, 300);
        let buffers = |d: &DataArray| {
            let mut ptrs: Vec<usize> = d
                .groups
                .iter()
                .flat_map(|g| [g.slots.as_ptr().cast(), g.released.as_ptr(), g.occupied.as_ptr()])
                .map(|p| p as usize)
                .collect();
            ptrs.sort_unstable();
            ptrs
        };
        let mut dirty = DataArray::with_storage(groups, frames, Storage::Eager);
        for g in 0..groups as u8 {
            let refs: Vec<_> =
                (0..250).map(|b| dirty.alloc(DGroupId(g), BlockAddr(b), owner(g))).collect();
            for f in refs.iter().step_by(3) {
                dirty.free(*f);
            }
        }
        let dirty_buffers = buffers(&dirty);
        drop(dirty);
        let mut rebuilt = DataArray::with_storage(groups, frames, Storage::Eager);
        assert_eq!(buffers(&rebuilt), dirty_buffers, "the dropped frame pools are reused");
        let mut fresh = DataArray::with_storage(groups, frames, Storage::Eager);
        assert_eq!(rebuilt.iter_occupied().count(), 0);
        for g in (0..groups as u8).map(DGroupId) {
            assert_eq!(rebuilt.occupied(g), 0);
            assert!(!rebuilt.is_occupied(FrameRef { group: g, index: 0 }));
            for index in 0..frames as u32 {
                let want = FrameRef { group: g, index };
                assert_eq!(rebuilt.alloc(g, BlockAddr(index as u64), owner(1)), want);
                assert_eq!(fresh.alloc(g, BlockAddr(index as u64), owner(1)), want);
            }
            assert!(!rebuilt.has_free(g));
        }
    }

    #[test]
    fn iter_occupied_spans_groups() {
        let mut d = DataArray::new(3, 2);
        d.alloc(DGroupId(0), BlockAddr(1), owner(0));
        d.alloc(DGroupId(2), BlockAddr(2), owner(1));
        let blocks: Vec<_> = d.iter_occupied().map(|(_, f)| f.block.0).collect();
        assert_eq!(blocks.len(), 2);
        assert!(blocks.contains(&1) && blocks.contains(&2));
    }
}
