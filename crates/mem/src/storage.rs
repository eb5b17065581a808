//! Where an L2's tag and data storage lives, when it is backed by
//! memory, and how a dropped L2's storage is recycled.
//!
//! Every L2 buffer (tags and payloads, recency ranks, the holder
//! summary, d-group frames) is an [`L2Vec`], a buffer of bounded length
//! built as a [`Storage`] says. An on-demand buffer is a zeroed,
//! uninitialized or growing allocation of the global allocator, so the
//! OS backs a page only when a run first writes it. That is what makes a 64-core
//! machine's 128 MB L2, which a run leaves mostly empty, cheap to
//! build.
//!
//! At the paper's 8 MB a run that warms the cache writes nearly every
//! page of its tag arrays anyway, so on-demand backing saves little
//! there and costs predictability: whether a freed and reused
//! allocation comes back resident depends on the allocator's history,
//! so a process that simulates several runs at once (the `cmp-serve`
//! service) reaches a peak that depends on which runs happened to
//! overlap. [`Storage::for_l2`] therefore backs L2s of at most
//! [`crate::L2_TOTAL_BYTES`] in full at construction
//! ([`Storage::Eager`]).
//!
//! Backing costs a page fault per page, and the allocator hands a
//! dropped L2's megabytes back to the OS, so a process that builds one
//! machine after another (a figure sweep) would fault the same pages in
//! again for every build. Eager buffers are therefore carved from an
//! *arena* of the building thread: one global allocation of 8 MiB,
//! whose pages stay with the thread once written. One rule serves
//! every L2 request on that thread:
//!
//! - an eager request takes the whole pages after the previous eager
//!   request's, or the arena's first pages if no buffer carved from the
//!   arena is alive any more. The pages are cleared if the request is
//!   zeroed and backed otherwise; pages an earlier request wrote are
//!   resident already, so neither faults them in again;
//! - an on-demand request gives the arena back to the allocator as
//!   soon as no buffer carved from it is alive; the next eager request
//!   allocates a new one.
//!
//! So a build that follows the drop of a machine at least as large
//! faults nothing, and a thread keeps at most the most eager storage it
//! has had alive at once, all of which was resident then anyway. A
//! buffer holds its arena alive wherever it is dropped, so buffers may
//! move between threads. An eager request the arena cannot hold is a
//! global allocation backed at construction and freed when dropped.

use std::alloc::{self, Layout};
use std::cell::RefCell;
use std::mem::{ManuallyDrop, MaybeUninit};
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;
use std::sync::Arc;

use crate::L2_TOTAL_BYTES;

/// When a structure's storage is backed by memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Storage {
    /// As a run first writes each page.
    OnDemand,
    /// At construction: every page is written once, so the
    /// structure's resident size is fixed from the start. Its pages are
    /// recycled (see the module docs).
    Eager,
}

impl Storage {
    /// The policy for an L2 of `l2_bytes` in total: [`Storage::Eager`]
    /// up to the paper's 8 MB, [`Storage::OnDemand`] above.
    ///
    /// ```
    /// use cmp_mem::Storage;
    ///
    /// assert_eq!(Storage::for_l2(8 << 20), Storage::Eager);
    /// assert_eq!(Storage::for_l2(128 << 20), Storage::OnDemand);
    /// ```
    pub fn for_l2(l2_bytes: usize) -> Storage {
        if l2_bytes <= L2_TOTAL_BYTES {
            Storage::Eager
        } else {
            Storage::OnDemand
        }
    }
}

/// Bytes of a page: arena requests take whole pages, and backing
/// writes one byte in each page.
const PAGE_BYTES: usize = 4096;

/// Writes a zero byte every [`PAGE_BYTES`] of the `len` bytes from
/// `ptr` and into the last of them, so the OS backs every page they
/// span now rather than at first use.
///
/// # Safety
///
/// The bytes must be writable, owned by the caller, and either zero or
/// uninitialized: the contents do not change.
unsafe fn prefault(ptr: *mut u8, len: usize) {
    for offset in (0..len).step_by(PAGE_BYTES).chain(len.checked_sub(1)) {
        // SAFETY: `offset < len`, so the byte lies inside the range.
        // Volatile, because a plain store of the zero already there may
        // be optimized away, and the point is the page fault.
        unsafe { ptr.add(offset).write_volatile(0) };
    }
}

/// Bytes of a thread's arena: an 8 MB machine's eager storage fits
/// (a 4-core NuRAPID takes 4.1 MiB). Only the pages requests write
/// become resident.
const ARENA_BYTES: usize = L2_TOTAL_BYTES;

/// The memory of an arena: a global allocation of [`ARENA_BYTES`],
/// freed when the last buffer carved from it and the thread that
/// owns it have both let it go.
struct Block(NonNull<u8>);

// SAFETY: the block is plain memory, and each buffer carved from it
// owns its own pages; the `Block` itself only frees it.
unsafe impl Send for Block {}
// SAFETY: as for `Send`; a shared `Block` is never read or written.
unsafe impl Sync for Block {}

impl Block {
    fn layout() -> Layout {
        Layout::from_size_align(ARENA_BYTES, PAGE_BYTES).expect("arena layout")
    }

    /// A new block, or `None` if the allocator has no room for one
    /// (eager requests then take global allocations of their own).
    fn new() -> Option<Block> {
        // SAFETY: the layout's size is not zero.
        let ptr = unsafe { alloc::alloc(Block::layout()) };
        NonNull::new(ptr).map(Block)
    }
}

impl Drop for Block {
    fn drop(&mut self) {
        // SAFETY: `new` allocated the block with this layout, and no
        // buffer carved from it is alive (each holds an `Arc` of it).
        unsafe { alloc::dealloc(self.0.as_ptr(), Block::layout()) };
    }
}

/// A thread's arena.
struct Arena {
    block: Option<Arc<Block>>,
    /// Offset of the next request's first page.
    next: usize,
    /// Bytes from the start of the block that requests have written.
    touched: usize,
}

thread_local! {
    static ARENA: RefCell<Arena> =
        const { RefCell::new(Arena { block: None, next: 0, touched: 0 }) };
}

/// `bytes` (whole pages) of the thread's arena for an eager request,
/// backed, and zero if `zeroed`, with the block they lie in; `None`
/// if the arena cannot hold them.
fn carve(bytes: usize, zeroed: bool) -> Option<(NonNull<u8>, Arc<Block>)> {
    ARENA
        .try_with(|arena| {
            let Arena { block, next, touched } = &mut *arena.borrow_mut();
            let block = match block {
                Some(block) => block,
                None => {
                    (*next, *touched) = (0, 0);
                    block.insert(Arc::new(Block::new()?))
                }
            };
            if Arc::get_mut(block).is_some() {
                // No buffer carved from the arena is alive.
                *next = 0;
            }
            if ARENA_BYTES - *next < bytes {
                return None;
            }
            let offset = *next;
            *next += bytes;
            *touched = (*touched).max(*next);
            // SAFETY: `offset + bytes <= ARENA_BYTES`, so the pages lie
            // inside the block, and no live buffer holds them: buffers
            // carved since the last restart lie below `offset`, and none
            // carved before is alive.
            unsafe {
                let ptr = block.0.add(offset);
                if zeroed {
                    ptr.as_ptr().write_bytes(0, bytes);
                } else {
                    prefault(ptr.as_ptr(), bytes);
                }
                Some((ptr, Arc::clone(block)))
            }
        })
        .ok()
        .flatten()
}

/// Lets the thread's arena go.
fn give_up() {
    let block = ARENA.try_with(|arena| arena.borrow_mut().block.take());
    drop(block);
}

/// Bytes of the current thread's arena that requests have written:
/// the pages of its live buffers and those kept for later ones, all
/// of which an on-demand request lets go. For tests.
#[doc(hidden)]
pub fn retained_bytes() -> usize {
    ARENA
        .try_with(|arena| {
            let arena = arena.borrow();
            if arena.block.is_some() {
                arena.touched
            } else {
                0
            }
        })
        .unwrap_or(0)
}

/// A buffer of an L2 structure with a fixed limit on its length,
/// built as its [`Storage`] says (see the module docs). It
/// dereferences to the slice of its elements; only buffers of `Copy`
/// elements can be built, so dropping one runs no destructors.
///
/// ```
/// use cmp_mem::{L2Vec, Storage};
///
/// let mut tags = L2Vec::zeroed(512, Storage::Eager);
/// assert!(tags.iter().all(|&t| t == 0));
/// tags[3] = 7;
/// drop(tags);
/// let again = L2Vec::zeroed(512, Storage::Eager); // recycled, cleared
/// assert!(again.iter().all(|&t| t == 0));
/// ```
pub struct L2Vec<T> {
    ptr: NonNull<T>,
    len: usize,
    /// The most elements the buffer may hold.
    capacity: usize,
    /// The elements its memory holds: `capacity`, except in an
    /// on-demand buffer built empty and in a clone, which grow as
    /// elements are pushed, like a `Vec`.
    allocated: usize,
    /// The arena the buffer was carved from, or `None` if it is a
    /// global allocation.
    arena: Option<Arc<Block>>,
}

// SAFETY: `ptr`, `len` and `allocated` own the elements as a `Vec`'s
// do, `capacity` is a plain limit, and `arena` is an `Arc` of a
// `Send + Sync` block that keeps the elements' memory allocated
// wherever the buffer is dropped.
unsafe impl<T: Send> Send for L2Vec<T> {}
// SAFETY: shared access only reads the elements.
unsafe impl<T: Sync> Sync for L2Vec<T> {}

impl<T: Copy> L2Vec<T> {
    /// An empty buffer with room for `capacity` elements, backed as
    /// `storage` says. An on-demand one allocates as elements are
    /// pushed, so its memory grows with its length, as a `Vec`'s does.
    pub fn with_capacity(capacity: usize, storage: Storage) -> Self {
        match storage {
            Storage::Eager => Self::allocated(0, capacity, false, storage),
            Storage::OnDemand => {
                give_up();
                L2Vec { ptr: NonNull::dangling(), len: 0, capacity, allocated: 0, arena: None }
            }
        }
    }

    /// A buffer of `len` elements and room for `capacity`. Only
    /// `zeroed` buffers may have a non-zero `len`, and only for element
    /// types whose all-zero bytes are a value.
    fn allocated(len: usize, capacity: usize, zeroed: bool, storage: Storage) -> Self {
        let layout = Layout::array::<T>(capacity).expect("L2 buffer size overflows");
        assert!(layout.align() <= PAGE_BYTES, "L2 elements must align within a page");
        let mut buffer =
            L2Vec { ptr: NonNull::dangling(), len, capacity, allocated: capacity, arena: None };
        if layout.size() == 0 {
            return buffer;
        }
        match storage {
            Storage::Eager => {
                let bytes = layout.size().next_multiple_of(PAGE_BYTES);
                if let Some((ptr, block)) = carve(bytes, zeroed) {
                    buffer.ptr = ptr.cast();
                    buffer.arena = Some(block);
                    return buffer;
                }
            }
            Storage::OnDemand => give_up(),
        }
        buffer.ptr = global(layout, zeroed).cast();
        if storage == Storage::Eager {
            // SAFETY: the allocation spans `layout.size()` bytes, is
            // owned by `buffer`, and is zero or uninitialized.
            unsafe { prefault(buffer.ptr.as_ptr().cast(), layout.size()) };
        }
        buffer
    }

    /// Appends `value`.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full.
    #[inline]
    pub fn push(&mut self, value: T) {
        assert!(self.len < self.capacity, "push onto a full L2 buffer");
        if self.len == self.allocated {
            self.grow();
        }
        // SAFETY: `len < allocated`, so the slot lies inside the
        // buffer's memory.
        unsafe { self.ptr.as_ptr().add(self.len).write(value) };
        self.len += 1;
    }

    /// Makes room for more elements, as a `Vec` would.
    #[cold]
    fn grow(&mut self) {
        // Only a buffer that was built empty on demand, or cloned, has
        // less memory than capacity, and its memory, if any, is a
        // global allocation of `allocated` elements.
        debug_assert!(self.arena.is_none());
        let mut vec = ManuallyDrop::new(if self.allocated == 0 {
            Vec::new()
        } else {
            // SAFETY: the global allocator allocated `ptr` for exactly
            // `allocated` elements (in `global` or an earlier `grow`),
            // and the first `len` are initialized. The `Vec` takes the
            // memory over, and `self` takes it back below.
            unsafe { Vec::from_raw_parts(self.ptr.as_ptr(), self.len, self.allocated) }
        });
        vec.reserve(1);
        self.ptr = NonNull::new(vec.as_mut_ptr()).expect("a Vec with room has memory");
        self.allocated = vec.capacity();
    }

    /// Removes and returns the last element.
    #[inline]
    pub fn pop(&mut self) -> Option<T> {
        self.len = self.len.checked_sub(1)?;
        // SAFETY: the element at the old `len - 1` was initialized.
        Some(unsafe { self.ptr.as_ptr().add(self.len).read() })
    }
}

/// A global allocation for `layout` (of non-zero size), zero if
/// `zeroed`.
fn global(layout: Layout, zeroed: bool) -> NonNull<u8> {
    // SAFETY: the layout's size is not zero.
    let ptr = unsafe {
        if zeroed {
            alloc::alloc_zeroed(layout)
        } else {
            alloc::alloc(layout)
        }
    };
    NonNull::new(ptr).unwrap_or_else(|| alloc::handle_alloc_error(layout))
}

impl L2Vec<u64> {
    /// `len` zero words.
    pub fn zeroed(len: usize, storage: Storage) -> Self {
        Self::allocated(len, len, true, storage)
    }
}

impl<T: Copy> L2Vec<MaybeUninit<T>> {
    /// `len` uninitialized elements.
    pub fn uninit(len: usize, storage: Storage) -> Self {
        Self::allocated(len, len, false, storage)
    }
}

impl<T> Drop for L2Vec<T> {
    fn drop(&mut self) {
        let layout = Layout::array::<T>(self.allocated).expect("a live buffer's layout");
        if self.arena.is_none() && layout.size() != 0 {
            // SAFETY: the global allocator allocated the buffer with
            // this layout (in `global` or `grow`).
            unsafe { alloc::dealloc(self.ptr.as_ptr().cast(), layout) };
        }
        // A buffer carved from an arena only lets the arena go.
    }
}

impl<T> Deref for L2Vec<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        // SAFETY: the first `len` elements of the buffer are
        // initialized (zeroed, `MaybeUninit` or pushed).
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl<T> DerefMut for L2Vec<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        // SAFETY: as in `deref`, and `&mut self` is exclusive.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

/// A clone is a global allocation that grows as its elements are
/// copied in; making one leaves the thread's arena alone.
impl<T: Copy> Clone for L2Vec<T> {
    fn clone(&self) -> Self {
        let mut copy = L2Vec {
            ptr: NonNull::dangling(),
            len: 0,
            capacity: self.capacity,
            allocated: 0,
            arena: None,
        };
        self.iter().for_each(|&x| copy.push(x));
        copy
    }
}

impl<T: PartialEq> PartialEq for L2Vec<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq> Eq for L2Vec<T> {}

impl<T: std::fmt::Debug> std::fmt::Debug for L2Vec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `f` on a thread of its own, so it starts with no arena.
    fn on_a_fresh_thread(f: impl FnOnce() + Send + 'static) {
        std::thread::spawn(f).join().unwrap();
    }

    #[test]
    fn the_paper_l2_is_eager_and_larger_ones_on_demand() {
        assert_eq!(Storage::for_l2(L2_TOTAL_BYTES), Storage::Eager);
        assert_eq!(Storage::for_l2(L2_TOTAL_BYTES / 2), Storage::Eager);
        assert_eq!(Storage::for_l2(2 * L2_TOTAL_BYTES), Storage::OnDemand);
    }

    #[test]
    fn a_recycled_zeroed_buffer_is_the_same_memory_cleared() {
        on_a_fresh_thread(|| {
            let mut words = L2Vec::zeroed(3000, Storage::Eager);
            words.iter_mut().for_each(|w| *w = 7);
            let ptr = words.as_ptr();
            drop(words);
            let again = L2Vec::zeroed(3000, Storage::Eager);
            assert_eq!(again.as_ptr(), ptr, "the dropped pages are reused");
            assert!(again.iter().all(|&w| w == 0));
            assert_eq!(retained_bytes(), 6 * PAGE_BYTES, "24000 bytes take 6 pages");
        });
    }

    #[test]
    fn requests_restart_from_the_first_page_only_once_none_is_alive() {
        on_a_fresh_thread(|| {
            let two = L2Vec::zeroed(1024, Storage::Eager);
            let one = L2Vec::<u32>::with_capacity(100, Storage::Eager);
            let start = two.as_ptr() as usize;
            assert_eq!(one.as_ptr() as usize, start + 2 * PAGE_BYTES, "the next whole page");
            drop(two);
            let after = L2Vec::<MaybeUninit<u64>>::uninit(1, Storage::Eager);
            assert_eq!(after.as_ptr() as usize, start + 3 * PAGE_BYTES, "one buffer still lives");
            drop((one, after));
            let mut larger = L2Vec::zeroed(2048, Storage::Eager);
            assert_eq!(larger.as_ptr() as usize, start, "back to the first page");
            assert!(larger.iter().all(|&w| w == 0));
            assert_eq!(retained_bytes(), 4 * PAGE_BYTES);
            larger[2047] = 1;
        });
    }

    #[test]
    fn requests_the_arena_cannot_hold_are_allocated_apart() {
        on_a_fresh_thread(|| {
            let most = L2Vec::<MaybeUninit<u64>>::uninit(ARENA_BYTES / 8 - 512, Storage::Eager);
            let too_many = L2Vec::zeroed(1024, Storage::Eager);
            assert!(most.arena.is_some() && too_many.arena.is_none());
            assert!(too_many.iter().all(|&w| w == 0));
            drop((most, too_many));
            let fits = L2Vec::zeroed(1024, Storage::Eager);
            assert!(fits.arena.is_some(), "the arena is free again");
        });
    }

    #[test]
    fn on_demand_buffers_give_the_arena_up() {
        on_a_fresh_thread(|| {
            let mut eager = L2Vec::zeroed(64, Storage::Eager);
            assert_eq!(retained_bytes(), PAGE_BYTES);
            let on_demand = L2Vec::zeroed(64, Storage::OnDemand);
            assert_eq!(retained_bytes(), 0, "the arena is let go");
            assert!(on_demand.iter().all(|&w| w == 0));
            eager[63] = 5; // still its own, though its arena was let go
            drop(on_demand);
            assert_eq!(retained_bytes(), 0, "on-demand buffers are never kept");
            assert_eq!(eager[63], 5);
        });
    }

    #[test]
    fn a_buffer_dropped_on_another_thread_keeps_its_memory_until_then() {
        on_a_fresh_thread(|| {
            let mut moved = L2Vec::zeroed(512, Storage::Eager);
            moved[0] = 9;
            let (to_other, from_main) = std::sync::mpsc::channel::<L2Vec<u64>>();
            let other = std::thread::spawn(move || {
                let moved = from_main.recv().unwrap();
                assert_eq!(moved[0], 9);
            });
            let ptr = moved.as_ptr();
            to_other.send(moved).unwrap();
            other.join().unwrap();
            let next = L2Vec::zeroed(512, Storage::Eager);
            assert!(next.iter().all(|&w| w == 0));
            assert_eq!(next.as_ptr(), ptr, "free again once the other thread dropped it");
        });
    }

    #[test]
    fn push_and_pop_stay_within_the_capacity() {
        for storage in [Storage::OnDemand, Storage::Eager] {
            let mut stack = L2Vec::<u32>::with_capacity(3, storage);
            assert_eq!(stack.pop(), None);
            stack.push(1);
            stack.push(2);
            stack.push(3);
            assert_eq!(*stack, [1, 2, 3]);
            assert_eq!(stack.pop(), Some(3));
            assert_eq!(*stack, [1, 2]);
            let full = std::panic::catch_unwind(move || {
                let mut stack = stack;
                stack.push(4);
                stack.push(5);
            });
            assert!(full.is_err(), "a fourth push must panic");
        }
    }

    #[test]
    fn an_on_demand_buffer_grows_as_it_is_pushed() {
        let mut frames = L2Vec::<u32>::with_capacity(5000, Storage::OnDemand);
        assert_eq!(frames.allocated, 0, "nothing is allocated up front");
        (0..3000).for_each(|i| frames.push(i));
        assert!((3000..5000).contains(&frames.allocated));
        assert!(frames.iter().copied().eq(0..3000));
        let copy = frames.clone();
        assert_eq!(copy, frames);
        assert_eq!(copy.capacity, 5000);
    }

    #[test]
    fn clones_leave_the_arena_alone() {
        on_a_fresh_thread(|| {
            let mut reserved = L2Vec::<u32>::with_capacity(16, Storage::Eager);
            reserved.push(1);
            reserved.push(2);
            let held = retained_bytes();
            let copy = reserved.clone();
            assert_eq!(copy, reserved);
            drop((copy, reserved));
            assert_eq!(retained_bytes(), held);
        });
    }
}
