//! Where an L2's tag and data storage lives, when it is backed by
//! memory, and how a dropped L2's storage is recycled.
//!
//! Every L2 buffer (tags and payloads, recency ranks, the holder
//! summary, d-group frames) is an [`L2Vec`], a buffer of bounded length
//! built as a [`Storage`] says. An on-demand buffer is backed only as a
//! run first writes each page. That is what makes a 64-core machine's
//! 128 MB L2, which a run leaves mostly empty, cheap to build.
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
//! Both kinds are recycled on the building thread, so a process that
//! builds one machine after another (a figure sweep, a cores ladder)
//! does not fault the same pages in again for every build, nor clear
//! pages a run never touches. Each thread has two page sources, used
//! by one rule: a request takes the whole pages after the previous
//! request's, or the source's first pages once no buffer carved from
//! it is alive any more.
//!
//! - Eager buffers come from the thread's *arena*, one global
//!   allocation of 8 MiB. Zeroed requests are cleared and others get a
//!   byte written in each page, so the buffer is resident at once;
//!   pages an earlier request wrote are resident already, so neither
//!   faults them in again. An on-demand request gives the arena back
//!   to the allocator as soon as no buffer carved from it is alive;
//!   the next eager request allocates a new one.
//! - On-demand buffers come from the thread's *region*, one anonymous
//!   mapping of 4 GiB that reserves address space only
//!   (`MAP_NORESERVE`, without huge pages, so a written byte backs
//!   4 KiB and not 2 MiB). Pages above the region's watermark, the
//!   end of the furthest request so far, have never been handed out,
//!   so they are the kernel's zero pages until a run writes them. Below
//!   it, a zeroed request asks the kernel (`mincore`) which pages are
//!   resident: those are cleared with stores, and the rest are dropped
//!   (`MADV_DONTNEED`), so a page swapped out since is never handed
//!   back holding old data. A build after a machine at least as large
//!   thus faults nothing and clears only the pages an earlier machine
//!   wrote. The region stays with the thread until it exits.
//!
//! A buffer holds its arena or region alive wherever it is dropped, so
//! buffers may move between threads. A request its source cannot hold
//! is a global allocation of its own: backed at construction if eager,
//! zeroed or uninitialized at full size if on demand. Off Linux on
//! x86-64 and AArch64, on hosts whose pages are not 4 KiB, and where
//! the reservation fails, every on-demand request is such an
//! allocation.

use std::alloc::{self, Layout};
use std::cell::RefCell;
use std::mem::MaybeUninit;
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;
use std::sync::Arc;
use std::thread::LocalKey;

use crate::L2_TOTAL_BYTES;

/// When a structure's storage is backed by memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Storage {
    /// As a run first writes each page.
    OnDemand,
    /// At construction: every page is written once, so the
    /// structure's resident size is fixed from the start.
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

/// Bytes of a page: requests take whole pages, and backing writes one
/// byte in each page.
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

/// The calls that reserve, clear and release a region.
#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
mod os {
    use std::ffi::{c_int, c_long, c_void};
    use std::ptr::{self, NonNull};

    use super::PAGE_BYTES;

    /// Bytes of a thread's region: address space only, room for
    /// several 64-core machines (a 64-core NuRAPID reserves about
    /// 100 MiB).
    pub(super) const REGION_BYTES: usize = 1 << 32;

    const PROT_READ: c_int = 0x1;
    const PROT_WRITE: c_int = 0x2;
    const MAP_PRIVATE: c_int = 0x02;
    const MAP_ANONYMOUS: c_int = 0x20;
    const MAP_NORESERVE: c_int = 0x4000;
    const MADV_DONTNEED: c_int = 4;
    const MADV_NOHUGEPAGE: c_int = 15;
    const SC_PAGESIZE: c_int = 30;

    unsafe extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: c_long,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
        fn mincore(addr: *mut c_void, len: usize, vec: *mut u8) -> c_int;
        fn sysconf(name: c_int) -> c_long;
    }

    /// A fresh mapping of [`REGION_BYTES`] that reserves address space
    /// only, or `None` if the host's pages are not [`PAGE_BYTES`] or
    /// the kernel refuses.
    pub(super) fn reserve() -> Option<NonNull<u8>> {
        // SAFETY: `sysconf` only reads a system constant.
        if unsafe { sysconf(SC_PAGESIZE) } != PAGE_BYTES as c_long {
            return None;
        }
        // SAFETY: a new private anonymous mapping at an address the
        // kernel picks overlaps no memory the program uses.
        let ptr = unsafe {
            mmap(
                ptr::null_mut(),
                REGION_BYTES,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                -1,
                0,
            )
        };
        if ptr as isize == -1 {
            return None;
        }
        // SAFETY: the range is the mapping just made. Should the advice
        // fail, only the size of a page the kernel backs changes.
        unsafe { madvise(ptr, REGION_BYTES, MADV_NOHUGEPAGE) };
        NonNull::new(ptr.cast())
    }

    /// Unmaps a mapping made by [`reserve`].
    ///
    /// # Safety
    ///
    /// `ptr` must be a mapping made by [`reserve`] that no live buffer
    /// lies in.
    pub(super) unsafe fn release(ptr: NonNull<u8>) {
        // SAFETY: as the caller guarantees.
        unsafe { munmap(ptr.as_ptr().cast(), REGION_BYTES) };
    }

    /// Zeroes the whole pages of the `len` bytes from `ptr`: resident
    /// pages are cleared with stores, and the kernel drops the rest,
    /// which then read as zero. Clearing is correct for any page, so
    /// if `mincore` fails every page of the batch is cleared.
    ///
    /// # Safety
    ///
    /// `ptr` must be page-aligned, and the `len` bytes (a multiple of
    /// [`PAGE_BYTES`]) part of a mapping made by [`reserve`] and owned
    /// by the caller.
    pub(super) unsafe fn clear(ptr: *mut u8, len: usize) {
        let mut resident = [0u8; 1024];
        for start in (0..len).step_by(resident.len() * PAGE_BYTES) {
            let batch = (len - start).min(resident.len() * PAGE_BYTES);
            let pages = &mut resident[..batch / PAGE_BYTES];
            // SAFETY: the batch lies inside the mapping and starts on a
            // page; `pages` has a byte for each of its pages.
            if unsafe { mincore(ptr.add(start).cast(), batch, pages.as_mut_ptr()) } != 0 {
                pages.fill(1);
            }
            let mut run_start = start;
            for run in pages.chunk_by(|a, b| a & 1 == b & 1) {
                let run_len = run.len() * PAGE_BYTES;
                // SAFETY: the run's pages lie inside the batch, which
                // the caller owns.
                unsafe {
                    let run_ptr = ptr.add(run_start);
                    if run[0] & 1 == 1 || madvise(run_ptr.cast(), run_len, MADV_DONTNEED) != 0 {
                        run_ptr.write_bytes(0, run_len);
                    }
                }
                run_start += run_len;
            }
        }
    }

    /// How many of the pages of the `len` bytes from `ptr` (page-aligned,
    /// inside a mapping) are resident.
    #[cfg(test)]
    pub(super) fn resident_pages(ptr: *const u8, len: usize) -> usize {
        let mut resident = vec![0u8; len.div_ceil(PAGE_BYTES)];
        // SAFETY: `resident` has a byte for each page of the range.
        let status = unsafe { mincore(ptr.cast_mut().cast(), len, resident.as_mut_ptr()) };
        assert_eq!(status, 0, "mincore");
        resident.iter().filter(|&&r| r & 1 == 1).count()
    }
}

/// Off the hosts above no region is reserved, so nothing is cleared
/// or released.
#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
mod os {
    use std::ptr::NonNull;

    pub(super) const REGION_BYTES: usize = 0;

    pub(super) fn reserve() -> Option<NonNull<u8>> {
        None
    }

    pub(super) unsafe fn release(_ptr: NonNull<u8>) {
        unreachable!("no region is reserved on this host")
    }

    pub(super) unsafe fn clear(_ptr: *mut u8, _len: usize) {
        unreachable!("no region is reserved on this host")
    }

    #[cfg(test)]
    pub(super) fn resident_pages(_ptr: *const u8, _len: usize) -> usize {
        unreachable!("no region is reserved on this host")
    }
}

/// The memory of an arena or region, freed when the last buffer carved
/// from it and the thread that owns it have both let it go.
struct Block {
    ptr: NonNull<u8>,
    /// Which buffers it serves: an arena (a global allocation of
    /// [`ARENA_BYTES`]) serves eager ones, a region (a mapping of
    /// [`os::REGION_BYTES`]) on-demand ones.
    storage: Storage,
}

// SAFETY: the block is plain memory, and each buffer carved from it
// owns its own pages; the `Block` itself only frees it.
unsafe impl Send for Block {}
// SAFETY: as for `Send`; a shared `Block` is never read or written.
unsafe impl Sync for Block {}

impl Block {
    fn arena_layout() -> Layout {
        Layout::from_size_align(ARENA_BYTES, PAGE_BYTES).expect("arena layout")
    }

    /// A new arena, or `None` if the allocator has no room for one
    /// (eager requests then take global allocations of their own).
    fn arena() -> Option<Block> {
        // SAFETY: the layout's size is not zero.
        let ptr = unsafe { alloc::alloc(Block::arena_layout()) };
        Some(Block { ptr: NonNull::new(ptr)?, storage: Storage::Eager })
    }

    /// A new region, or `None` if none can be reserved (on-demand
    /// requests then take global allocations of their own).
    fn region() -> Option<Block> {
        Some(Block { ptr: os::reserve()?, storage: Storage::OnDemand })
    }
}

impl Drop for Block {
    fn drop(&mut self) {
        // SAFETY: `arena` or `region` made the block as its `storage`
        // says, and no buffer carved from it is alive (each holds an
        // `Arc` of it).
        unsafe {
            match self.storage {
                Storage::Eager => alloc::dealloc(self.ptr.as_ptr(), Block::arena_layout()),
                Storage::OnDemand => os::release(self.ptr),
            }
        }
    }
}

/// A thread's arena or region.
struct Pages {
    block: Option<Arc<Block>>,
    /// Offset of the next request's first page.
    next: usize,
    /// Bytes from the start of the block that requests have been handed
    /// and so may have written: the watermark.
    touched: usize,
}

impl Pages {
    const EMPTY: Pages = Pages { block: None, next: 0, touched: 0 };

    /// Takes `bytes` (whole pages) for a request from the block, made
    /// by `make` if there is none, of `size` bytes. Returns the block,
    /// the request's offset in it and the watermark before the request,
    /// or `None` if the block cannot hold it.
    fn take(
        &mut self,
        bytes: usize,
        size: usize,
        make: fn() -> Option<Block>,
    ) -> Option<(Arc<Block>, usize, usize)> {
        let block = match &mut self.block {
            Some(block) => block,
            None => {
                (self.next, self.touched) = (0, 0);
                self.block.insert(Arc::new(make()?))
            }
        };
        if Arc::get_mut(block).is_some() {
            // No buffer carved from the block is alive.
            self.next = 0;
        }
        if size - self.next < bytes {
            return None;
        }
        let (offset, touched) = (self.next, self.touched);
        self.next += bytes;
        self.touched = touched.max(self.next);
        Some((Arc::clone(block), offset, touched))
    }
}

thread_local! {
    static ARENA: RefCell<Pages> = const { RefCell::new(Pages::EMPTY) };
    static REGION: RefCell<Pages> = const { RefCell::new(Pages::EMPTY) };
}

/// `bytes` (whole pages) for a request from the thread's arena
/// (eager) or region (on demand), made ready as the module docs say
/// and zero if `zeroed`, with the block they lie in; `None` if the
/// block cannot hold them.
fn carve(storage: Storage, bytes: usize, zeroed: bool) -> Option<(NonNull<u8>, Arc<Block>)> {
    let (pages, size, make): (&LocalKey<RefCell<Pages>>, _, fn() -> _) = match storage {
        Storage::Eager => (&ARENA, ARENA_BYTES, Block::arena),
        Storage::OnDemand => (&REGION, os::REGION_BYTES, Block::region),
    };
    let (block, offset, touched) =
        pages.try_with(|pages| pages.borrow_mut().take(bytes, size, make)).ok().flatten()?;
    // SAFETY: `take` keeps `offset + bytes` within the block's `size`
    // bytes, so the pages lie inside it, and no live buffer holds them:
    // buffers carved since the last restart lie below `offset`, and
    // none carved before is alive. The block starts on a page, and
    // `offset` and `bytes` are whole pages.
    unsafe {
        let ptr = block.ptr.add(offset);
        match storage {
            Storage::Eager if zeroed => ptr.as_ptr().write_bytes(0, bytes),
            Storage::Eager => prefault(ptr.as_ptr(), bytes),
            // Pages at or above the watermark were never handed out.
            Storage::OnDemand if zeroed && offset < touched => {
                os::clear(ptr.as_ptr(), bytes.min(touched - offset))
            }
            Storage::OnDemand => {}
        }
        Some((ptr, block))
    }
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
    /// The most elements the buffer may hold; its memory has room for
    /// them all.
    capacity: usize,
    /// The arena or region the buffer was carved from, or `None` if it
    /// is a global allocation of `capacity` elements.
    block: Option<Arc<Block>>,
}

// SAFETY: `ptr` and `len` own the elements as a `Vec`'s do, `capacity`
// is a plain limit, and `block` is an `Arc` of a `Send + Sync` block
// that keeps the elements' memory allocated wherever the buffer is
// dropped.
unsafe impl<T: Send> Send for L2Vec<T> {}
// SAFETY: shared access only reads the elements.
unsafe impl<T: Sync> Sync for L2Vec<T> {}

impl<T: Copy> L2Vec<T> {
    /// An empty buffer with room for `capacity` elements, backed as
    /// `storage` says. An on-demand one is a reservation: a page is
    /// backed when a pushed element first lands in it, and the buffer
    /// never moves.
    pub fn with_capacity(capacity: usize, storage: Storage) -> Self {
        Self::allocated(0, capacity, false, storage)
    }

    /// A buffer of `len` elements and room for `capacity`. Only
    /// `zeroed` buffers may have a non-zero `len`, and only for element
    /// types whose all-zero bytes are a value.
    fn allocated(len: usize, capacity: usize, zeroed: bool, storage: Storage) -> Self {
        if storage == Storage::OnDemand {
            give_up();
        }
        let layout = Layout::array::<T>(capacity).expect("L2 buffer size overflows");
        assert!(layout.align() <= PAGE_BYTES, "L2 elements must align within a page");
        let mut buffer = L2Vec { ptr: NonNull::dangling(), len, capacity, block: None };
        if layout.size() == 0 {
            return buffer;
        }
        if let Some((ptr, block)) =
            carve(storage, layout.size().next_multiple_of(PAGE_BYTES), zeroed)
        {
            buffer.ptr = ptr.cast();
            buffer.block = Some(block);
            return buffer;
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
        // SAFETY: `len < capacity`, so the slot lies inside the
        // buffer's memory.
        unsafe { self.ptr.as_ptr().add(self.len).write(value) };
        self.len += 1;
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
        let layout = Layout::array::<T>(self.capacity).expect("a live buffer's layout");
        if self.block.is_none() && layout.size() != 0 {
            // SAFETY: `global` allocated the buffer with this layout.
            unsafe { alloc::dealloc(self.ptr.as_ptr().cast(), layout) };
        }
        // A buffer carved from an arena or region only lets it go.
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

/// A clone is an uninitialized global allocation of the same capacity
/// that the elements are copied into; making one leaves the thread's
/// arena and region alone.
impl<T: Copy> Clone for L2Vec<T> {
    fn clone(&self) -> Self {
        let layout = Layout::array::<T>(self.capacity).expect("a live buffer's layout");
        let mut copy: Self =
            L2Vec { ptr: NonNull::dangling(), len: 0, capacity: self.capacity, block: None };
        if layout.size() != 0 {
            copy.ptr = global(layout, false).cast();
        }
        // SAFETY: `copy` has room for `capacity >= len` elements in an
        // allocation of its own, and `self`'s first `len` are
        // initialized.
        unsafe { copy.ptr.as_ptr().copy_from_nonoverlapping(self.ptr.as_ptr(), self.len) };
        copy.len = self.len;
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
            assert!(most.block.is_some() && too_many.block.is_none());
            assert!(too_many.iter().all(|&w| w == 0));
            drop((most, too_many));
            let fits = L2Vec::zeroed(1024, Storage::Eager);
            assert!(fits.block.is_some(), "the arena is free again");
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
            assert_eq!(retained_bytes(), 0, "on-demand buffers are not kept in the arena");
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
    fn an_on_demand_reservation_is_backed_only_as_it_is_pushed() {
        on_a_fresh_thread(|| {
            let mut frames = L2Vec::<u32>::with_capacity(5000, Storage::OnDemand);
            let ptr = frames.as_ptr();
            let pages = |frames: &L2Vec<u32>| {
                frames.block.is_some().then(|| os::resident_pages(ptr.cast(), 5 * PAGE_BYTES))
            };
            assert!(matches!(pages(&frames), None | Some(0)), "nothing is backed up front");
            (0..3000).for_each(|i| frames.push(i));
            assert!(matches!(pages(&frames), None | Some(3)), "12000 bytes span 3 pages");
            (3000..5000).for_each(|i| frames.push(i));
            assert_eq!(frames.as_ptr(), ptr, "the buffer never moves");
            assert!(frames.iter().copied().eq(0..5000));
            let copy = frames.clone();
            assert_eq!(copy, frames);
            assert_eq!(copy.capacity, 5000);
            let full = std::panic::catch_unwind(move || frames.push(5000));
            assert!(full.is_err(), "a push past the capacity must panic");
        });
    }

    #[test]
    fn a_recycled_on_demand_buffer_reads_zero_on_both_clearing_paths() {
        on_a_fresh_thread(|| {
            const PAGES: usize = 40;
            const WORDS: usize = PAGES * PAGE_BYTES / 8;
            let written = [1, 2, 7, 8, 9, 23, 39];
            let mut first = L2Vec::zeroed(WORDS, Storage::OnDemand);
            for page in written {
                first[page * PAGE_BYTES / 8 + 5] = u64::MAX;
            }
            let ptr = first.as_ptr();
            let region = first.block.is_some();
            drop(first);
            // A larger request also reaches pages above the watermark.
            let again = L2Vec::zeroed(WORDS + 3 * PAGE_BYTES / 8, Storage::OnDemand);
            if region {
                assert_eq!(again.as_ptr(), ptr, "the dropped pages are reused");
                // Checked before any read, which maps the zero page.
                assert_eq!(
                    os::resident_pages(ptr.cast(), (PAGES + 3) * PAGE_BYTES),
                    written.len(),
                    "written pages are cleared in place, the rest left to the kernel"
                );
            }
            assert!(again.iter().all(|&w| w == 0), "no word keeps its old value");
        });
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
