//! When an L2's tag and data storage is backed by memory.
//!
//! Tag arrays, recency ranks and d-group frame pools are built from
//! zeroed or uninitialized allocations, so by default the OS backs a
//! page only when a run first writes it. That is what makes a 64-core
//! machine's 128 MB L2, which a run leaves mostly empty, cheap to
//! build. At the paper's 8 MB a run that warms the cache writes
//! nearly every page of its tag arrays anyway, so on-demand backing
//! saves little there and costs predictability: whether a freed and
//! reused allocation comes back resident depends on the allocator's
//! history, so a process that simulates several runs at once (the
//! `cmp-serve` service) reaches a peak that depends on which runs
//! happened to overlap. [`Storage::for_l2`] therefore backs L2s of at
//! most [`crate::L2_TOTAL_BYTES`] at construction.

use crate::L2_TOTAL_BYTES;

/// When a structure's storage is backed by memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Storage {
    /// As a run first writes each page.
    OnDemand,
    /// At construction: every page is written once (see [`prefault`]),
    /// so the structure's resident size is fixed from the start.
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

/// Bytes between the writes of [`prefault`].
const PAGE_BYTES: usize = 4096;

/// Writes `value` into one element of every page `buf` spans, so the
/// OS backs the whole buffer now rather than at first use. `value`
/// must be what those elements already hold (the zero of a zeroed
/// allocation, any bytes of an uninitialized one): the contents do not
/// change.
pub fn prefault<T: Copy>(buf: &mut [T], value: T) {
    let step = (PAGE_BYTES / std::mem::size_of::<T>().max(1)).max(1);
    let last = buf.len().checked_sub(1);
    for i in (0..buf.len()).step_by(step).chain(last) {
        // SAFETY: `i < buf.len()`, so the pointer is valid and
        // aligned. Volatile, because a plain store of the zero a
        // zeroed allocation already holds may be optimized away.
        unsafe { std::ptr::write_volatile(&mut buf[i], value) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefault_keeps_the_contents() {
        let mut v = vec![7u64; 3000];
        prefault(&mut v, 7);
        assert!(v.iter().all(|&x| x == 7));
        let mut empty: [u32; 0] = [];
        prefault(&mut empty, 0);
    }

    #[test]
    fn the_paper_l2_is_eager_and_larger_ones_on_demand() {
        assert_eq!(Storage::for_l2(L2_TOTAL_BYTES), Storage::Eager);
        assert_eq!(Storage::for_l2(L2_TOTAL_BYTES / 2), Storage::Eager);
        assert_eq!(Storage::for_l2(2 * L2_TOTAL_BYTES), Storage::OnDemand);
    }
}
