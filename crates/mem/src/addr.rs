//! Address, core-identifier, and time newtypes.
//!
//! The simulator distinguishes *byte* addresses ([`Addr`]) from
//! *cache-block* addresses ([`BlockAddr`]) at the type level so a block
//! number can never be used where a byte address is expected — the
//! classic off-by-`log2(block)` bug class in cache simulators.

use std::fmt;

/// Simulated time, in processor clock cycles (5 GHz in the paper's
/// configuration).
pub type Cycle = u64;

/// A physical byte address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// Returns the cache-block address for a given block size.
    ///
    /// # Panics
    ///
    /// Panics if `block_bytes` is not a power of two.
    #[inline]
    pub fn block(self, block_bytes: usize) -> BlockAddr {
        assert!(block_bytes.is_power_of_two(), "block size must be a power of two");
        BlockAddr(self.0 >> block_bytes.trailing_zeros())
    }

    /// Offset of this address within its block.
    #[inline]
    pub fn offset(self, block_bytes: usize) -> u64 {
        self.0 & (block_bytes as u64 - 1)
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Addr({:#x})", self.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

/// A cache-block address: a byte address shifted right by the block
/// size's bit width.
///
/// The same `BlockAddr` value means different byte ranges for the 64 B
/// L1 blocks and the 128 B L2 blocks; conversion helpers
/// ([`BlockAddr::parent`], [`BlockAddr::children`]) translate between
/// the two granularities.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockAddr(pub u64);

impl BlockAddr {
    /// First byte address covered by this block.
    #[inline]
    pub fn base(self, block_bytes: usize) -> Addr {
        Addr(self.0 << block_bytes.trailing_zeros())
    }

    /// The enclosing block at a coarser granularity.
    ///
    /// Used to map a 64 B L1 block to its enclosing 128 B L2 block.
    ///
    /// # Panics
    ///
    /// Panics if `to_bytes < from_bytes` or either is not a power of two.
    #[inline]
    pub fn parent(self, from_bytes: usize, to_bytes: usize) -> BlockAddr {
        assert!(
            to_bytes >= from_bytes && from_bytes.is_power_of_two() && to_bytes.is_power_of_two(),
            "parent granularity must be a coarser power of two"
        );
        BlockAddr(self.0 >> (to_bytes.trailing_zeros() - from_bytes.trailing_zeros()))
    }

    /// The enclosed blocks at a finer granularity.
    ///
    /// Used to enumerate the 64 B L1 blocks covered by a 128 B L2 block
    /// when applying an inclusion invalidation.
    pub fn children(self, from_bytes: usize, to_bytes: usize) -> impl Iterator<Item = BlockAddr> {
        assert!(
            from_bytes >= to_bytes && from_bytes.is_power_of_two() && to_bytes.is_power_of_two(),
            "child granularity must be a finer power of two"
        );
        let shift = from_bytes.trailing_zeros() - to_bytes.trailing_zeros();
        let base = self.0 << shift;
        (0..1u64 << shift).map(move |i| BlockAddr(base + i))
    }
}

impl fmt::Debug for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BlockAddr({:#x})", self.0)
    }
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// Identifier of a processor core (P0..Pn-1 in the paper's figures).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CoreId(pub u8);

impl CoreId {
    /// Most cores a machine can have: one identifier per `u8` value.
    pub const MAX_CORES: usize = u8::MAX as usize + 1;

    /// The core's index, for indexing per-core tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Iterator over the first `n` core identifiers.
    pub fn all(n: usize) -> impl Iterator<Item = CoreId> {
        assert!(n <= Self::MAX_CORES, "too many cores");
        (0..n).map(|i| CoreId(i as u8))
    }
}

impl fmt::Debug for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl From<u8> for CoreId {
    fn from(raw: u8) -> Self {
        CoreId(raw)
    }
}

/// Whether a memory reference reads or writes its location.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

impl AccessKind {
    /// `true` for [`AccessKind::Write`].
    #[inline]
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_to_block_strips_offset() {
        let a = Addr(0x1234);
        assert_eq!(a.block(128), BlockAddr(0x1234 >> 7));
        assert_eq!(a.offset(128), 0x34);
    }

    #[test]
    fn block_base_roundtrip() {
        let b = BlockAddr(42);
        assert_eq!(b.base(128).block(128), b);
        assert_eq!(b.base(128).0, 42 * 128);
    }

    #[test]
    fn parent_maps_l1_block_to_l2_block() {
        // Two adjacent 64 B blocks share one 128 B parent.
        assert_eq!(BlockAddr(10).parent(64, 128), BlockAddr(5));
        assert_eq!(BlockAddr(11).parent(64, 128), BlockAddr(5));
        assert_eq!(BlockAddr(12).parent(64, 128), BlockAddr(6));
    }

    #[test]
    fn children_enumerates_both_l1_halves() {
        let kids: Vec<_> = BlockAddr(5).children(128, 64).collect();
        assert_eq!(kids, vec![BlockAddr(10), BlockAddr(11)]);
    }

    #[test]
    fn children_same_granularity_is_identity() {
        let kids: Vec<_> = BlockAddr(7).children(64, 64).collect();
        assert_eq!(kids, vec![BlockAddr(7)]);
    }

    #[test]
    fn parent_same_granularity_is_identity() {
        assert_eq!(BlockAddr(7).parent(64, 64), BlockAddr(7));
    }

    #[test]
    #[should_panic(expected = "coarser")]
    fn parent_rejects_finer_target() {
        let _ = BlockAddr(7).parent(128, 64);
    }

    #[test]
    fn core_ids_enumerate() {
        let ids: Vec<_> = CoreId::all(4).collect();
        assert_eq!(ids, vec![CoreId(0), CoreId(1), CoreId(2), CoreId(3)]);
        assert_eq!(ids[3].index(), 3);
        let last = CoreId::all(CoreId::MAX_CORES).last();
        assert_eq!(last, Some(CoreId(255)), "a full 256-core machine names every core");
    }

    #[test]
    fn display_forms() {
        assert_eq!(CoreId(2).to_string(), "P2");
        assert_eq!(Addr(255).to_string(), "0xff");
        assert_eq!(format!("{:?}", BlockAddr(16)), "BlockAddr(0x10)");
    }

    #[test]
    fn access_kind_predicates() {
        assert!(AccessKind::Write.is_write());
        assert!(!AccessKind::Read.is_write());
    }
}
