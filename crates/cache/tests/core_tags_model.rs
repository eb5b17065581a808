//! [`CoreTags`] checked against a brute-force per-core scan, over
//! random fill/evict/lookup sequences at 1, 4 and 64 cores. The
//! geometry is tiny (2 sets of 8 ways, 32 candidate tags per set over
//! 16 summary buckets), so buckets collide constantly and the
//! keep-the-bit-while-a-bucket-mate-remains rule is exercised on
//! nearly every eviction.

use std::collections::BTreeSet;

use proptest::prelude::*;

use cmp_cache::CoreTags;
use cmp_mem::{BlockAddr, CacheGeometry, CoreId};

/// 1 KiB of 64 B blocks, 8 ways: 2 sets.
fn tiny() -> CacheGeometry {
    CacheGeometry::new(1024, 64, 8)
}

/// Every core holding `block`, found by looking in each array in turn.
fn brute_force(tags: &CoreTags<u64>, block: BlockAddr) -> Vec<(CoreId, usize, usize)> {
    tags.arrays()
        .filter_map(|(c, arr)| arr.lookup(block).map(|w| (c, arr.set_of(block), w)))
        .collect()
}

/// Fills `block` into `core`'s array, evicting its LRU way if the set
/// is full. Returns the block evicted to make room, if any.
fn fill(tags: &mut CoreTags<u64>, core: CoreId, block: BlockAddr) -> Option<BlockAddr> {
    let arr = tags.array(core);
    let set = arr.set_of(block);
    let way = arr.victim_by(set, |e| u32::from(e.is_some()));
    let victim = tags.evict(core, set, way).map(|(b, _)| b);
    tags.fill(core, set, way, block, block.0);
    victim
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn holders_match_a_brute_force_scan_in_core_order(
        ops in proptest::collection::vec((0u8..3, 0usize..64, 0u64..64), 1..400),
    ) {
        for cores in [1usize, 4, 64] {
            let mut tags: CoreTags<u64> = CoreTags::new(cores, tiny());
            // The residency model: which blocks each core holds.
            let mut model: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); cores];
            for &(op, raw_core, raw_block) in &ops {
                // At 64 cores raw_core is used as is, so core 63 (the
                // mask's top bit) takes part.
                let core = CoreId((raw_core % cores) as u8);
                let block = BlockAddr(raw_block);
                match op {
                    0 if tags.lookup(core, block).is_none() => {
                        if let Some(victim) = fill(&mut tags, core, block) {
                            prop_assert!(model[core.index()].remove(&victim.0));
                        }
                        model[core.index()].insert(block.0);
                    }
                    1 => {
                        if let Some((set, way)) = tags.lookup(core, block) {
                            let (evicted, payload) = tags.evict(core, set, way).expect("resident");
                            prop_assert_eq!((evicted, payload), (block, block.0));
                            prop_assert!(model[core.index()].remove(&block.0));
                        }
                    }
                    _ => {}
                }
                let want = brute_force(&tags, block);
                let got: Vec<_> = tags.holders(block).collect();
                prop_assert_eq!(&got, &want, "{} cores, block {}", cores, raw_block);
                let modelled: Vec<CoreId> = (0..cores)
                    .filter(|&c| model[c].contains(&raw_block))
                    .map(|c| CoreId(c as u8))
                    .collect();
                prop_assert_eq!(got.iter().map(|h| h.0).collect::<Vec<_>>(), modelled);
                prop_assert!(
                    tags.candidates(block).all(|c| c.index() < cores),
                    "candidate beyond the core count"
                );
            }
            // Every block, not only the ones touched last.
            for raw in 0..64u64 {
                let b = BlockAddr(raw);
                prop_assert_eq!(tags.holders(b).collect::<Vec<_>>(), brute_force(&tags, b));
            }
            prop_assert_eq!(tags.check_summary(), Ok(()));
            prop_assert_eq!(tags.len(), model.iter().map(BTreeSet::len).sum::<usize>());
        }
    }
}

#[test]
fn a_block_held_by_all_64_cores_comes_back_in_core_order() {
    let mut tags: CoreTags<u64> = CoreTags::new(64, tiny());
    let b = BlockAddr(21);
    for c in (0..64u8).rev() {
        fill(&mut tags, CoreId(c), b);
    }
    let cores: Vec<u8> = tags.holders(b).map(|(c, _, _)| c.0).collect();
    assert_eq!(cores, (0..64).collect::<Vec<u8>>());
    for c in [63u8, 0, 31] {
        let (set, way) = tags.lookup(CoreId(c), b).expect("resident");
        tags.evict(CoreId(c), set, way);
    }
    let cores: Vec<u8> = tags.holders(b).map(|(c, _, _)| c.0).collect();
    assert_eq!(cores, (1..63).filter(|&c| c != 31).collect::<Vec<u8>>());
    assert_eq!(tags.check_summary(), Ok(()));
}
