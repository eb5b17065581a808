//! Property-based tests: the core data structures checked against
//! simple reference models under random operation sequences.

use proptest::prelude::*;

use nurapid_suite::cache::{lru::LruSets, CacheOrg, TagArray};
use nurapid_suite::coherence::{mesic, Bus, BusTx};
use nurapid_suite::mem::{AccessKind, Addr, BlockAddr, CacheGeometry, CoreId, Rng, Zipf};
use nurapid_suite::nurapid::{CmpNurapid, DGroupId, DataArray, NurapidConfig, TagRef};
use nurapid_suite::sim::l1::{L1Cache, L1Outcome, L1Stats};
use nurapid_suite::sim::sched::WinnerTree;

// ---- LRU vs a Vec-based reference model -----------------------------------

proptest! {
    #[test]
    fn lru_matches_reference_model(ops in proptest::collection::vec(0usize..4, 1..200)) {
        let mut lru = LruSets::new(1, 4);
        let mut model: Vec<usize> = (0..4).collect(); // front = LRU
        for way in ops {
            lru.touch(0, way);
            model.retain(|w| *w != way);
            model.push(way);
            prop_assert_eq!(lru.least_recent(0), model[0]);
            prop_assert_eq!(lru.most_recent(0), *model.last().expect("nonempty"));
            let order: Vec<usize> = lru.iter(0).collect();
            prop_assert_eq!(&order, &model);
        }
    }
}

// ---- TagArray vs a HashMap reference model --------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn tag_array_matches_reference(blocks in proptest::collection::vec(0u64..64, 1..300)) {
        // 4 sets x 2 ways.
        let mut tags: TagArray<u64> = TagArray::new(CacheGeometry::new(512, 64, 2));
        let mut resident: std::collections::HashSet<u64> = Default::default();
        for (i, raw) in blocks.iter().enumerate() {
            let b = BlockAddr(*raw);
            let set = tags.set_of(b);
            match tags.lookup(b) {
                Some(way) => {
                    prop_assert!(resident.contains(raw));
                    tags.touch(set, way);
                }
                None => {
                    prop_assert!(!resident.contains(raw));
                    let way = tags.victim_by(set, |e| u32::from(e.is_some()));
                    if let Some((victim, _)) = tags.evict(set, way) {
                        prop_assert!(resident.remove(&victim.0));
                    }
                    tags.fill(set, way, b, i as u64);
                    resident.insert(*raw);
                }
            }
            prop_assert_eq!(tags.len(), resident.len());
        }
        // Every resident block is still findable.
        for raw in &resident {
            prop_assert!(tags.lookup(BlockAddr(*raw)).is_some());
        }
    }
}

// ---- Packed L1 vs the TagArray-backed L1 it replaced ------------------------

/// L1 line state of the reference model.
#[derive(Clone, Copy, Debug)]
struct RefLine {
    dirty: bool,
    writethrough: bool,
    write_permitted: bool,
}

/// The L1 as a generic [`TagArray`] with LRU victims: the reference
/// the packed two-way `L1Cache` must match step for step.
struct RefL1 {
    tags: TagArray<RefLine>,
    stats: L1Stats,
}

impl RefL1 {
    fn new(geom: CacheGeometry) -> Self {
        RefL1 { tags: TagArray::new(geom), stats: L1Stats::default() }
    }

    fn access(&mut self, block: BlockAddr, kind: AccessKind) -> L1Outcome {
        let set = self.tags.set_of(block);
        let Some(way) = self.tags.lookup(block) else {
            self.stats.misses += 1;
            return L1Outcome::Miss;
        };
        self.tags.touch(set, way);
        let line = &mut self.tags.entry_mut(set, way).expect("hit entry").payload;
        if kind == AccessKind::Read {
            self.stats.hits += 1;
            L1Outcome::Hit
        } else if line.writethrough {
            self.stats.store_forwards += 1;
            L1Outcome::HitWritethrough
        } else if line.write_permitted {
            line.dirty = true;
            self.stats.hits += 1;
            L1Outcome::Hit
        } else {
            self.stats.store_forwards += 1;
            L1Outcome::HitNeedsPermission
        }
    }

    fn fill(&mut self, block: BlockAddr, writethrough: bool, written: bool) {
        let set = self.tags.set_of(block);
        let permitted = written && !writethrough;
        if let Some(way) = self.tags.lookup(block) {
            let line = &mut self.tags.entry_mut(set, way).expect("present").payload;
            line.writethrough = writethrough;
            line.write_permitted = permitted;
            line.dirty |= permitted;
            return;
        }
        let way = self.tags.victim_by(set, |e| u32::from(e.is_some()));
        if let Some((_, line)) = self.tags.evict(set, way) {
            self.stats.writebacks += u64::from(line.dirty);
        }
        let line = RefLine { dirty: permitted, writethrough, write_permitted: permitted };
        self.tags.fill(set, way, block, line);
    }

    fn invalidate(&mut self, block: BlockAddr) -> bool {
        let set = self.tags.set_of(block);
        let Some(way) = self.tags.lookup(block) else { return false };
        let (_, line) = self.tags.evict(set, way).expect("present");
        self.stats.writebacks += u64::from(line.dirty);
        self.stats.invalidations += 1;
        true
    }

    fn contains(&self, block: BlockAddr) -> bool {
        self.tags.lookup(block).is_some()
    }
}

/// Drives the packed L1 and the reference with the same operations,
/// on a pool of six tags (three of them large) in each of up to four
/// sets, comparing every outcome, residency and counter after each.
fn check_l1_against_reference(geom: CacheGeometry, ops: &[(u8, u64, bool, bool)]) {
    let pool: Vec<BlockAddr> = (0..24u64)
        .map(|raw| {
            let set = (raw % 4) as usize % geom.num_sets();
            let tag = raw / 4;
            let tag = if tag >= 3 { (1 << 50) + tag } else { tag };
            geom.block_of(tag, set)
        })
        .collect();
    let mut l1 = L1Cache::new(geom, 3);
    let mut model = RefL1::new(geom);
    for &(op, raw, a, b) in ops {
        let block = pool[raw as usize];
        let kind = if a { AccessKind::Write } else { AccessKind::Read };
        match op {
            // A reference as the system makes it: access, then fill
            // on anything but a plain hit.
            0 => {
                let outcome = l1.access(block, kind);
                assert_eq!(outcome, model.access(block, kind));
                if outcome != L1Outcome::Hit {
                    l1.fill(block, b, a);
                    model.fill(block, b, a);
                }
            }
            1 => assert_eq!(l1.access(block, kind), model.access(block, kind)),
            2 => {
                l1.fill(block, a, b);
                model.fill(block, a, b);
            }
            _ => assert_eq!(l1.invalidate(block), model.invalidate(block)),
        }
        assert_eq!(*l1.stats(), model.stats);
        for &b in &pool {
            assert_eq!(l1.contains(b), model.contains(b), "residency of {b:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn packed_l1_matches_tag_array_reference(
        ops in proptest::collection::vec((0u8..4, 0u64..24, any::<bool>(), any::<bool>()), 1..300)
    ) {
        check_l1_against_reference(CacheGeometry::new(64 * 1024, 64, 2), &ops);
        check_l1_against_reference(CacheGeometry::new(256, 64, 2), &ops);
    }
}

// ---- Winner-tree scheduler vs the first-minimum scan ------------------------

/// The index of the first core with the smallest clock: the pick the
/// simulator's scan makes.
fn first_min(clocks: &[u64]) -> usize {
    let mut best = 0;
    for (i, &c) in clocks.iter().enumerate() {
        if c < clocks[best] {
            best = i;
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn winner_tree_picks_the_first_minimum(
        cores in 1usize..65,
        start in proptest::collection::vec(0u64..4, 64..65),
        ops in proptest::collection::vec((any::<bool>(), 0usize..64, 0u64..4), 1..300),
    ) {
        // Clocks drawn from a small range tie often, which is where the
        // packed key's core byte has to break ties as the scan does.
        let mut clocks = start[..cores].to_vec();
        let mut tree = WinnerTree::new(clocks.iter().copied());
        prop_assert_eq!(tree.next_core(), first_min(&clocks));
        for (step_winner, other, inc) in ops {
            // Half the time the system's own move (the picked core
            // advances), otherwise any core.
            let core = if step_winner { tree.next_core() } else { other % cores };
            clocks[core] += inc;
            tree.update(core, clocks[core]);
            prop_assert_eq!(tree.next_core(), first_min(&clocks));
        }
    }
}

// ---- Geometry roundtrips ----------------------------------------------------

proptest! {
    #[test]
    fn geometry_tag_set_roundtrip(
        raw in 0u64..1_000_000_000,
        cap_shift in 10u32..23,
        block_shift in 5u32..8,
        assoc_shift in 0u32..4,
    ) {
        let capacity = 1usize << cap_shift;
        let block = 1usize << block_shift;
        let assoc = 1usize << assoc_shift;
        prop_assume!(capacity >= block * assoc);
        let g = CacheGeometry::new(capacity, block, assoc);
        let b = BlockAddr(raw);
        prop_assert_eq!(g.block_of(g.tag_of(b), g.set_of(b)), b);
        prop_assert!(g.set_of(b) < g.num_sets());
    }

    #[test]
    fn block_addr_parent_child_roundtrip(raw in 0u64..1_000_000) {
        let l2 = BlockAddr(raw);
        let children: Vec<BlockAddr> = l2.children(128, 64).collect();
        prop_assert_eq!(children.len(), 2);
        for child in children {
            prop_assert_eq!(child.parent(64, 128), l2);
        }
        let a = Addr(raw * 128 + raw % 128);
        prop_assert_eq!(a.block(128), l2);
    }
}

// ---- Zipf sampler stays in range and is deterministic -----------------------

proptest! {
    #[test]
    fn zipf_sampler_bounds(n in 1usize..5_000, theta in 0.0f64..1.5, seed in any::<u64>()) {
        let zipf = Zipf::new(n, theta);
        let mut a = Rng::new(seed);
        let mut b = Rng::new(seed);
        for _ in 0..50 {
            let x = zipf.sample(&mut a);
            prop_assert!(x < n);
            prop_assert_eq!(x, zipf.sample(&mut b));
        }
    }
}

// ---- MESIC protocol invariants under random stimuli --------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn mesic_transitions_preserve_validity(
        ops in proptest::collection::vec((0usize..4, any::<bool>()), 1..150)
    ) {
        use mesic::MesicState;
        let mut states = [MesicState::Invalid; 4];
        for (agent, is_write) in ops {
            let kind = if is_write { AccessKind::Write } else { AccessKind::Read };
            let mut sig = nurapid_suite::coherence::SnoopSignals::NONE;
            for (i, s) in states.iter().enumerate() {
                if i != agent && s.is_valid() {
                    sig.shared = true;
                    if s.is_dirty() {
                        sig.dirty = true;
                    }
                }
            }
            let action = mesic::processor_access(states[agent], kind, sig);
            if let Some(tx) = action.bus {
                for (i, state) in states.iter_mut().enumerate() {
                    if i != agent {
                        *state = mesic::snoop(*state, tx).0;
                    }
                }
            }
            states[agent] = action.next;
            // Invariants: single exclusive owner; C never mixes with
            // clean sharers.
            let m = states.iter().filter(|s| matches!(s, MesicState::Modified)).count();
            let e = states.iter().filter(|s| matches!(s, MesicState::Exclusive)).count();
            let c = states.iter().filter(|s| matches!(s, MesicState::Communication)).count();
            let sh = states.iter().filter(|s| matches!(s, MesicState::Shared)).count();
            let valid = states.iter().filter(|s| s.is_valid()).count();
            prop_assert!(m <= 1 && e <= 1);
            if m + e == 1 {
                prop_assert_eq!(valid, 1);
            }
            if c > 0 {
                prop_assert_eq!(m + e + sh, 0);
            }
        }
    }
}

// ---- DataArray alloc/free against a set model --------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn data_array_alloc_free_model(ops in proptest::collection::vec(any::<bool>(), 1..300)) {
        let mut data = DataArray::new(2, 16);
        let owner = TagRef { core: CoreId(0), set: 0, way: 0 };
        let mut live: Vec<nurapid_suite::nurapid::FrameRef> = Vec::new();
        let mut next_block = 0u64;
        for do_alloc in ops {
            if do_alloc && live.len() < 16 {
                next_block += 1;
                let f = data.alloc(DGroupId(0), BlockAddr(next_block), owner);
                prop_assert!(data.is_occupied(f));
                live.push(f);
            } else if let Some(f) = live.pop() {
                let contents = data.free(f);
                prop_assert_eq!(contents.owner, owner);
                prop_assert!(!data.is_occupied(f));
            }
            prop_assert_eq!(data.occupied(DGroupId(0)), live.len());
            prop_assert_eq!(data.has_free(DGroupId(0)), live.len() < 16);
        }
    }
}

// ---- On-demand d-group storage against the eager store it replaced ---------

/// One d-group as the data array used to store it: every frame,
/// free-stack slot and position allocated up front, the free stack
/// pre-filled with `n-1, ..., 1, 0`.
struct EagerGroup {
    frames: Vec<Option<(BlockAddr, TagRef)>>,
    free: Vec<u32>,
    occupied: Vec<u32>,
    pos: Vec<u32>,
}

impl EagerGroup {
    fn new(n: usize) -> Self {
        EagerGroup {
            frames: vec![None; n],
            free: (0..n as u32).rev().collect(),
            occupied: Vec::new(),
            pos: vec![u32::MAX; n],
        }
    }

    fn alloc(&mut self, block: BlockAddr, owner: TagRef) -> u32 {
        let idx = self.free.pop().expect("alloc from a full d-group");
        self.frames[idx as usize] = Some((block, owner));
        self.pos[idx as usize] = self.occupied.len() as u32;
        self.occupied.push(idx);
        idx
    }

    fn release(&mut self, idx: u32) -> (BlockAddr, TagRef) {
        let frame = self.frames[idx as usize].take().expect("free of an empty frame");
        let p = self.pos[idx as usize] as usize;
        let last = self.occupied.pop().expect("occupied list nonempty");
        if last != idx {
            self.occupied[p] = last;
            self.pos[last as usize] = p as u32;
        }
        self.pos[idx as usize] = u32::MAX;
        self.free.push(idx);
        frame
    }

    /// Eight rejection samples, then a scan, as `DataArray` draws.
    fn random_occupied(&self, rng: &mut Rng, busy: &[u32]) -> Option<u32> {
        if self.occupied.is_empty() {
            return None;
        }
        for _ in 0..8 {
            let idx = self.occupied[rng.gen_index(self.occupied.len())];
            if !busy.contains(&idx) {
                return Some(idx);
            }
        }
        self.occupied.iter().copied().find(|idx| !busy.contains(idx))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn on_demand_dgroup_matches_the_eager_store(
        n in 1usize..65,
        fill_first in any::<bool>(),
        seed in any::<u64>(),
        ops in proptest::collection::vec((0u8..5, any::<u64>()), 1..300)
    ) {
        let g = DGroupId(1);
        let mut data = DataArray::new(2, n);
        let mut model = EagerGroup::new(n);
        let (mut rng, mut model_rng) = (Rng::new(seed), Rng::new(seed));
        let owner = |x: u64| TagRef { core: CoreId((x % 4) as u8), set: (x >> 8) as u32 % 512, way: (x >> 4) as u8 % 8 };
        let frame = |index: u32| nurapid_suite::nurapid::FrameRef { group: g, index };
        let mut next_block = 0u64;
        let mut alloc = |data: &mut DataArray, model: &mut EagerGroup, x: u64| {
            next_block += 1;
            let f = data.alloc(g, BlockAddr(next_block), owner(x));
            (f, model.alloc(BlockAddr(next_block), owner(x)))
        };
        if fill_first {
            while data.has_free(g) {
                let x = data.occupied(g) as u64;
                let (f, want) = alloc(&mut data, &mut model, x);
                prop_assert_eq!(f, frame(want));
            }
            prop_assert_eq!(model.free.len(), 0);
        }
        for (op, x) in ops {
            let live = model.occupied.len();
            match op {
                // Alloc is twice as likely as free, so groups fill up.
                0 | 1 if !model.free.is_empty() => {
                    let (f, want) = alloc(&mut data, &mut model, x);
                    prop_assert_eq!(f, frame(want));
                }
                0..=2 if live > 0 => {
                    let idx = model.occupied[x as usize % live];
                    let (block, o) = model.release(idx);
                    let contents = data.free(frame(idx));
                    prop_assert_eq!((contents.block, contents.owner), (block, o));
                    prop_assert!(!data.is_occupied(frame(idx)));
                }
                3 if live > 0 => {
                    let idx = model.occupied[x as usize % live];
                    data.set_owner(frame(idx), owner(x >> 3));
                    model.frames[idx as usize].as_mut().expect("occupied").1 = owner(x >> 3);
                }
                4 => {
                    // Mark up to three occupied frames busy.
                    let busy: Vec<u32> = model.occupied.iter().copied().take(x as usize % 4).collect();
                    let busy_refs: Vec<_> = busy.iter().map(|&i| frame(i)).collect();
                    let pick = data.random_occupied(g, &mut rng, &busy_refs);
                    let want = model.random_occupied(&mut model_rng, &busy);
                    prop_assert_eq!(pick, want.map(frame));
                    prop_assert_eq!(&rng, &model_rng);
                }
                _ => {}
            }
            prop_assert_eq!(data.has_free(g), !model.free.is_empty());
            prop_assert_eq!(data.occupied(g), model.occupied.len());
            prop_assert_eq!(data.occupied(DGroupId(0)), 0);
            for (i, slot) in model.frames.iter().enumerate() {
                prop_assert_eq!(data.is_occupied(frame(i as u32)), slot.is_some());
                if let Some((block, o)) = slot {
                    let got = data.frame(frame(i as u32));
                    prop_assert_eq!((got.block, got.owner), (*block, *o));
                }
            }
        }
    }
}

// ---- CMP-NuRAPID invariants under random access sequences --------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn nurapid_invariants_hold_under_random_traffic(
        seed in any::<u64>(),
        ops in proptest::collection::vec((0u8..4, 0u64..48, any::<bool>()), 20..250)
    ) {
        let mut cfg = NurapidConfig::tiny(4, 8 * 128);
        cfg.seed = seed;
        let mut l2 = CmpNurapid::new(cfg);
        let mut bus = Bus::paper();
        let mut now = 0u64;
        let mut inv = nurapid_suite::cache::InvalScratch::new();
        for (core, block, is_write) in ops {
            now += 500;
            let kind = if is_write { AccessKind::Write } else { AccessKind::Read };
            let resp = l2.access(CoreId(core), BlockAddr(block), kind, now, &mut bus, &mut inv);
            prop_assert!(resp.latency >= 1);
        }
        l2.check_invariants();
        // BusRepl accounting is consistent: every BusRepl on the bus
        // had at least one cause (a shared-block eviction).
        let s = l2.stats();
        prop_assert!(bus.stats().count(BusTx::BusRepl) >= s.evictions_shared);
    }
}
