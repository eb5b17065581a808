//! The bit-packed, flat [`LruSets`] checked against the
//! straightforward `Vec`-based implementation it replaced, over random
//! touch/demote/rank sequences at every supported associativity: one
//! set alone, and neighbouring sets sharing the flat rank vector.

use proptest::prelude::*;

use cmp_cache::lru::LruSets;

/// The reference model: the pre-optimization representation, a vector
/// of ways ordered least- to most-recently used.
#[derive(Clone, Debug)]
struct VecLru {
    order: Vec<usize>,
}

impl VecLru {
    fn new(ways: usize) -> Self {
        VecLru { order: (0..ways).collect() }
    }

    fn touch(&mut self, way: usize) {
        self.order.retain(|w| *w != way);
        self.order.push(way);
    }

    fn demote(&mut self, way: usize) {
        self.order.retain(|w| *w != way);
        self.order.insert(0, way);
    }

    fn rank(&self, way: usize) -> usize {
        self.order.iter().position(|w| *w == way).expect("way present")
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn packed_lru_agrees_with_vec_reference(
        ways in 1usize..33,
        ops in proptest::collection::vec((any::<bool>(), 0usize..32), 1..300),
    ) {
        let mut lru = LruSets::new(1, ways);
        let mut model = VecLru::new(ways);
        for (is_touch, raw_way) in ops {
            let way = raw_way % ways;
            if is_touch {
                lru.touch(0, way);
                model.touch(way);
            } else {
                lru.demote(0, way);
                model.demote(way);
            }
            prop_assert_eq!(lru.least_recent(0), model.order[0]);
            prop_assert_eq!(lru.most_recent(0), *model.order.last().expect("nonempty"));
            for w in 0..ways {
                prop_assert_eq!(lru.rank(0, w), model.rank(w), "rank of way {}", w);
            }
            let order: Vec<usize> = lru.iter(0).collect();
            prop_assert_eq!(&order, &model.order);
        }
    }
}

/// Sets of the flat storage under test: the middle one has a
/// neighbour on each side in the rank vector.
const SETS: usize = 3;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn flat_lru_sets_agree_with_per_set_references_at_every_way_count(
        ops in proptest::collection::vec((0usize..SETS, any::<bool>(), 0usize..32), 1..120),
    ) {
        for ways in 1..=32 {
            let mut lru = LruSets::new(SETS, ways);
            prop_assert_eq!((lru.sets(), lru.ways()), (SETS, ways));
            let mut models = vec![VecLru::new(ways); SETS];
            for &(set, is_touch, raw_way) in &ops {
                let way = raw_way % ways;
                let orders = |lru: &LruSets| -> Vec<Vec<usize>> {
                    (0..SETS).map(|s| lru.iter(s).collect()).collect()
                };
                let before = orders(&lru);
                if is_touch {
                    lru.touch(set, way);
                    models[set].touch(way);
                } else {
                    lru.demote(set, way);
                    models[set].demote(way);
                }
                let after = orders(&lru);
                for s in (0..SETS).filter(|&s| s != set) {
                    prop_assert_eq!(&after[s], &before[s], "{}-way set {} changed by set {}", ways, s, set);
                }
                for (s, model) in models.iter().enumerate() {
                    prop_assert_eq!(&after[s], &model.order, "{}-way set {}", ways, s);
                    prop_assert_eq!(lru.least_recent(s), model.order[0]);
                    prop_assert_eq!(lru.most_recent(s), *model.order.last().expect("nonempty"));
                    for w in 0..ways {
                        prop_assert_eq!(lru.rank(s, w), model.rank(w), "rank of way {} in set {}", w, s);
                    }
                }
            }
        }
    }
}
