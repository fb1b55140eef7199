//! Property tests: `SharerSet` against a `HashSet` reference model and
//! its former `Vec` layout, RNG bounds, histogram accounting.

use proptest::prelude::*;
use stashdir_common::{CoreId, DetRng, Histogram, SharerSet};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

#[derive(Debug, Clone)]
enum SetOp {
    Insert(u16),
    Remove(u16),
    Clear,
}

fn arb_ops(capacity: u16) -> impl Strategy<Value = Vec<SetOp>> {
    let op = prop_oneof![
        (0..capacity).prop_map(SetOp::Insert),
        (0..capacity).prop_map(SetOp::Remove),
        Just(SetOp::Clear),
    ];
    prop::collection::vec(op, 0..200)
}

/// Capacities on both sides of the inline/boxed boundary at 64 cores.
const CAPACITIES: [u16; 7] = [1, 16, 63, 64, 65, 128, 1024];

/// The layout `SharerSet` had before small sets moved inline: its derived
/// `Debug` text and `Hash` stream are the ones the set must keep.
#[derive(Debug, Hash)]
struct VecLayout {
    words: Vec<u64>,
    capacity: u16,
}

impl VecLayout {
    fn of(capacity: u16, members: &HashSet<u16>) -> Self {
        let mut words = vec![0u64; (capacity as usize).div_ceil(64).max(1)];
        for &c in members {
            words[c as usize / 64] |= 1 << (c % 64);
        }
        VecLayout { words, capacity }
    }
}

fn hash_of(value: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

proptest! {
    /// SharerSet behaves exactly like a HashSet<u16> under any op
    /// sequence, for capacities on both sides of the inline/boxed
    /// boundary: membership, order, the sole member, clones, equality,
    /// hashing and both text forms.
    #[test]
    fn sharer_set_matches_hashset(
        capacity in prop::sample::select(CAPACITIES.to_vec()),
        ops in arb_ops(1024),
    ) {
        let mut set = SharerSet::new(capacity);
        let mut model: HashSet<u16> = HashSet::new();
        for op in ops {
            match op {
                SetOp::Insert(c) => {
                    let c = c % capacity;
                    let fresh = set.insert(CoreId::new(c));
                    prop_assert_eq!(fresh, model.insert(c));
                }
                SetOp::Remove(c) => {
                    let c = c % capacity;
                    let present = set.remove(CoreId::new(c));
                    prop_assert_eq!(present, model.remove(&c));
                }
                SetOp::Clear => {
                    set.clear();
                    model.clear();
                }
            }
            prop_assert_eq!(set.capacity(), capacity);
            prop_assert_eq!(set.len(), model.len());
            prop_assert_eq!(set.is_empty(), model.is_empty());
            for probe in [0, capacity / 2, capacity - 1] {
                prop_assert_eq!(set.contains(CoreId::new(probe)), model.contains(&probe));
            }
            let mine: Vec<u16> = set.iter().map(CoreId::get).collect();
            let mut theirs: Vec<u16> = model.iter().copied().collect();
            theirs.sort_unstable();
            prop_assert_eq!(&mine, &theirs, "iteration is sorted and complete");
            let sole = set.sole_member().map(CoreId::get);
            let model_sole = (model.len() == 1).then(|| *model.iter().next().unwrap());
            prop_assert_eq!(sole, model_sole);

            // A clone, and a set rebuilt from the members alone, are equal
            // and hash equal.
            let copy = set.clone();
            let mut rebuilt = SharerSet::new(capacity);
            rebuilt.extend(theirs.iter().map(|&c| CoreId::new(c)));
            prop_assert!(copy == set && rebuilt == set);
            prop_assert_eq!(hash_of(&copy), hash_of(&set));
            prop_assert_eq!(hash_of(&rebuilt), hash_of(&set));

            let old = VecLayout::of(capacity, &model);
            prop_assert_eq!(hash_of(&set), hash_of(&old));
            prop_assert_eq!(format!("{set:?}"), format!("{old:?}").replace("VecLayout", "SharerSet"));
            let listed: Vec<String> = theirs.iter().map(u16::to_string).collect();
            prop_assert_eq!(set.to_string(), format!("{{{}}}", listed.join(",")));
        }
        // A different capacity never compares equal.
        let other = SharerSet::new(if capacity == 1024 { 1 } else { capacity + 1 });
        prop_assert!(other != set);
    }
}

proptest! {
    /// `DetRng::below` stays in bounds and is seed-deterministic.
    #[test]
    fn rng_below_in_bounds(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut a = DetRng::seed_from(seed);
        let mut b = DetRng::seed_from(seed);
        for _ in 0..50 {
            let x = a.below(bound);
            prop_assert!(x < bound);
            prop_assert_eq!(x, b.below(bound));
        }
    }

    /// Histogram count/sum/min/max agree with direct computation, and
    /// merging partitions is equivalent to recording everything in one.
    #[test]
    fn histogram_matches_reference(values in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut whole = Histogram::new();
        let mut left = Histogram::new();
        let mut right = Histogram::new();
        for (i, &v) in values.iter().enumerate() {
            whole.record(v);
            if i % 2 == 0 { left.record(v) } else { right.record(v) }
        }
        prop_assert_eq!(whole.count(), values.len() as u64);
        prop_assert_eq!(whole.sum(), values.iter().sum::<u64>());
        prop_assert_eq!(whole.min(), values.iter().min().copied());
        prop_assert_eq!(whole.max(), values.iter().max().copied());
        left.merge(&right);
        prop_assert_eq!(left, whole);
    }
}
