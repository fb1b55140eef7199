//! Property tests of the set-associative array against a reference
//! model: bounded associativity is the only way blocks may disappear,
//! and the LRU policy's stack property holds. The occupancy-proportional
//! array is also checked step by step against the fixed-row per-set
//! implementation it replaced.

use proptest::prelude::*;
use stashdir_common::BlockAddr;
use stashdir_mem::{ReplKind, SetAssoc};
use std::collections::{HashMap, HashSet};

#[derive(Debug, Clone)]
enum Op {
    Access(u64), // insert if absent (touch if present)
    Remove(u64),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        4 => (0u64..64).prop_map(Op::Access),
        1 => (0u64..64).prop_map(Op::Remove),
    ];
    prop::collection::vec(op, 0..300)
}

proptest! {
    /// Under any access/remove sequence and any policy:
    /// * a block disappears only by removal or by an eviction from its
    ///   own set,
    /// * per-set occupancy never exceeds associativity,
    /// * the array's contents equal the reference model's.
    #[test]
    fn set_assoc_accounts_for_every_block(
        ops in arb_ops(),
        repl in prop::sample::select(vec![
            ReplKind::Lru,
            ReplKind::Fifo,
            ReplKind::Random,
            ReplKind::Nru,
            ReplKind::Srrip,
            ReplKind::TreePlru,
        ]),
        sets in prop::sample::select(vec![1usize, 2, 4]),
        ways in 1usize..4,
    ) {
        let mut array: SetAssoc<u64> = SetAssoc::new(sets, ways, repl, 5);
        let mut model: HashSet<u64> = HashSet::new();
        for op in ops {
            match op {
                Op::Access(b) => {
                    let block = BlockAddr::new(b);
                    if array.contains(block) {
                        array.touch(block);
                    } else if let Some((victim, _)) = array.insert(block, b) {
                        prop_assert_eq!(
                            array.set_index(victim), array.set_index(block),
                            "victims come from the target set"
                        );
                        prop_assert!(model.remove(&victim.get()), "evicted unknown block");
                        model.insert(b);
                    } else {
                        model.insert(b);
                    }
                }
                Op::Remove(b) => {
                    let got = array.remove(BlockAddr::new(b)).is_some();
                    prop_assert_eq!(got, model.remove(&b));
                }
            }
            prop_assert_eq!(array.occupancy(), model.len());
            // Per-set occupancy bound.
            let mut per_set: HashMap<usize, usize> = HashMap::new();
            for (block, _) in array.iter() {
                *per_set.entry(array.set_index(block)).or_default() += 1;
                prop_assert!(model.contains(&block.get()));
            }
            for (&set, &count) in &per_set {
                prop_assert!(count <= ways, "set {set} holds {count} > {ways}");
            }
        }
    }

    /// The LRU stack property: after touching a block, it survives the
    /// next `ways - 1` distinct insertions into its set.
    #[test]
    fn lru_protects_recently_used(ways in 2usize..6, salt in 0u64..100) {
        let mut array: SetAssoc<()> = SetAssoc::new(1, ways, ReplKind::Lru, salt);
        for i in 0..ways as u64 {
            array.insert(BlockAddr::new(i), ());
        }
        let protected = BlockAddr::new(0);
        array.touch(protected);
        for i in 0..ways as u64 - 1 {
            array.insert(BlockAddr::new(100 + salt + i), ());
            prop_assert!(
                array.contains(protected),
                "touched block evicted after {i} fills"
            );
        }
    }

    /// `victim_for` is a faithful prediction: for deterministic policies
    /// the immediately following insert evicts exactly that block.
    #[test]
    fn victim_prediction_is_exact(
        blocks in prop::collection::hash_set(0u64..32, 4..8),
        repl in prop::sample::select(vec![ReplKind::Lru, ReplKind::Fifo]),
    ) {
        let mut array: SetAssoc<()> = SetAssoc::new(1, 4, repl, 0);
        for &b in blocks.iter().take(4) {
            array.insert(BlockAddr::new(b), ());
        }
        let newcomer = BlockAddr::new(1000);
        if let Some(victim) = array.victim_for(newcomer) {
            let evicted = array.insert(newcomer, ()).map(|(b, _)| b);
            prop_assert_eq!(evicted, Some(victim));
        }
    }
}

/// One step of the differential test against [`reference::SetAssoc`].
/// Block keys are reduced modulo a span of 1.5x the array's capacity, so
/// every geometry sees fills, evictions and removals.
#[derive(Debug, Clone)]
enum Step {
    Insert(u64, u32),
    Touch(u64),
    Access(u64, u32),
    Get(u64),
    Remove(u64),
    VictimFor(u64),
    Clear,
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    let key = || 0u64..1 << 20;
    let step = prop_oneof![
        120 => (key(), 0u32..1000).prop_map(|(b, v)| Step::Insert(b, v)),
        30 => key().prop_map(Step::Touch),
        20 => (key(), 0u32..1000).prop_map(|(b, v)| Step::Access(b, v)),
        10 => key().prop_map(Step::Get),
        20 => key().prop_map(Step::Remove),
        20 => key().prop_map(Step::VictimFor),
        1 => Just(Step::Clear),
    ];
    prop::collection::vec(step, 0..1500)
}

proptest! {
    /// The occupancy-proportional array and the per-set reference agree,
    /// for every replacement policy, on hits, victim predictions,
    /// evictions, removals and the contents and order of `iter()`,
    /// `set_occupants()` and `eviction_order()`. Runs are long enough that
    /// sets grow through every chunk capacity (1, 2, 4, ... up to the
    /// associativity, which need not be a power of two), fill up, lose
    /// ways below their capacity to `remove`, and release chunks that
    /// trigger compaction; with 64 sets, released chunks also wait on the
    /// free lists and are reused and split.
    #[test]
    fn flat_array_matches_per_set_reference(
        steps in arb_steps(),
        repl in prop::sample::select(vec![
            ReplKind::Lru,
            ReplKind::Fifo,
            ReplKind::Random,
            ReplKind::Nru,
            ReplKind::Srrip,
            ReplKind::TreePlru,
        ]),
        sets in prop::sample::select(vec![1usize, 2, 4, 8, 64]),
        ways in prop::sample::select(vec![1usize, 2, 3, 4, 5, 6, 7, 8, 12, 16]),
        seed in 0u64..1000,
    ) {
        let span = (sets * ways * 3 / 2 + 1) as u64;
        let mut flat: SetAssoc<u32> = SetAssoc::new(sets, ways, repl, seed);
        let mut model: reference::SetAssoc<u32> = reference::SetAssoc::new(sets, ways, repl, seed);
        let last = steps.len().saturating_sub(1);
        for (i, step) in steps.into_iter().enumerate() {
            let touched = match step {
                Step::Insert(b, _)
                | Step::Touch(b)
                | Step::Access(b, _)
                | Step::Get(b)
                | Step::Remove(b)
                | Step::VictimFor(b) => Some(b % span),
                Step::Clear => None,
            };
            match step {
                Step::Insert(b, v) => {
                    let block = BlockAddr::new(b % span);
                    if model.contains(block) {
                        prop_assert!(flat.contains(block));
                    } else {
                        prop_assert_eq!(flat.would_evict(block), model.would_evict(block));
                        prop_assert_eq!(flat.insert(block, v), model.insert(block, v));
                    }
                }
                Step::Touch(b) => {
                    let block = BlockAddr::new(b % span);
                    prop_assert_eq!(flat.touch(block), model.touch(block));
                }
                Step::Access(b, v) => {
                    let block = BlockAddr::new(b % span);
                    let got = flat.access_mut(block).map(|l| std::mem::replace(l, v));
                    let want = model.access_mut(block).map(|l| std::mem::replace(l, v));
                    prop_assert_eq!(got, want);
                }
                Step::Get(b) => {
                    let block = BlockAddr::new(b % span);
                    prop_assert_eq!(flat.get(block), model.get(block));
                }
                Step::Remove(b) => {
                    let block = BlockAddr::new(b % span);
                    prop_assert_eq!(flat.remove(block), model.remove(block));
                }
                Step::VictimFor(b) => {
                    let block = BlockAddr::new(b % span);
                    prop_assert_eq!(flat.victim_for(block), model.victim_for(block));
                }
                Step::Clear => {
                    flat.clear();
                    model.clear();
                }
            }
            prop_assert_eq!(flat.occupancy(), model.occupancy());
            // A step changes only the set it touches (an eviction comes
            // from the target set); the whole array is compared after a
            // clear, every 64 steps and at the end.
            let sweep = touched.is_none() || i % 64 == 0 || i == last;
            if sweep {
                let got: Vec<_> = flat.iter().collect();
                let want: Vec<_> = model.iter().collect();
                prop_assert_eq!(got, want);
            }
            let probes: Vec<u64> = match touched {
                Some(b) if !sweep => vec![b],
                _ => (0..sets as u64).collect(),
            };
            for probe in probes.into_iter().map(BlockAddr::new) {
                let got: Vec<_> = flat.set_occupants(probe).collect();
                let want: Vec<_> = model.set_occupants(probe).collect();
                prop_assert_eq!(got, want);
                let got: Vec<_> = flat.eviction_order(probe).collect();
                prop_assert_eq!(got, model.eviction_order(probe));
            }
        }
    }
}

/// The per-set implementation the flat [`SetAssoc`] replaced: one heap
/// object per set (a ways `Vec` plus a boxed policy), kept here as the
/// reference model.
mod reference {
    use stashdir_common::{BlockAddr, DetRng};
    use stashdir_mem::ReplKind;

    /// The replacement decision logic for one cache set.
    trait ReplacementPolicy {
        fn on_fill(&mut self, way: usize);
        fn on_hit(&mut self, way: usize);
        fn victim(&mut self, valid: &[bool], rng: &mut DetRng) -> usize;
        /// Ways in eviction order, for the policies that keep one.
        fn ranking(&self) -> Option<&[usize]> {
            None
        }
    }

    fn build(kind: ReplKind, ways: usize) -> Box<dyn ReplacementPolicy> {
        match kind {
            ReplKind::Lru => Box::new(Lru {
                stack: (0..ways).collect(),
            }),
            ReplKind::Fifo => Box::new(Fifo {
                queue: (0..ways).collect(),
            }),
            ReplKind::Random => Box::new(Random { ways }),
            ReplKind::Nru => Box::new(Nru {
                referenced: vec![false; ways],
            }),
            ReplKind::Srrip => Box::new(Srrip {
                rrpv: vec![RRPV_MAX; ways],
            }),
            ReplKind::TreePlru => {
                let leaves = ways.next_power_of_two();
                Box::new(TreePlru {
                    ways,
                    tree: vec![false; leaves.max(2) - 1],
                    leaves,
                })
            }
        }
    }

    struct Lru {
        stack: Vec<usize>,
    }

    impl ReplacementPolicy for Lru {
        fn on_fill(&mut self, way: usize) {
            self.stack.retain(|&w| w != way);
            self.stack.push(way);
        }
        fn on_hit(&mut self, way: usize) {
            self.on_fill(way);
        }
        fn victim(&mut self, valid: &[bool], _rng: &mut DetRng) -> usize {
            self.stack.iter().copied().find(|&w| valid[w]).unwrap_or(0)
        }
        fn ranking(&self) -> Option<&[usize]> {
            Some(&self.stack)
        }
    }

    struct Fifo {
        queue: Vec<usize>,
    }

    impl ReplacementPolicy for Fifo {
        fn on_fill(&mut self, way: usize) {
            self.queue.retain(|&w| w != way);
            self.queue.push(way);
        }
        fn on_hit(&mut self, _way: usize) {}
        fn victim(&mut self, valid: &[bool], _rng: &mut DetRng) -> usize {
            self.queue.iter().copied().find(|&w| valid[w]).unwrap_or(0)
        }
        fn ranking(&self) -> Option<&[usize]> {
            Some(&self.queue)
        }
    }

    struct Random {
        ways: usize,
    }

    impl ReplacementPolicy for Random {
        fn on_fill(&mut self, _way: usize) {}
        fn on_hit(&mut self, _way: usize) {}
        fn victim(&mut self, valid: &[bool], rng: &mut DetRng) -> usize {
            let candidates: Vec<usize> = (0..self.ways).filter(|&w| valid[w]).collect();
            *rng.pick(&candidates)
        }
    }

    struct Nru {
        referenced: Vec<bool>,
    }

    impl ReplacementPolicy for Nru {
        fn on_fill(&mut self, way: usize) {
            self.referenced[way] = true;
        }
        fn on_hit(&mut self, way: usize) {
            self.referenced[way] = true;
        }
        fn victim(&mut self, valid: &[bool], _rng: &mut DetRng) -> usize {
            if let Some(w) = (0..self.referenced.len()).find(|&w| valid[w] && !self.referenced[w]) {
                return w;
            }
            self.referenced.iter_mut().for_each(|r| *r = false);
            (0..self.referenced.len()).find(|&w| valid[w]).unwrap_or(0)
        }
    }

    const RRPV_MAX: u8 = 3;
    const RRPV_INSERT: u8 = 2;

    struct Srrip {
        rrpv: Vec<u8>,
    }

    impl ReplacementPolicy for Srrip {
        fn on_fill(&mut self, way: usize) {
            self.rrpv[way] = RRPV_INSERT;
        }
        fn on_hit(&mut self, way: usize) {
            self.rrpv[way] = 0;
        }
        fn victim(&mut self, valid: &[bool], _rng: &mut DetRng) -> usize {
            loop {
                if let Some(w) =
                    (0..self.rrpv.len()).find(|&w| valid[w] && self.rrpv[w] == RRPV_MAX)
                {
                    return w;
                }
                for (r, &v) in self.rrpv.iter_mut().zip(valid) {
                    if v {
                        *r = (*r + 1).min(RRPV_MAX);
                    }
                }
            }
        }
    }

    struct TreePlru {
        ways: usize,
        tree: Vec<bool>,
        leaves: usize,
    }

    impl TreePlru {
        fn touch(&mut self, way: usize) {
            let (mut node, mut lo, mut size) = (0, 0, self.leaves);
            while size > 1 {
                let half = size / 2;
                let go_right = way >= lo + half;
                self.tree[node] = !go_right;
                node = 2 * node + if go_right { 2 } else { 1 };
                if go_right {
                    lo += half;
                }
                size = half;
            }
        }

        fn follow(&self) -> usize {
            let (mut node, mut lo, mut size) = (0, 0, self.leaves);
            while size > 1 {
                let half = size / 2;
                let go_right = self.tree[node];
                node = 2 * node + if go_right { 2 } else { 1 };
                if go_right {
                    lo += half;
                }
                size = half;
            }
            lo
        }
    }

    impl ReplacementPolicy for TreePlru {
        fn on_fill(&mut self, way: usize) {
            self.touch(way);
        }
        fn on_hit(&mut self, way: usize) {
            self.touch(way);
        }
        fn victim(&mut self, valid: &[bool], _rng: &mut DetRng) -> usize {
            let chosen = self.follow();
            if chosen < self.ways && valid[chosen] {
                return chosen;
            }
            (0..self.ways).find(|&w| valid[w]).unwrap_or(0)
        }
    }

    struct Set<L> {
        ways: Vec<Option<(BlockAddr, L)>>,
        policy: Box<dyn ReplacementPolicy>,
    }

    impl<L> Set<L> {
        fn valid_mask(&self) -> Vec<bool> {
            self.ways.iter().map(Option::is_some).collect()
        }
        fn way_of(&self, block: BlockAddr) -> Option<usize> {
            self.ways
                .iter()
                .position(|w| matches!(w, Some((b, _)) if *b == block))
        }
        fn free_way(&self) -> Option<usize> {
            self.ways.iter().position(Option::is_none)
        }
    }

    pub struct SetAssoc<L> {
        sets: Vec<Set<L>>,
        set_mask: u64,
        rng: DetRng,
    }

    impl<L> SetAssoc<L> {
        pub fn new(num_sets: usize, ways: usize, repl: ReplKind, seed: u64) -> Self {
            SetAssoc {
                sets: (0..num_sets)
                    .map(|_| Set {
                        ways: (0..ways).map(|_| None).collect(),
                        policy: build(repl, ways),
                    })
                    .collect(),
                set_mask: num_sets as u64 - 1,
                rng: DetRng::seed_from(seed),
            }
        }

        fn set(&self, block: BlockAddr) -> &Set<L> {
            &self.sets[(block.get() & self.set_mask) as usize]
        }

        fn set_mut(&mut self, block: BlockAddr) -> &mut Set<L> {
            &mut self.sets[(block.get() & self.set_mask) as usize]
        }

        pub fn occupancy(&self) -> usize {
            self.sets
                .iter()
                .map(|s| s.ways.iter().filter(|w| w.is_some()).count())
                .sum()
        }

        pub fn get(&self, block: BlockAddr) -> Option<&L> {
            let set = self.set(block);
            set.way_of(block)
                .and_then(|w| set.ways[w].as_ref())
                .map(|(_, l)| l)
        }

        pub fn contains(&self, block: BlockAddr) -> bool {
            self.get(block).is_some()
        }

        pub fn touch(&mut self, block: BlockAddr) -> bool {
            let set = self.set_mut(block);
            match set.way_of(block) {
                Some(w) => {
                    set.policy.on_hit(w);
                    true
                }
                None => false,
            }
        }

        pub fn access_mut(&mut self, block: BlockAddr) -> Option<&mut L> {
            let set = self.set_mut(block);
            let w = set.way_of(block)?;
            set.policy.on_hit(w);
            set.ways[w].as_mut().map(|(_, l)| l)
        }

        pub fn insert(&mut self, block: BlockAddr, payload: L) -> Option<(BlockAddr, L)> {
            let idx = (block.get() & self.set_mask) as usize;
            let set = &mut self.sets[idx];
            assert!(set.way_of(block).is_none());
            let (way, evicted) = match set.free_way() {
                Some(w) => (w, None),
                None => {
                    let valid = set.valid_mask();
                    let w = set.policy.victim(&valid, &mut self.rng);
                    (w, set.ways[w].take())
                }
            };
            set.ways[way] = Some((block, payload));
            set.policy.on_fill(way);
            evicted
        }

        pub fn victim_for(&mut self, block: BlockAddr) -> Option<BlockAddr> {
            let idx = (block.get() & self.set_mask) as usize;
            let set = &mut self.sets[idx];
            if set.way_of(block).is_some() || set.free_way().is_some() {
                return None;
            }
            let valid = set.valid_mask();
            let w = set.policy.victim(&valid, &mut self.rng);
            set.ways[w].as_ref().map(|(b, _)| *b)
        }

        pub fn remove(&mut self, block: BlockAddr) -> Option<L> {
            let set = self.set_mut(block);
            let w = set.way_of(block)?;
            set.ways[w].take().map(|(_, l)| l)
        }

        pub fn set_occupants(
            &self,
            block: BlockAddr,
        ) -> impl Iterator<Item = (usize, BlockAddr, &L)> {
            self.set(block)
                .ways
                .iter()
                .enumerate()
                .filter_map(|(w, slot)| slot.as_ref().map(|(b, l)| (w, *b, l)))
        }

        pub fn eviction_order(&self, block: BlockAddr) -> Vec<(usize, BlockAddr, &L)> {
            let set = self.set(block);
            let ways: Vec<usize> = match set.policy.ranking() {
                Some(order) => order.to_vec(),
                None => (0..set.ways.len()).collect(),
            };
            ways.into_iter()
                .filter_map(|w| set.ways[w].as_ref().map(|(b, l)| (w, *b, l)))
                .collect()
        }

        pub fn would_evict(&self, block: BlockAddr) -> bool {
            let set = self.set(block);
            set.way_of(block).is_none() && set.free_way().is_none()
        }

        pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, &L)> {
            self.sets
                .iter()
                .flat_map(|s| s.ways.iter().filter_map(|w| w.as_ref()))
                .map(|(b, l)| (*b, l))
        }

        pub fn clear(&mut self) {
            for set in &mut self.sets {
                for way in &mut set.ways {
                    *way = None;
                }
            }
        }
    }
}
