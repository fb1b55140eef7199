//! Directory entry storage for the sparse and stash directories: a
//! [`SetAssoc`] of [`DirView`]s under LRU order, plus the content-aware
//! victim choice the directories need (the stash directory's
//! private-first policy, and a random ablation with its own RNG).

use crate::model::DirReplPolicy;
use stashdir_common::{BlockAddr, DetRng};
use stashdir_mem::{ReplKind, SetAssoc};
use stashdir_protocol::DirView;

/// Set-associative `(BlockAddr, DirView)` storage with LRU bookkeeping.
#[derive(Debug)]
pub(crate) struct DirStorage {
    entries: SetAssoc<DirView>,
    /// Draws for [`DirReplPolicy::Random`]; LRU order never consumes it.
    rng: DetRng,
}

impl DirStorage {
    pub(crate) fn new(sets: usize, ways: usize, seed: u64) -> Self {
        assert!(
            sets.is_power_of_two(),
            "directory sets must be a power of two, got {sets}"
        );
        assert!(ways > 0, "directory needs at least one way");
        DirStorage {
            entries: SetAssoc::new(sets, ways, ReplKind::Lru, seed),
            rng: DetRng::seed_from(seed),
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    pub(crate) fn occupancy(&self) -> usize {
        self.entries.occupancy()
    }

    pub(crate) fn lookup(&self, block: BlockAddr) -> Option<&DirView> {
        self.entries.get(block)
    }

    /// Updates an existing entry's view and recency. Returns `false` when
    /// the block is not tracked.
    pub(crate) fn update(&mut self, block: BlockAddr, view: DirView) -> bool {
        match self.entries.access_mut(block) {
            Some(slot) => {
                *slot = view;
                true
            }
            None => false,
        }
    }

    /// Whether inserting `block` requires displacing an entry.
    pub(crate) fn needs_victim(&self, block: BlockAddr) -> bool {
        self.entries.would_evict(block)
    }

    /// Chooses (without removing) the victim entry for an insertion of
    /// `block` into its full set, honoring `policy`.
    ///
    /// # Panics
    ///
    /// Panics if the set is not full.
    pub(crate) fn choose_victim(
        &mut self,
        block: BlockAddr,
        policy: DirReplPolicy,
    ) -> (BlockAddr, DirView) {
        debug_assert!(self.needs_victim(block));
        let victim = match policy {
            DirReplPolicy::Lru => self.entries.eviction_order(block).next(),
            DirReplPolicy::PrivateFirstLru => self
                .entries
                .eviction_order(block)
                .find(|(_, _, v)| v.is_private())
                .or_else(|| self.entries.eviction_order(block).next()),
            DirReplPolicy::Random => {
                let way = self.rng.index(self.entries.ways());
                self.entries
                    .set_occupants(block)
                    .find(|&(w, _, _)| w == way)
            }
        };
        // lint: allow(expect) — documented panic contract (doc comment).
        let (_, b, v) = victim.expect("full set has no empty slots");
        (b, v.clone())
    }

    /// Inserts `block` into a set with room (a free way must exist).
    ///
    /// # Panics
    ///
    /// Panics if the set is full or the block already tracked.
    pub(crate) fn insert(&mut self, block: BlockAddr, view: DirView) {
        assert!(
            !self.entries.contains(block),
            "block {block} already tracked"
        );
        assert!(
            !self.entries.would_evict(block),
            "insert requires a free way"
        );
        self.entries.insert(block, view);
    }

    /// Removes `block`'s entry, returning its view.
    pub(crate) fn remove(&mut self, block: BlockAddr) -> Option<DirView> {
        self.entries.remove(block)
    }

    pub(crate) fn entries(&self) -> Vec<(BlockAddr, DirView)> {
        self.entries.iter().map(|(b, v)| (b, v.clone())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use stashdir_common::{CoreId, SharerSet};

    fn excl(core: u16) -> DirView {
        DirView::Exclusive(CoreId::new(core))
    }

    fn shared(cores: &[u16]) -> DirView {
        let mut s = SharerSet::new(16);
        s.extend(cores.iter().map(|&c| CoreId::new(c)));
        DirView::Shared(s)
    }

    #[test]
    fn insert_lookup_remove() {
        let mut st = DirStorage::new(4, 2, 0);
        st.insert(BlockAddr::new(1), excl(3));
        assert_eq!(st.lookup(BlockAddr::new(1)), Some(&excl(3)));
        assert_eq!(st.occupancy(), 1);
        assert_eq!(st.remove(BlockAddr::new(1)), Some(excl(3)));
        assert_eq!(st.lookup(BlockAddr::new(1)), None);
    }

    #[test]
    fn update_refreshes_recency() {
        let mut st = DirStorage::new(1, 2, 0);
        st.insert(BlockAddr::new(0), excl(0));
        st.insert(BlockAddr::new(1), excl(1));
        assert!(st.update(BlockAddr::new(0), excl(5)));
        let (victim, _) = st.choose_victim(BlockAddr::new(2), DirReplPolicy::Lru);
        assert_eq!(victim, BlockAddr::new(1), "block 0 was refreshed");
        assert!(!st.update(BlockAddr::new(9), excl(0)));
    }

    #[test]
    fn private_first_skips_shared_entries() {
        let mut st = DirStorage::new(1, 3, 0);
        st.insert(BlockAddr::new(0), shared(&[1, 2])); // LRU but shared
        st.insert(BlockAddr::new(1), excl(4));
        st.insert(BlockAddr::new(2), shared(&[5, 6]));
        let (victim, view) = st.choose_victim(BlockAddr::new(3), DirReplPolicy::PrivateFirstLru);
        assert_eq!(victim, BlockAddr::new(1));
        assert!(view.is_private());
    }

    #[test]
    fn private_first_counts_single_sharer_as_private() {
        let mut st = DirStorage::new(1, 2, 0);
        st.insert(BlockAddr::new(0), shared(&[1, 2]));
        st.insert(BlockAddr::new(1), shared(&[7]));
        let (victim, _) = st.choose_victim(BlockAddr::new(2), DirReplPolicy::PrivateFirstLru);
        assert_eq!(victim, BlockAddr::new(1));
    }

    #[test]
    fn private_first_falls_back_to_lru() {
        let mut st = DirStorage::new(1, 2, 0);
        st.insert(BlockAddr::new(0), shared(&[1, 2]));
        st.insert(BlockAddr::new(1), shared(&[3, 4]));
        let (victim, _) = st.choose_victim(BlockAddr::new(2), DirReplPolicy::PrivateFirstLru);
        assert_eq!(victim, BlockAddr::new(0), "plain LRU fallback");
    }

    #[test]
    fn needs_victim_tracks_fullness() {
        let mut st = DirStorage::new(1, 2, 0);
        assert!(!st.needs_victim(BlockAddr::new(0)));
        st.insert(BlockAddr::new(0), excl(0));
        st.insert(BlockAddr::new(1), excl(1));
        assert!(st.needs_victim(BlockAddr::new(2)));
        assert!(
            !st.needs_victim(BlockAddr::new(0)),
            "present block needs none"
        );
    }

    #[test]
    fn random_policy_picks_any_way() {
        let mut st = DirStorage::new(1, 4, 7);
        for i in 0..4 {
            st.insert(BlockAddr::new(i), excl(i as u16));
        }
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..100 {
            let (victim, _) = st.choose_victim(BlockAddr::new(9), DirReplPolicy::Random);
            seen.insert(victim.get());
        }
        assert!(
            seen.len() >= 3,
            "random should spread over ways, saw {seen:?}"
        );
    }

    #[test]
    fn entries_snapshot_everything() {
        let mut st = DirStorage::new(2, 2, 0);
        st.insert(BlockAddr::new(0), excl(1));
        st.insert(BlockAddr::new(1), shared(&[2, 3]));
        let mut blocks: Vec<u64> = st.entries().iter().map(|(b, _)| b.get()).collect();
        blocks.sort_unstable();
        assert_eq!(blocks, vec![0, 1]);
    }

    /// One step of the differential test against [`reference::DirStorage`].
    #[derive(Debug, Clone)]
    enum Step {
        /// The sparse/stash install path: update, or evict then insert.
        Install(u64, u16, bool),
        Remove(u64),
        Lookup(u64),
    }

    fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
        let step = prop_oneof![
            6 => (0u64..40, 0u16..16, prop::bool::ANY)
                .prop_map(|(b, c, s)| Step::Install(b, c, s)),
            2 => (0u64..40).prop_map(Step::Remove),
            2 => (0u64..40).prop_map(Step::Lookup),
        ];
        prop::collection::vec(step, 0..300)
    }

    proptest! {
        /// Storage on `SetAssoc` and the per-set implementation it replaced
        /// agree under every victim policy: same views, same victims, same
        /// `entries()` order.
        #[test]
        fn matches_per_set_reference(
            steps in arb_steps(),
            policy in prop::sample::select(vec![
                DirReplPolicy::Lru,
                DirReplPolicy::PrivateFirstLru,
                DirReplPolicy::Random,
            ]),
            sets in prop::sample::select(vec![1usize, 2, 4]),
            ways in 1usize..6,
            seed in 0u64..1000,
        ) {
            let mut st = DirStorage::new(sets, ways, seed);
            let mut model = reference::DirStorage::new(sets, ways, seed);
            for step in steps {
                match step {
                    Step::Install(b, core, share) => {
                        let block = BlockAddr::new(b);
                        let view = if share { shared(&[core, (core + 1) % 16]) } else { excl(core) };
                        let updated = st.update(block, view.clone());
                        prop_assert_eq!(updated, model.update(block, view.clone()));
                        if !updated {
                            prop_assert_eq!(st.needs_victim(block), model.needs_victim(block));
                            if model.needs_victim(block) {
                                let victim = st.choose_victim(block, policy);
                                prop_assert_eq!(&victim, &model.choose_victim(block, policy));
                                st.remove(victim.0);
                                model.remove(victim.0);
                            }
                            st.insert(block, view.clone());
                            model.insert(block, view);
                        }
                    }
                    Step::Remove(b) => {
                        let block = BlockAddr::new(b);
                        prop_assert_eq!(st.remove(block), model.remove(block));
                    }
                    Step::Lookup(b) => {
                        let block = BlockAddr::new(b);
                        prop_assert_eq!(st.lookup(block), model.lookup(block));
                    }
                }
                prop_assert_eq!(st.occupancy(), model.occupancy());
                prop_assert_eq!(st.entries(), model.entries());
            }
        }
    }

    /// The per-set storage `DirStorage` replaced: every set its own slot
    /// `Vec` plus a recency `Vec`, kept here as the reference model.
    mod reference {
        use crate::model::DirReplPolicy;
        use stashdir_common::{BlockAddr, DetRng};
        use stashdir_protocol::DirView;

        struct DirSet {
            slots: Vec<Option<(BlockAddr, DirView)>>,
            /// Way indices ordered least- to most-recently used.
            lru: Vec<usize>,
        }

        impl DirSet {
            fn way_of(&self, block: BlockAddr) -> Option<usize> {
                self.slots
                    .iter()
                    .position(|s| matches!(s, Some((b, _)) if *b == block))
            }

            fn free_way(&self) -> Option<usize> {
                self.slots.iter().position(Option::is_none)
            }

            fn promote(&mut self, way: usize) {
                self.lru.retain(|&w| w != way);
                self.lru.push(way);
            }
        }

        pub(super) struct DirStorage {
            sets: Vec<DirSet>,
            set_mask: u64,
            ways: usize,
            rng: DetRng,
        }

        impl DirStorage {
            pub(super) fn new(sets: usize, ways: usize, seed: u64) -> Self {
                DirStorage {
                    sets: (0..sets)
                        .map(|_| DirSet {
                            slots: (0..ways).map(|_| None).collect(),
                            lru: (0..ways).collect(),
                        })
                        .collect(),
                    set_mask: sets as u64 - 1,
                    ways,
                    rng: DetRng::seed_from(seed),
                }
            }

            fn set(&mut self, block: BlockAddr) -> &mut DirSet {
                &mut self.sets[(block.get() & self.set_mask) as usize]
            }

            pub(super) fn occupancy(&self) -> usize {
                self.sets
                    .iter()
                    .map(|s| s.slots.iter().filter(|w| w.is_some()).count())
                    .sum()
            }

            pub(super) fn lookup(&self, block: BlockAddr) -> Option<&DirView> {
                let set = &self.sets[(block.get() & self.set_mask) as usize];
                set.way_of(block)
                    .and_then(|w| set.slots[w].as_ref())
                    .map(|(_, v)| v)
            }

            pub(super) fn update(&mut self, block: BlockAddr, view: DirView) -> bool {
                let set = self.set(block);
                match set.way_of(block) {
                    Some(w) => {
                        set.slots[w] = Some((block, view));
                        set.promote(w);
                        true
                    }
                    None => false,
                }
            }

            pub(super) fn needs_victim(&mut self, block: BlockAddr) -> bool {
                let set = self.set(block);
                set.way_of(block).is_none() && set.free_way().is_none()
            }

            pub(super) fn choose_victim(
                &mut self,
                block: BlockAddr,
                policy: DirReplPolicy,
            ) -> (BlockAddr, DirView) {
                let idx = (block.get() & self.set_mask) as usize;
                let set = &self.sets[idx];
                let way = match policy {
                    DirReplPolicy::Lru => set.lru[0],
                    DirReplPolicy::PrivateFirstLru => set
                        .lru
                        .iter()
                        .copied()
                        .find(|&w| {
                            set.slots[w]
                                .as_ref()
                                .map(|(_, v)| v.is_private())
                                .unwrap_or(false)
                        })
                        .unwrap_or(set.lru[0]),
                    DirReplPolicy::Random => self.rng.index(self.ways),
                };
                let (b, v) = self.sets[idx].slots[way].as_ref().unwrap();
                (*b, v.clone())
            }

            pub(super) fn insert(&mut self, block: BlockAddr, view: DirView) {
                let set = self.set(block);
                let way = set.free_way().unwrap();
                set.slots[way] = Some((block, view));
                set.promote(way);
            }

            pub(super) fn remove(&mut self, block: BlockAddr) -> Option<DirView> {
                let set = self.set(block);
                let w = set.way_of(block)?;
                set.slots[w].take().map(|(_, v)| v)
            }

            pub(super) fn entries(&self) -> Vec<(BlockAddr, DirView)> {
                self.sets
                    .iter()
                    .flat_map(|s| s.slots.iter().filter_map(|w| w.clone()))
                    .collect()
            }
        }
    }

    #[test]
    #[should_panic(expected = "already tracked")]
    fn double_insert_panics() {
        let mut st = DirStorage::new(2, 2, 0);
        st.insert(BlockAddr::new(0), excl(0));
        st.insert(BlockAddr::new(0), excl(1));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_set_count_panics() {
        let _ = DirStorage::new(3, 2, 0);
    }
}
