//! A generic set-associative tag array.
//!
//! [`SetAssoc`] maps [`BlockAddr`]s to payloads of type `L` (cache-line
//! metadata, directory entries, …) with bounded associativity and a
//! selectable replacement policy. It is the storage substrate for the
//! private caches, the LLC banks and the sparse/stash directory slices.
//!
//! Storage is flat. The tags, payloads and replacement state of every set
//! live in three arrays, one row per set. A set gets its row on its first
//! insert, so building an array allocates nothing per set and an array
//! holds memory only for the sets it has used.

// lint: allow-file(indexing) — set indices are masked by `set_mask`, rows
// come from `rows` and are below the number of rows pushed, way indices
// are below `ways`, and every row spans `ways` slots and `state_len`
// replacement words.

use crate::replacement::ReplKind;
use stashdir_common::{BlockAddr, DetRng};

/// `rows` entry of a set that has not been materialized yet.
const UNMAPPED: u32 = u32::MAX;

/// Tag of an empty way. Only a way holding a payload can match a lookup,
/// so a block whose number equals this value is still stored correctly.
const NO_TAG: u64 = u64::MAX;

/// A set-associative array of `L` payloads keyed by block address.
///
/// The structural invariant is that a block lives in exactly one way of the
/// set its address maps to, so lookups are O(associativity).
///
/// # Examples
///
/// ```
/// use stashdir_common::BlockAddr;
/// use stashdir_mem::{ReplKind, SetAssoc};
///
/// let mut a: SetAssoc<u32> = SetAssoc::new(2, 2, ReplKind::Lru, 7);
/// a.insert(BlockAddr::new(1), 10);
/// assert_eq!(a.get(BlockAddr::new(1)), Some(&10));
/// assert_eq!(a.occupancy(), 1);
/// ```
pub struct SetAssoc<L> {
    /// Per set, its row in the flat arrays, or [`UNMAPPED`] before the
    /// set's first insert.
    rows: Vec<u32>,
    /// Block number per way, `ways` per row; meaningful only where
    /// `lines` holds a payload.
    tags: Vec<u64>,
    /// Payload per way, `ways` per row; `None` is an empty way.
    lines: Vec<Option<L>>,
    /// Replacement state, `state_len` words per row (see [`ReplKind`]).
    repl_state: Vec<u32>,
    state_len: usize,
    ways: usize,
    set_mask: u64,
    rng: DetRng,
    repl: ReplKind,
}

impl<L> SetAssoc<L> {
    /// Creates an array with `num_sets` sets of `ways` ways using the given
    /// replacement policy. `seed` feeds the policy's RNG (only `Random`
    /// consumes it) so runs are reproducible.
    ///
    /// # Panics
    ///
    /// Panics if `num_sets` is not a power of two or `ways` is zero.
    pub fn new(num_sets: usize, ways: usize, repl: ReplKind, seed: u64) -> Self {
        assert!(
            num_sets.is_power_of_two(),
            "num_sets must be a power of two, got {num_sets}"
        );
        assert!(ways > 0, "ways must be positive");
        assert!(num_sets < UNMAPPED as usize, "too many sets: {num_sets}");
        SetAssoc {
            rows: vec![UNMAPPED; num_sets],
            tags: Vec::new(),
            lines: Vec::new(),
            repl_state: Vec::new(),
            state_len: repl.state_len(ways),
            ways,
            set_mask: num_sets as u64 - 1,
            rng: DetRng::seed_from(seed),
            repl,
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.rows.len()
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total capacity in blocks.
    pub fn capacity(&self) -> usize {
        self.rows.len() * self.ways
    }

    /// Number of blocks currently stored.
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.is_some()).count()
    }

    /// The replacement policy kind this array was built with.
    pub fn repl_kind(&self) -> ReplKind {
        self.repl
    }

    /// The set index a block maps to.
    pub fn set_index(&self, block: BlockAddr) -> usize {
        (block.get() & self.set_mask) as usize
    }

    /// The row of `block`'s set, if the set has been materialized.
    fn row_of(&self, block: BlockAddr) -> Option<usize> {
        let row = self.rows[self.set_index(block)];
        (row != UNMAPPED).then_some(row as usize)
    }

    /// The way of `row` holding `block`.
    fn way_in(&self, row: usize, block: BlockAddr) -> Option<usize> {
        let base = row * self.ways;
        let tags = &self.tags[base..base + self.ways];
        let lines = &self.lines[base..base + self.ways];
        tags.iter()
            .zip(lines)
            .position(|(&t, l)| t == block.get() && l.is_some())
    }

    /// The first empty way of `row`.
    fn free_way(&self, row: usize) -> Option<usize> {
        let base = row * self.ways;
        self.lines[base..base + self.ways]
            .iter()
            .position(Option::is_none)
    }

    /// `(row, way)` of `block`, if present.
    fn locate(&self, block: BlockAddr) -> Option<(usize, usize)> {
        let row = self.row_of(block)?;
        Some((row, self.way_in(row, block)?))
    }

    /// The replacement state of `row`.
    fn state_mut(&mut self, row: usize) -> &mut [u32] {
        let start = row * self.state_len;
        &mut self.repl_state[start..start + self.state_len]
    }

    /// The occupant of `way` in `row`, as `(way, block, payload)`.
    fn occupant(&self, row: usize, way: usize) -> Option<(usize, BlockAddr, &L)> {
        let slot = row * self.ways + way;
        self.lines[slot]
            .as_ref()
            .map(|l| (way, BlockAddr::new(self.tags[slot]), l))
    }

    /// The row of `set`, appending an empty one on the set's first use.
    fn materialize(&mut self, set: usize) -> usize {
        let row = self.rows[set];
        if row != UNMAPPED {
            return row as usize;
        }
        let row = self.tags.len() / self.ways;
        self.tags.resize(self.tags.len() + self.ways, NO_TAG);
        self.lines.extend((0..self.ways).map(|_| None));
        let start = self.repl_state.len();
        self.repl_state.resize(start + self.state_len, 0);
        self.repl.init(&mut self.repl_state[start..]);
        self.rows[set] = row as u32;
        row
    }

    /// Runs the policy's victim choice on the full set in `row`.
    fn pick_victim(&mut self, row: usize) -> usize {
        let start = row * self.state_len;
        let state = &mut self.repl_state[start..start + self.state_len];
        self.repl.victim(state, self.ways, &mut self.rng)
    }

    /// Returns the payload for `block` without updating recency.
    pub fn get(&self, block: BlockAddr) -> Option<&L> {
        let (row, way) = self.locate(block)?;
        self.lines[row * self.ways + way].as_ref()
    }

    /// Returns the payload for `block` mutably without updating recency.
    pub fn get_mut(&mut self, block: BlockAddr) -> Option<&mut L> {
        let (row, way) = self.locate(block)?;
        self.lines[row * self.ways + way].as_mut()
    }

    /// Tests whether `block` is present.
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.locate(block).is_some()
    }

    /// Records a hit on `block`, promoting it in the replacement order.
    /// Returns `false` if the block is absent.
    pub fn touch(&mut self, block: BlockAddr) -> bool {
        match self.locate(block) {
            Some((row, way)) => {
                let (repl, ways) = (self.repl, self.ways);
                repl.on_hit(self.state_mut(row), ways, way);
                true
            }
            None => false,
        }
    }

    /// Returns the payload mutably and promotes the block (hit semantics).
    pub fn access_mut(&mut self, block: BlockAddr) -> Option<&mut L> {
        let (row, way) = self.locate(block)?;
        let (repl, ways) = (self.repl, self.ways);
        repl.on_hit(self.state_mut(row), ways, way);
        self.lines[row * ways + way].as_mut()
    }

    /// Inserts `block`, evicting and returning the replacement victim if
    /// the target set is full.
    ///
    /// # Panics
    ///
    /// Panics if `block` is already present (callers must use [`get_mut`]
    /// to update an existing payload).
    ///
    /// [`get_mut`]: SetAssoc::get_mut
    pub fn insert(&mut self, block: BlockAddr, payload: L) -> Option<(BlockAddr, L)> {
        let row = self.materialize(self.set_index(block));
        assert!(
            self.way_in(row, block).is_none(),
            "block {block} already present; update it instead of re-inserting"
        );
        let (way, evicted) = match self.free_way(row) {
            Some(w) => (w, None),
            None => {
                let w = self.pick_victim(row);
                let slot = row * self.ways + w;
                let old = self.lines[slot]
                    .take()
                    .map(|l| (BlockAddr::new(self.tags[slot]), l));
                (w, old)
            }
        };
        let slot = row * self.ways + way;
        self.tags[slot] = block.get();
        self.lines[slot] = Some(payload);
        let (repl, ways) = (self.repl, self.ways);
        repl.on_fill(self.state_mut(row), ways, way);
        evicted
    }

    /// The block that would be evicted if `block` were inserted now, or
    /// `None` if the target set still has a free way (or already holds
    /// `block`). May advance policy state (SRRIP aging, RNG draws), which
    /// mirrors hardware where the victim choice is made once per miss.
    pub fn victim_for(&mut self, block: BlockAddr) -> Option<BlockAddr> {
        let row = self.row_of(block)?;
        if self.way_in(row, block).is_some() || self.free_way(row).is_some() {
            return None;
        }
        let way = self.pick_victim(row);
        self.occupant(row, way).map(|(_, b, _)| b)
    }

    /// Removes `block`, returning its payload.
    pub fn remove(&mut self, block: BlockAddr) -> Option<L> {
        let (row, way) = self.locate(block)?;
        let slot = row * self.ways + way;
        self.tags[slot] = NO_TAG;
        self.lines[slot].take()
    }

    /// Iterates the occupants of the set `block` maps to, as
    /// `(way, block, payload)` triples in way order. Used by callers that
    /// pick victims by payload content (the stash directory's
    /// private-first policy).
    pub fn set_occupants(&self, block: BlockAddr) -> impl Iterator<Item = (usize, BlockAddr, &L)> {
        self.row_of(block)
            .into_iter()
            .flat_map(move |row| (0..self.ways).filter_map(move |w| self.occupant(row, w)))
    }

    /// Like [`set_occupants`], but in the order the policy would evict
    /// them: least recently used first under [`ReplKind::Lru`], oldest
    /// fill first under [`ReplKind::Fifo`]. The other policies keep no
    /// total order and yield way order.
    ///
    /// [`set_occupants`]: SetAssoc::set_occupants
    pub fn eviction_order(&self, block: BlockAddr) -> impl Iterator<Item = (usize, BlockAddr, &L)> {
        let ranked = matches!(self.repl, ReplKind::Lru | ReplKind::Fifo);
        self.row_of(block).into_iter().flat_map(move |row| {
            let state = &self.repl_state[row * self.state_len..(row + 1) * self.state_len];
            (0..self.ways)
                .map(move |i| if ranked { state[i] as usize } else { i })
                .filter_map(move |w| self.occupant(row, w))
        })
    }

    /// `true` when the set `block` maps to has no free way and does not
    /// already contain `block` (i.e. inserting `block` would evict).
    pub fn would_evict(&self, block: BlockAddr) -> bool {
        self.row_of(block)
            .is_some_and(|row| self.way_in(row, block).is_none() && self.free_way(row).is_none())
    }

    /// Iterates every resident `(block, payload)` pair in set order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, &L)> {
        self.rows
            .iter()
            .filter(|&&row| row != UNMAPPED)
            .flat_map(move |&row| {
                (0..self.ways).filter_map(move |w| self.occupant(row as usize, w))
            })
            .map(|(_, b, l)| (b, l))
    }

    /// Removes every block.
    pub fn clear(&mut self) {
        self.lines.iter_mut().for_each(|l| *l = None);
        self.tags.fill(NO_TAG);
    }
}

impl<L: std::fmt::Debug> std::fmt::Debug for SetAssoc<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SetAssoc")
            .field("num_sets", &self.num_sets())
            .field("ways", &self.ways)
            .field("occupancy", &self.occupancy())
            .field("repl", &self.repl)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array(sets: usize, ways: usize) -> SetAssoc<u32> {
        SetAssoc::new(sets, ways, ReplKind::Lru, 1)
    }

    #[test]
    fn insert_get_remove() {
        let mut a = array(4, 2);
        assert!(a.insert(BlockAddr::new(5), 50).is_none());
        assert_eq!(a.get(BlockAddr::new(5)), Some(&50));
        assert_eq!(a.remove(BlockAddr::new(5)), Some(50));
        assert_eq!(a.get(BlockAddr::new(5)), None);
        assert_eq!(a.remove(BlockAddr::new(5)), None);
    }

    #[test]
    fn conflicting_blocks_evict_lru() {
        let mut a = array(4, 2);
        // Blocks 0, 4, 8 all map to set 0.
        a.insert(BlockAddr::new(0), 0);
        a.insert(BlockAddr::new(4), 4);
        a.touch(BlockAddr::new(0)); // 4 becomes LRU
        let evicted = a.insert(BlockAddr::new(8), 8);
        assert_eq!(evicted, Some((BlockAddr::new(4), 4)));
        assert!(a.contains(BlockAddr::new(0)));
        assert!(a.contains(BlockAddr::new(8)));
    }

    #[test]
    fn victim_for_predicts_then_insert_evicts_it() {
        let mut a = array(1, 4);
        for i in 0..4 {
            a.insert(BlockAddr::new(i), i as u32);
        }
        let predicted = a.victim_for(BlockAddr::new(9)).unwrap();
        let evicted = a.insert(BlockAddr::new(9), 9).unwrap().0;
        assert_eq!(predicted, evicted);
    }

    #[test]
    fn victim_for_none_when_room_or_present() {
        let mut a = array(1, 2);
        a.insert(BlockAddr::new(1), 1);
        assert_eq!(a.victim_for(BlockAddr::new(2)), None, "free way exists");
        a.insert(BlockAddr::new(2), 2);
        assert_eq!(a.victim_for(BlockAddr::new(1)), None, "already present");
        assert!(a.victim_for(BlockAddr::new(3)).is_some());
    }

    #[test]
    fn occupancy_and_capacity_track_contents() {
        let mut a = array(4, 2);
        assert_eq!(a.capacity(), 8);
        assert_eq!(a.occupancy(), 0);
        for i in 0..5 {
            a.insert(BlockAddr::new(i), 0);
        }
        assert_eq!(a.occupancy(), 5);
        a.clear();
        assert_eq!(a.occupancy(), 0);
    }

    #[test]
    fn access_mut_promotes() {
        let mut a = array(1, 2);
        a.insert(BlockAddr::new(0), 0);
        a.insert(BlockAddr::new(1), 1);
        *a.access_mut(BlockAddr::new(0)).unwrap() = 99; // 1 is now LRU
        let evicted = a.insert(BlockAddr::new(2), 2).unwrap();
        assert_eq!(evicted.0, BlockAddr::new(1));
        assert_eq!(a.get(BlockAddr::new(0)), Some(&99));
    }

    #[test]
    fn set_occupants_lists_whole_set() {
        let mut a = array(2, 2);
        a.insert(BlockAddr::new(0), 10); // set 0
        a.insert(BlockAddr::new(2), 20); // set 0
        a.insert(BlockAddr::new(1), 11); // set 1
        let set0: Vec<_> = a.set_occupants(BlockAddr::new(0)).collect();
        assert_eq!(set0.len(), 2);
        assert!(set0
            .iter()
            .any(|&(_, b, &v)| b == BlockAddr::new(0) && v == 10));
        assert!(set0
            .iter()
            .any(|&(_, b, &v)| b == BlockAddr::new(2) && v == 20));
    }

    #[test]
    fn would_evict_reports_pressure() {
        let mut a = array(1, 2);
        assert!(!a.would_evict(BlockAddr::new(0)));
        a.insert(BlockAddr::new(0), 0);
        a.insert(BlockAddr::new(1), 1);
        assert!(a.would_evict(BlockAddr::new(2)));
        assert!(!a.would_evict(BlockAddr::new(0)), "already present");
    }

    #[test]
    fn iter_visits_everything() {
        let mut a = array(4, 2);
        for i in 0..6 {
            a.insert(BlockAddr::new(i), i as u32);
        }
        let mut seen: Vec<u64> = a.iter().map(|(b, _)| b.get()).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn sets_materialize_on_first_insert() {
        let mut a = array(1024, 4);
        assert_eq!(a.capacity(), 4096);
        assert!(a.lines.is_empty() && a.repl_state.is_empty());
        assert_eq!(a.get(BlockAddr::new(7)), None);
        assert!(!a.touch(BlockAddr::new(7)));
        assert_eq!(a.victim_for(BlockAddr::new(7)), None);
        assert!(!a.would_evict(BlockAddr::new(7)));
        a.insert(BlockAddr::new(7), 7);
        a.insert(BlockAddr::new(3), 3);
        assert_eq!(a.lines.len(), 8, "two sets materialized");
        // Set order, not materialization order.
        let blocks: Vec<u64> = a.iter().map(|(b, _)| b.get()).collect();
        assert_eq!(blocks, vec![3, 7]);
    }

    #[test]
    fn eviction_order_follows_recency() {
        let mut a = array(1, 3);
        for i in 0..3 {
            a.insert(BlockAddr::new(i), i as u32);
        }
        a.touch(BlockAddr::new(0));
        let order: Vec<u64> = a
            .eviction_order(BlockAddr::new(0))
            .map(|(_, b, _)| b.get())
            .collect();
        assert_eq!(order, vec![1, 2, 0]);
        assert_eq!(a.victim_for(BlockAddr::new(9)), Some(BlockAddr::new(1)));
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn double_insert_panics() {
        let mut a = array(2, 2);
        a.insert(BlockAddr::new(1), 1);
        a.insert(BlockAddr::new(1), 2);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_panics() {
        let _: SetAssoc<u32> = SetAssoc::new(3, 2, ReplKind::Lru, 0);
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut a = array(8, 1);
        for i in 0..8 {
            assert!(a.insert(BlockAddr::new(i), i as u32).is_none());
        }
        assert_eq!(a.occupancy(), 8);
    }
}
