//! A generic set-associative tag array.
//!
//! [`SetAssoc`] maps [`BlockAddr`]s to payloads of type `L` (cache-line
//! metadata, directory entries, …) with bounded associativity and a
//! selectable replacement policy. It is the storage substrate for the
//! private caches, the LLC banks and the sparse/stash directory slices.
//!
//! Storage is flat and grows with occupancy. The tags and payloads of
//! every set live in two shared arrays, where a set owns one chunk of
//! `cap` consecutive ways; its replacement state lives in a third array.
//! A set gets a one-way chunk on its first insert, and the chunk doubles
//! (up to the associativity) only when a fill finds every way of it full.
//! Building an array allocates nothing, and an array holds memory only
//! for the ways its sets have filled, plus an 8-byte index entry per set
//! once it holds anything.

// lint: allow-file(indexing) — set indices are masked by `set_mask`,
// chunks come from `rows` entries written by `alloc` and slid by
// `compact`, so `off + cap` never exceeds the arrays' length; way indices
// are below a chunk's `cap` or below `ways`, and every state row spans
// `state_len` words.

use crate::replacement::{ReplKind, MAX_WAYS};
use stashdir_common::{BlockAddr, DetRng};

/// Most sets one array may have: a `rows` entry holds a 24-bit
/// replacement-state row.
pub const MAX_SETS: usize = 1 << 24;

/// Most ways (sets × associativity) one array may have, which keeps
/// every chunk offset, free slots included, within 31 bits.
pub const MAX_BLOCKS: usize = 1 << 30;

const OFFSET_BITS: u32 = 31;
const STATE_BITS: u32 = 24;

/// The arena is compacted once its free slots exceed `1/COMPACT_RATIO`
/// of the slots sets own.
const COMPACT_RATIO: usize = 16;

/// Where a materialized set keeps its ways and replacement state.
///
/// Packed into the set's single `rows` word as `cap` (9 bits) above the
/// state row (24 bits) above the chunk offset (31 bits), so a lookup
/// needs one load before it reaches the tags. `cap` is at least 1, so the
/// word `0` marks a set that has not been materialized.
#[derive(Clone, Copy)]
struct Chunk {
    /// First slot of the set's chunk in `tags`/`lines`.
    off: usize,
    /// Ways the chunk holds; ways at or past `cap` are empty.
    cap: usize,
    /// The set's row in `repl_state` (its materialization rank).
    state: usize,
}

impl Chunk {
    fn pack(self) -> u64 {
        ((self.cap as u64) << (OFFSET_BITS + STATE_BITS))
            | ((self.state as u64) << OFFSET_BITS)
            | self.off as u64
    }

    fn unpack(word: u64) -> Option<Chunk> {
        (word != 0).then_some(Chunk {
            off: (word & ((1 << OFFSET_BITS) - 1)) as usize,
            cap: (word >> (OFFSET_BITS + STATE_BITS)) as usize,
            state: ((word >> OFFSET_BITS) & ((1 << STATE_BITS) - 1)) as usize,
        })
    }

    fn slots(self) -> std::ops::Range<usize> {
        self.off..self.off + self.cap
    }
}

/// Chunk capacity classes: 1, 2, 4, … 256 ways.
const CLASSES: usize = MAX_WAYS.trailing_zeros() as usize + 1;

/// The free-list index of a chunk of `cap` ways: capacities run
/// 1, 2, 4, … and end at the associativity, which need not be a power of
/// two.
fn class_of(cap: usize) -> usize {
    cap.next_power_of_two().trailing_zeros() as usize
}

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
    /// Per set, its packed [`Chunk`], or `0` before the set's first insert.
    /// Empty until the array's first insert.
    rows: Vec<u64>,
    /// Block number per slot; meaningful only where `lines` holds a
    /// payload, so any block number is legal. Removal leaves the tag, so
    /// the first slot of a chunk always names a block of the chunk's set:
    /// way 0 is filled when the set materializes and growth copies it.
    tags: Vec<u64>,
    /// Payload per slot; `None` is an empty way or a free slot.
    lines: Vec<Option<L>>,
    /// Replacement state, `state_len` words per materialized set (see
    /// [`ReplKind`]), always for the full associativity.
    repl_state: Vec<u8>,
    /// Sets materialized so far, which is the next free state row.
    materialized: usize,
    /// Offsets of released chunks, one list per capacity class.
    free: [Vec<u32>; CLASSES],
    /// Slots held by the chunks in `free`.
    free_slots: usize,
    /// Sets that have grown to all `ways` ways.
    full_sets: usize,
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
    /// Panics if `num_sets` is not a power of two or above [`MAX_SETS`],
    /// if `ways` is zero or above [`MAX_WAYS`], or if the array would
    /// have more than [`MAX_BLOCKS`] ways.
    pub fn new(num_sets: usize, ways: usize, repl: ReplKind, seed: u64) -> Self {
        assert!(
            num_sets.is_power_of_two(),
            "num_sets must be a power of two, got {num_sets}"
        );
        assert!(ways > 0, "ways must be positive");
        assert!(
            ways <= MAX_WAYS,
            "ways must be at most {MAX_WAYS}, got {ways}"
        );
        assert!(
            num_sets <= MAX_SETS,
            "too many sets: {num_sets} (at most {MAX_SETS})"
        );
        assert!(
            num_sets * ways <= MAX_BLOCKS,
            "too many ways: {num_sets} sets x {ways} (at most {MAX_BLOCKS})"
        );
        SetAssoc {
            rows: Vec::new(),
            tags: Vec::new(),
            lines: Vec::new(),
            repl_state: Vec::new(),
            materialized: 0,
            free: Default::default(),
            free_slots: 0,
            full_sets: 0,
            state_len: repl.state_len(ways),
            ways,
            set_mask: num_sets as u64 - 1,
            rng: DetRng::seed_from(seed),
            repl,
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.set_mask as usize + 1
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total capacity in blocks.
    pub fn capacity(&self) -> usize {
        self.num_sets() * self.ways
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

    /// The chunk of `block`'s set, if the set has been materialized.
    fn chunk_of(&self, block: BlockAddr) -> Option<Chunk> {
        let word = self.rows.get(self.set_index(block))?;
        Chunk::unpack(*word)
    }

    /// The way of `chunk` holding `block`.
    fn way_in(&self, chunk: Chunk, block: BlockAddr) -> Option<usize> {
        let tags = &self.tags[chunk.slots()];
        let lines = &self.lines[chunk.slots()];
        tags.iter()
            .zip(lines)
            .position(|(&t, l)| t == block.get() && l.is_some())
    }

    /// The first empty way of `chunk`'s set: the lowest empty way of the
    /// chunk, else the first way past it while the set can still grow.
    fn free_way(&self, chunk: Chunk) -> Option<usize> {
        self.lines[chunk.slots()]
            .iter()
            .position(Option::is_none)
            .or((chunk.cap < self.ways).then_some(chunk.cap))
    }

    /// `(chunk, way)` of `block`, if present.
    fn locate(&self, block: BlockAddr) -> Option<(Chunk, usize)> {
        let chunk = self.chunk_of(block)?;
        Some((chunk, self.way_in(chunk, block)?))
    }

    /// The replacement state of `chunk`'s set.
    fn state_mut(&mut self, chunk: Chunk) -> &mut [u8] {
        let start = chunk.state * self.state_len;
        &mut self.repl_state[start..start + self.state_len]
    }

    /// The occupant of `way` in `chunk`, as `(way, block, payload)`.
    fn occupant(&self, chunk: Chunk, way: usize) -> Option<(usize, BlockAddr, &L)> {
        if way >= chunk.cap {
            return None;
        }
        let slot = chunk.off + way;
        self.lines[slot]
            .as_ref()
            .map(|l| (way, BlockAddr::new(self.tags[slot]), l))
    }

    /// A chunk of `cap` empty slots: the smallest released chunk that
    /// fits, its unused tail released again in power-of-two pieces, or new
    /// slots at the end of the arena.
    fn alloc(&mut self, cap: usize) -> usize {
        let Some((class, off)) = (class_of(cap)..=class_of(self.ways))
            .find_map(|k| self.free[k].pop().map(|off| (k, off as usize)))
        else {
            let off = self.tags.len();
            self.tags.resize(off + cap, 0);
            self.lines.extend((0..cap).map(|_| None));
            return off;
        };
        let have = (1 << class).min(self.ways);
        self.free_slots -= have;
        let mut rest = have - cap;
        while rest > 0 {
            let piece = 1 << rest.trailing_zeros();
            rest -= piece;
            self.release(off + cap + rest, piece);
        }
        off
    }

    /// Puts the chunk of `cap` slots at `off` on its free list.
    fn release(&mut self, off: usize, cap: usize) {
        self.free[class_of(cap)].push(off as u32);
        self.free_slots += cap;
    }

    /// The chunk of `set`, giving it one empty way on the set's first use.
    fn materialize(&mut self, set: usize) -> Chunk {
        if self.rows.is_empty() {
            self.rows = vec![0; self.num_sets()];
        }
        if let Some(chunk) = Chunk::unpack(self.rows[set]) {
            return chunk;
        }
        let chunk = Chunk {
            off: self.alloc(1),
            cap: 1,
            state: self.materialized,
        };
        let start = self.repl_state.len();
        self.repl_state.resize(start + self.state_len, 0);
        self.repl.init(&mut self.repl_state[start..]);
        self.materialized += 1;
        self.rows[set] = chunk.pack();
        chunk
    }

    /// Moves the full set `set` from `chunk` into a chunk twice as large
    /// (at most `ways`), releases the old chunk, and returns the set's
    /// chunk as it stands after any compaction that release triggered.
    fn grow(&mut self, set: usize, chunk: Chunk) -> Chunk {
        let cap = (chunk.cap * 2).min(self.ways);
        let off = self.alloc(cap);
        for (i, from) in chunk.slots().enumerate() {
            self.tags[off + i] = self.tags[from];
            self.lines[off + i] = self.lines[from].take();
        }
        self.rows[set] = Chunk { off, cap, ..chunk }.pack();
        self.release(chunk.off, chunk.cap);
        if cap == self.ways {
            self.full_sets += 1;
        }
        // Once every set is full no chunk can be reused, so the last
        // growth also compacts and a full array is exactly fixed rows.
        if self.free_slots * COMPACT_RATIO > self.tags.len() - self.free_slots
            || self.full_sets == self.num_sets()
        {
            self.compact();
        }
        Chunk::unpack(self.rows[set]).unwrap_or(chunk)
    }

    /// Slides every set's chunk down over the free slots, in offset order,
    /// so the arena holds exactly the slots sets own. A slot starts a
    /// set's chunk when its tag maps to a set whose chunk begins there
    /// (see `tags`); the walk skips any other slot as free.
    fn compact(&mut self) {
        let (mut from, mut to) = (0, 0);
        while from < self.tags.len() {
            let set = (self.tags[from] & self.set_mask) as usize;
            let chunk = match Chunk::unpack(self.rows[set]) {
                Some(chunk) if chunk.off == from => chunk,
                _ => {
                    from += 1;
                    continue;
                }
            };
            if from != to {
                // `to < from`, and every slot in between is free or
                // already moved, so an ascending copy never overwrites a
                // payload it still needs. Moved chunks start below `to`,
                // so no later free slot can match them.
                for i in 0..chunk.cap {
                    self.tags[to + i] = self.tags[from + i];
                    self.lines[to + i] = self.lines[from + i].take();
                }
                self.rows[set] = Chunk { off: to, ..chunk }.pack();
            }
            from += chunk.cap;
            to += chunk.cap;
        }
        self.tags.truncate(to);
        self.lines.truncate(to);
        self.free.iter_mut().for_each(Vec::clear);
        self.free_slots = 0;
    }

    /// Runs the policy's victim choice on the full set of `chunk`.
    fn pick_victim(&mut self, chunk: Chunk) -> usize {
        let start = chunk.state * self.state_len;
        let state = &mut self.repl_state[start..start + self.state_len];
        self.repl.victim(state, self.ways, &mut self.rng)
    }

    /// Returns the payload for `block` without updating recency.
    pub fn get(&self, block: BlockAddr) -> Option<&L> {
        let (chunk, way) = self.locate(block)?;
        self.lines[chunk.off + way].as_ref()
    }

    /// Returns the payload for `block` mutably without updating recency.
    pub fn get_mut(&mut self, block: BlockAddr) -> Option<&mut L> {
        let (chunk, way) = self.locate(block)?;
        self.lines[chunk.off + way].as_mut()
    }

    /// Tests whether `block` is present.
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.locate(block).is_some()
    }

    /// Records a hit on `block`, promoting it in the replacement order.
    /// Returns `false` if the block is absent.
    pub fn touch(&mut self, block: BlockAddr) -> bool {
        match self.locate(block) {
            Some((chunk, way)) => {
                let (repl, ways) = (self.repl, self.ways);
                repl.on_hit(self.state_mut(chunk), ways, way);
                true
            }
            None => false,
        }
    }

    /// Returns the payload mutably and promotes the block (hit semantics).
    pub fn access_mut(&mut self, block: BlockAddr) -> Option<&mut L> {
        let (chunk, way) = self.locate(block)?;
        let (repl, ways) = (self.repl, self.ways);
        repl.on_hit(self.state_mut(chunk), ways, way);
        self.lines[chunk.off + way].as_mut()
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
        let set = self.set_index(block);
        let mut chunk = self.materialize(set);
        assert!(
            self.way_in(chunk, block).is_none(),
            "block {block} already present; update it instead of re-inserting"
        );
        let (way, evicted) = match self.free_way(chunk) {
            Some(w) => {
                if w == chunk.cap {
                    chunk = self.grow(set, chunk);
                }
                (w, None)
            }
            None => {
                let w = self.pick_victim(chunk);
                let slot = chunk.off + w;
                let old = self.lines[slot]
                    .take()
                    .map(|l| (BlockAddr::new(self.tags[slot]), l));
                (w, old)
            }
        };
        let slot = chunk.off + way;
        self.tags[slot] = block.get();
        self.lines[slot] = Some(payload);
        let (repl, ways) = (self.repl, self.ways);
        repl.on_fill(self.state_mut(chunk), ways, way);
        evicted
    }

    /// The block that would be evicted if `block` were inserted now, or
    /// `None` if the target set still has a free way (or already holds
    /// `block`). May advance policy state (SRRIP aging, RNG draws), which
    /// mirrors hardware where the victim choice is made once per miss.
    pub fn victim_for(&mut self, block: BlockAddr) -> Option<BlockAddr> {
        let chunk = self.chunk_of(block)?;
        if self.way_in(chunk, block).is_some() || self.free_way(chunk).is_some() {
            return None;
        }
        let way = self.pick_victim(chunk);
        self.occupant(chunk, way).map(|(_, b, _)| b)
    }

    /// Removes `block`, returning its payload.
    pub fn remove(&mut self, block: BlockAddr) -> Option<L> {
        let (chunk, way) = self.locate(block)?;
        self.lines[chunk.off + way].take()
    }

    /// Iterates the occupants of the set `block` maps to, as
    /// `(way, block, payload)` triples in way order. Used by callers that
    /// pick victims by payload content (the stash directory's
    /// private-first policy).
    pub fn set_occupants(&self, block: BlockAddr) -> impl Iterator<Item = (usize, BlockAddr, &L)> {
        self.chunk_of(block)
            .into_iter()
            .flat_map(move |chunk| (0..chunk.cap).filter_map(move |w| self.occupant(chunk, w)))
    }

    /// Like [`set_occupants`], but in the order the policy would evict
    /// them: least recently used first under [`ReplKind::Lru`], oldest
    /// fill first under [`ReplKind::Fifo`]. The other policies keep no
    /// total order and yield way order.
    ///
    /// [`set_occupants`]: SetAssoc::set_occupants
    pub fn eviction_order(&self, block: BlockAddr) -> impl Iterator<Item = (usize, BlockAddr, &L)> {
        let ranked = matches!(self.repl, ReplKind::Lru | ReplKind::Fifo);
        self.chunk_of(block).into_iter().flat_map(move |chunk| {
            let start = chunk.state * self.state_len;
            let state = &self.repl_state[start..start + self.state_len];
            (0..self.ways)
                .map(move |i| if ranked { state[i] as usize } else { i })
                .filter_map(move |w| self.occupant(chunk, w))
        })
    }

    /// `true` when the set `block` maps to has no free way and does not
    /// already contain `block` (i.e. inserting `block` would evict).
    pub fn would_evict(&self, block: BlockAddr) -> bool {
        self.chunk_of(block).is_some_and(|chunk| {
            self.way_in(chunk, block).is_none() && self.free_way(chunk).is_none()
        })
    }

    /// Iterates every resident `(block, payload)` pair in set order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, &L)> {
        self.rows
            .iter()
            .filter_map(|&word| Chunk::unpack(word))
            .flat_map(move |chunk| (0..chunk.cap).filter_map(move |w| self.occupant(chunk, w)))
            .map(|(_, b, l)| (b, l))
    }

    /// Removes every block. Sets keep their chunks and replacement state.
    pub fn clear(&mut self) {
        self.lines.iter_mut().for_each(|l| *l = None);
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
        assert!(a.rows.is_empty() && a.lines.is_empty() && a.repl_state.is_empty());
        assert_eq!(a.get(BlockAddr::new(7)), None);
        assert!(!a.touch(BlockAddr::new(7)));
        assert_eq!(a.victim_for(BlockAddr::new(7)), None);
        assert!(!a.would_evict(BlockAddr::new(7)));
        a.insert(BlockAddr::new(7), 7);
        a.insert(BlockAddr::new(3), 3);
        assert_eq!(a.lines.len(), 2, "two one-block sets hold two slots");
        // Set order, not materialization order.
        let blocks: Vec<u64> = a.iter().map(|(b, _)| b.get()).collect();
        assert_eq!(blocks, vec![3, 7]);
    }

    /// Slots the materialized sets own, free chunks excluded.
    fn live_slots<L>(a: &SetAssoc<L>) -> usize {
        a.rows
            .iter()
            .filter_map(|&w| Chunk::unpack(w))
            .map(|c| c.cap)
            .sum()
    }

    #[test]
    fn a_set_grows_by_doubling_up_to_its_ways() {
        let mut a = array(2, 12);
        let mut caps = Vec::new();
        for i in 0..12u64 {
            a.insert(BlockAddr::new(2 * i), i as u32);
            caps.push(a.chunk_of(BlockAddr::new(0)).map(|c| c.cap));
        }
        let want = [1, 2, 4, 4, 8, 8, 8, 8, 12, 12, 12, 12];
        assert_eq!(caps, want.map(Some));
        // Ways fill in order, so way order is fill order.
        let set0: Vec<u64> = a
            .set_occupants(BlockAddr::new(0))
            .map(|(_, b, _)| b.get())
            .collect();
        assert_eq!(set0, (0..12).map(|i| 2 * i).collect::<Vec<_>>());
        assert!(a.would_evict(BlockAddr::new(100)));
    }

    #[test]
    fn a_removed_way_below_cap_is_refilled_before_growth() {
        let mut a = array(1, 8);
        for i in 0..4 {
            a.insert(BlockAddr::new(i), i as u32);
        }
        a.remove(BlockAddr::new(1));
        a.insert(BlockAddr::new(9), 9);
        let c = a.chunk_of(BlockAddr::new(0)).map(|c| c.cap);
        assert_eq!(c, Some(4), "the hole at way 1 took the fill");
        let ways: Vec<(usize, u64)> = a
            .set_occupants(BlockAddr::new(0))
            .map(|(w, b, _)| (w, b.get()))
            .collect();
        assert_eq!(ways, vec![(0, 0), (1, 9), (2, 2), (3, 3)]);
    }

    #[test]
    fn released_chunks_are_reused_and_split() {
        let mut a = array(128, 4);
        let off = |a: &SetAssoc<u32>, b: u64| a.chunk_of(BlockAddr::new(b)).map(|c| c.off);
        for s in 0..64 {
            a.insert(BlockAddr::new(s), 0);
        }
        // Set 0 grows to 2 ways at the end of the arena and releases
        // slot 0, which the next set to materialize takes.
        a.insert(BlockAddr::new(128), 0);
        assert_eq!((off(&a, 0), a.tags.len()), (Some(64), 66));
        a.insert(BlockAddr::new(64), 0);
        assert_eq!((off(&a, 64), a.tags.len()), (Some(0), 66));
        // Set 0 grows to 4 ways and releases its 2-slot chunk, which two
        // one-way sets then share: the first splits it.
        a.insert(BlockAddr::new(256), 0);
        assert_eq!((off(&a, 0), a.tags.len()), (Some(66), 70));
        a.insert(BlockAddr::new(65), 0);
        a.insert(BlockAddr::new(66), 0);
        assert_eq!((off(&a, 65), off(&a, 66)), (Some(64), Some(65)));
        assert_eq!((a.tags.len(), a.free_slots), (70, 0));
        for b in [0, 128, 256, 64, 65, 66] {
            assert!(a.contains(BlockAddr::new(b)));
        }
    }

    #[test]
    fn a_lone_growing_set_compacts_at_once() {
        let mut a = array(64, 4);
        // Each growth releases more than 1/16 of the live slots.
        for i in 0..4u64 {
            a.insert(BlockAddr::new(64 * i), 0);
            assert_eq!((a.tags.len(), a.free_slots), (live_slots(&a), 0));
        }
    }

    /// Fills `sets` x `ways` LRU arrays to full, and asserts after every
    /// insert that the arena holds at most 17/16 of the slots sets own.
    fn fill_stays_within_bound(sets: usize, ways: usize, order: &[u64]) {
        let mut a: SetAssoc<u64> = SetAssoc::new(sets, ways, ReplKind::Lru, 3);
        for &b in order {
            assert!(a.insert(BlockAddr::new(b), b).is_none(), "fill evicted");
            let (allocated, live) = (a.tags.len(), live_slots(&a));
            assert!(
                allocated * 16 <= live * 17,
                "{sets}x{ways}: {allocated} slots allocated for {live} live"
            );
        }
        assert_eq!(a.occupancy(), sets * ways);
        assert_eq!(a.tags.len(), sets * ways, "a full array is fixed rows");
        for &b in order {
            assert_eq!(a.get(BlockAddr::new(b)), Some(&b));
        }
    }

    #[test]
    fn filling_to_full_keeps_the_arena_within_seventeen_sixteenths() {
        for (sets, ways) in [(512, 8), (1024, 16)] {
            let blocks = (sets * ways) as u64;
            // Set order: every way of set 0, then of set 1, ...
            let by_set: Vec<u64> = (0..sets as u64)
                .flat_map(|s| (0..ways as u64).map(move |w| s + w * sets as u64))
                .collect();
            fill_stays_within_bound(sets, ways, &by_set);
            // Random order: a seeded shuffle of the same blocks.
            let mut shuffled: Vec<u64> = (0..blocks).collect();
            let mut rng = DetRng::seed_from(sets as u64);
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, rng.index(i + 1));
            }
            fill_stays_within_bound(sets, ways, &shuffled);
        }
    }

    #[test]
    #[should_panic(expected = "at most 256")]
    fn more_than_256_ways_panics() {
        let _: SetAssoc<u32> = SetAssoc::new(1, 257, ReplKind::Lru, 0);
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
