//! Replacement policies for set-associative structures.
//!
//! [`SetAssoc`] keeps every set's replacement state in one flat `u8`
//! array, [`ReplKind::state_len`] words per set, and dispatches on the
//! [`ReplKind`] it was built with; no set owns a heap object. Policies
//! see three events: a fill into a way, a hit on a way, and a victim
//! request. A victim is only requested for a *full* set (callers fill
//! free ways first), so every way is a candidate. A word holds a way
//! index, so a set has at most 256 ways ([`MAX_WAYS`]).
//!
//! [`SetAssoc`]: crate::SetAssoc

// lint: allow-file(indexing) — every index is a way number below `ways`,
// and every state slice is `state_len(ways)` words, sized by `SetAssoc`
// when the set is materialized.

use serde::{Deserialize, Serialize};
use stashdir_common::DetRng;
use std::fmt;

/// Selects the replacement policy a structure uses.
///
/// # Examples
///
/// ```
/// use stashdir_common::BlockAddr;
/// use stashdir_mem::{ReplKind, SetAssoc};
///
/// let mut a: SetAssoc<()> = SetAssoc::new(1, 2, ReplKind::Fifo, 0);
/// a.insert(BlockAddr::new(0), ());
/// a.insert(BlockAddr::new(1), ());
/// a.touch(BlockAddr::new(0)); // FIFO ignores hits
/// assert_eq!(a.victim_for(BlockAddr::new(2)), Some(BlockAddr::new(0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ReplKind {
    /// Least-recently-used, exact stack order.
    #[default]
    Lru,
    /// First-in-first-out (fill order, hits do not promote).
    Fifo,
    /// Uniform random among the ways.
    Random,
    /// Not-recently-used: one reference bit per way, cleared in bulk.
    Nru,
    /// Static re-reference interval prediction with 2-bit RRPV counters.
    Srrip,
    /// Tree pseudo-LRU (binary decision tree).
    TreePlru,
}

const RRPV_MAX: u8 = 3; // 2-bit counters
const RRPV_INSERT: u8 = 2; // "long" re-reference prediction on insert

/// Most ways one set may have: LRU and FIFO state stores way indices in
/// `u8` words.
pub const MAX_WAYS: usize = 256;

impl ReplKind {
    /// Words of state one set with `ways` ways needs:
    ///
    /// * LRU / FIFO — the way indices, least recent (or oldest) first;
    /// * NRU — one reference bit per way;
    /// * SRRIP — one RRPV counter per way;
    /// * tree PLRU — the bits of a complete binary tree over the next
    ///   power of two of `ways`;
    /// * random — nothing (the draw comes from the array's RNG).
    pub(crate) fn state_len(self, ways: usize) -> usize {
        match self {
            ReplKind::Lru | ReplKind::Fifo | ReplKind::Nru | ReplKind::Srrip => ways,
            ReplKind::Random => 0,
            ReplKind::TreePlru => ways.next_power_of_two().max(2) - 1,
        }
    }

    /// Writes the state of a freshly materialized set into `state`.
    pub(crate) fn init(self, state: &mut [u8]) {
        match self {
            ReplKind::Lru | ReplKind::Fifo => {
                for (w, s) in (0..=u8::MAX).zip(state.iter_mut()) {
                    *s = w;
                }
            }
            ReplKind::Srrip => state.fill(RRPV_MAX),
            ReplKind::Random | ReplKind::Nru | ReplKind::TreePlru => state.fill(0),
        }
    }

    /// Records a fill into `way` of a set with `ways` ways.
    pub(crate) fn on_fill(self, state: &mut [u8], ways: usize, way: usize) {
        match self {
            ReplKind::Lru | ReplKind::Fifo => move_to_back(state, way),
            ReplKind::Nru => state[way] = 1,
            ReplKind::Srrip => state[way] = RRPV_INSERT,
            ReplKind::TreePlru => plru_touch(state, ways, way),
            ReplKind::Random => {}
        }
    }

    /// Records a hit on `way` of a set with `ways` ways.
    pub(crate) fn on_hit(self, state: &mut [u8], ways: usize, way: usize) {
        match self {
            ReplKind::Lru => move_to_back(state, way),
            ReplKind::Nru => state[way] = 1,
            ReplKind::Srrip => state[way] = 0,
            ReplKind::TreePlru => plru_touch(state, ways, way),
            ReplKind::Fifo | ReplKind::Random => {}
        }
    }

    /// Chooses the way to evict from a full set with `ways` ways. May
    /// advance the state (NRU reset, SRRIP aging) or draw from `rng`
    /// (random).
    pub(crate) fn victim(self, state: &mut [u8], ways: usize, rng: &mut DetRng) -> usize {
        match self {
            ReplKind::Lru | ReplKind::Fifo => state[0] as usize,
            ReplKind::Random => rng.index(ways),
            ReplKind::Nru => state.iter().position(|&r| r == 0).unwrap_or_else(|| {
                // Everyone referenced: clear and take the first way.
                state.fill(0);
                0
            }),
            ReplKind::Srrip => loop {
                if let Some(w) = state.iter().position(|&r| r == RRPV_MAX) {
                    return w;
                }
                for r in state.iter_mut() {
                    *r = (*r + 1).min(RRPV_MAX);
                }
            },
            ReplKind::TreePlru => {
                // A padding leaf (non-power-of-two ways) falls back to the
                // first way.
                let chosen = plru_follow(state, ways);
                if chosen < ways {
                    chosen
                } else {
                    0
                }
            }
        }
    }
}

impl fmt::Display for ReplKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ReplKind::Lru => "lru",
            ReplKind::Fifo => "fifo",
            ReplKind::Random => "random",
            ReplKind::Nru => "nru",
            ReplKind::Srrip => "srrip",
            ReplKind::TreePlru => "tree-plru",
        };
        f.write_str(name)
    }
}

/// Moves `way` to the most-recent end of a recency (or fill-order) stack.
fn move_to_back(stack: &mut [u8], way: usize) {
    if let Some(pos) = stack.iter().position(|&w| w as usize == way) {
        stack[pos..].rotate_left(1);
    } else {
        debug_assert!(false, "way {way} tracked by the recency stack");
    }
}

/// Flips the tree bits on `way`'s path so they point away from it
/// (`0` = the LRU side is left).
fn plru_touch(tree: &mut [u8], ways: usize, way: usize) {
    let mut node = 0;
    let mut lo = 0;
    let mut size = ways.next_power_of_two();
    while size > 1 {
        let half = size / 2;
        let go_right = way >= lo + half;
        // Point the bit at the *other* half (the LRU side).
        tree[node] = u8::from(!go_right);
        node = 2 * node + if go_right { 2 } else { 1 };
        if go_right {
            lo += half;
        }
        size = half;
    }
}

/// The leaf the tree bits point at.
fn plru_follow(tree: &[u8], ways: usize) -> usize {
    let mut node = 0;
    let mut lo = 0;
    let mut size = ways.next_power_of_two();
    while size > 1 {
        let half = size / 2;
        let go_right = tree[node] != 0;
        node = 2 * node + if go_right { 2 } else { 1 };
        if go_right {
            lo += half;
        }
        size = half;
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One set's state plus the policy driving it.
    struct Set {
        kind: ReplKind,
        ways: usize,
        state: Vec<u8>,
        rng: DetRng,
    }

    impl Set {
        fn new(kind: ReplKind, ways: usize) -> Self {
            let mut state = vec![0; kind.state_len(ways)];
            kind.init(&mut state);
            Set {
                kind,
                ways,
                state,
                rng: DetRng::seed_from(99),
            }
        }

        fn fill(&mut self, way: usize) {
            self.kind.on_fill(&mut self.state, self.ways, way);
        }

        fn hit(&mut self, way: usize) {
            self.kind.on_hit(&mut self.state, self.ways, way);
        }

        fn victim(&mut self) -> usize {
            self.kind.victim(&mut self.state, self.ways, &mut self.rng)
        }
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut p = Set::new(ReplKind::Lru, 4);
        for w in 0..4 {
            p.fill(w);
        }
        p.hit(0); // order now 1,2,3,0
        assert_eq!(p.victim(), 1);
        p.hit(1);
        assert_eq!(p.victim(), 2);
    }

    #[test]
    fn lru_tracks_the_widest_set() {
        let mut p = Set::new(ReplKind::Lru, MAX_WAYS);
        for w in 0..MAX_WAYS {
            p.fill(w);
        }
        p.hit(0);
        assert_eq!(p.victim(), 1);
        p.hit(1);
        p.hit(MAX_WAYS - 1);
        assert_eq!(p.victim(), 2);
        assert_eq!(p.state.last(), Some(&u8::MAX), "way 255 fits a u8 word");
    }

    #[test]
    fn fifo_ignores_hits() {
        let mut p = Set::new(ReplKind::Fifo, 3);
        for w in 0..3 {
            p.fill(w);
        }
        p.hit(0);
        p.hit(0);
        assert_eq!(p.victim(), 0, "hits do not refresh");
        p.fill(0); // refill moves 0 to the back
        assert_eq!(p.victim(), 1);
    }

    #[test]
    fn random_picks_in_range() {
        let mut p = Set::new(ReplKind::Random, 8);
        assert_eq!(ReplKind::Random.state_len(8), 0);
        for _ in 0..100 {
            assert!(p.victim() < 8);
        }
    }

    #[test]
    fn nru_prefers_unreferenced_then_resets() {
        let mut p = Set::new(ReplKind::Nru, 4);
        p.fill(0);
        p.fill(1);
        p.fill(2);
        // way 3 never filled/referenced in NRU terms.
        assert_eq!(p.victim(), 3);
        p.hit(3);
        // Now all referenced: reset happens and the first way wins.
        assert_eq!(p.victim(), 0);
        assert!(p.state.iter().all(|&r| r == 0), "bits cleared in bulk");
    }

    #[test]
    fn srrip_hits_protect_lines() {
        let mut p = Set::new(ReplKind::Srrip, 2);
        p.fill(0);
        p.fill(1);
        p.hit(0); // rrpv(0)=0, rrpv(1)=2
        assert_eq!(p.victim(), 1);
    }

    #[test]
    fn srrip_ages_until_a_victim_exists() {
        let mut p = Set::new(ReplKind::Srrip, 2);
        p.fill(0);
        p.fill(1);
        p.hit(0);
        p.hit(1); // both rrpv 0; aging loop must terminate
        assert!(p.victim() < 2);
    }

    #[test]
    fn tree_plru_points_away_from_recent() {
        let mut p = Set::new(ReplKind::TreePlru, 4);
        for w in 0..4 {
            p.fill(w);
        }
        // Most recent fill was way 3 (right subtree); victim must be on the
        // left subtree.
        let v = p.victim();
        assert!(v < 2, "victim {v} should be in the left half");
    }

    #[test]
    fn tree_plru_handles_non_power_of_two() {
        let mut p = Set::new(ReplKind::TreePlru, 3);
        assert_eq!(ReplKind::TreePlru.state_len(3), 3);
        for w in 0..3 {
            p.fill(w);
        }
        for _ in 0..10 {
            let v = p.victim();
            assert!(v < 3);
            p.fill(v);
        }
    }

    #[test]
    fn every_policy_round_trips_under_churn() {
        for kind in [
            ReplKind::Lru,
            ReplKind::Fifo,
            ReplKind::Random,
            ReplKind::Nru,
            ReplKind::Srrip,
            ReplKind::TreePlru,
        ] {
            let mut p = Set::new(kind, 8);
            for i in 0..1000 {
                match i % 3 {
                    0 => p.fill(i % 8),
                    1 => p.hit((i * 5) % 8),
                    _ => {
                        let v = p.victim();
                        assert!(v < 8, "{kind}: victim out of range");
                        p.fill(v);
                    }
                }
            }
        }
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(ReplKind::Lru.to_string(), "lru");
        assert_eq!(ReplKind::TreePlru.to_string(), "tree-plru");
    }
}
