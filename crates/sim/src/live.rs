//! Per-message bookkeeping that holds only live state.
//!
//! The machine clamps every message to its channel's last arrival (FIFO
//! per channel) and serializes every transaction behind its block's busy
//! window. Both tables are keyed by what traffic touched, so left alone
//! they grow with the machine size (a `nodes × nodes` channel matrix) or
//! with the run's history (every block ever held). Each table here learns
//! the cycle batch the run loop is sweeping through [`ChanClamp::advance`]
//! / [`BusyWindows::advance`], and drops the entries that can no longer
//! change any result:
//!
//! * every send made while handling a cycle-`now` event departs at
//!   `t ≥ now` and arrives no earlier than `t`, so a channel whose last
//!   arrival is before `now` can never clamp again;
//! * every serialization start is `now.max(..).max(busy)` and every hold
//!   lasts until a time at or after `now`, so a window that ended at or
//!   before `now` can never delay or extend anything again.
//!
//! A pruned entry reads as the empty entry (`Cycle::ZERO`), exactly as
//! an untouched one always did. Pruning walks the whole table, so it runs
//! only once the table has doubled since its last prune (and never below
//! a constant floor): its cost is amortized O(1) per insertion.

use stashdir_common::{BlockAddr, Cycle, FxHashMap, NodeId};
use std::hash::Hash;

/// Tables at or below this many entries are never pruned.
const PRUNE_FLOOR: usize = 1024;

/// A map from keys to cycles that drops dead entries at batch boundaries.
#[derive(Debug, Clone)]
struct PrunedMap<K> {
    map: FxHashMap<K, Cycle>,
    /// The batch cycle of the latest [`PrunedMap::advance`].
    now: Cycle,
    /// Size at which the next boundary prunes.
    prune_at: usize,
    floor: usize,
}

impl<K: Eq + Hash> PrunedMap<K> {
    fn with_floor(floor: usize) -> Self {
        PrunedMap {
            map: FxHashMap::default(),
            now: Cycle::ZERO,
            prune_at: floor,
            floor,
        }
    }

    /// Moves to the batch at `now`, dropping every entry `live` rejects
    /// once the table has reached its prune size. Returns whether it
    /// pruned.
    fn advance(&mut self, now: Cycle, live: impl FnMut(&Cycle) -> bool) -> bool {
        debug_assert!(now >= self.now, "time went backwards");
        self.now = now;
        if self.map.len() < self.prune_at {
            return false;
        }
        self.prune(live);
        true
    }

    fn prune(&mut self, mut live: impl FnMut(&Cycle) -> bool) {
        self.map.retain(|_, at| live(at));
        self.prune_at = (2 * self.map.len()).max(self.floor);
        // Give back buckets a burst left behind, so the next walk is
        // proportional to what the table holds now.
        if self.map.capacity() > 4 * self.prune_at {
            self.map.shrink_to(self.prune_at);
        }
    }

    fn get(&self, key: &K) -> Cycle {
        self.map.get(key).copied().unwrap_or(Cycle::ZERO)
    }

    fn slot(&mut self, key: K) -> &mut Cycle {
        self.map.entry(key).or_insert(Cycle::ZERO)
    }
}

/// The per-channel FIFO clamp: each `(src, dst)` channel delivers in the
/// order messages were sent on it (program order, the causal order of the
/// simulation), holding only channels whose last arrival is not yet in
/// the past.
#[derive(Debug, Clone)]
pub(crate) struct ChanClamp {
    last: PrunedMap<u32>,
    nodes: u32,
}

impl ChanClamp {
    /// A clamp over the channels of `nodes` endpoints.
    pub(crate) fn new(nodes: usize) -> Self {
        ChanClamp::with_floor(nodes, PRUNE_FLOOR)
    }

    fn with_floor(nodes: usize, floor: usize) -> Self {
        ChanClamp {
            last: PrunedMap::with_floor(floor),
            nodes: nodes as u32,
        }
    }

    /// Starts the cycle batch at `now`. Returns whether the table was
    /// pruned.
    pub(crate) fn advance(&mut self, now: Cycle) -> bool {
        self.last.advance(now, |&last| last >= now)
    }

    /// Clamps `raw`, the network's arrival for a message sent at `t`
    /// from `src` to `dst`, to one cycle after the channel's previous
    /// arrival, and records the result as the channel's last arrival.
    pub(crate) fn arrive(&mut self, src: NodeId, dst: NodeId, t: Cycle, raw: Cycle) -> Cycle {
        debug_assert!(
            t >= self.last.now,
            "send at {t} before the batch at {}",
            self.last.now
        );
        debug_assert!(raw >= t, "arrival {raw} before its send at {t}");
        let key = src.get() as u32 * self.nodes + dst.get() as u32;
        let slot = self.last.slot(key);
        let arrival = raw.max(*slot + 1);
        *slot = arrival;
        arrival
    }

    /// Channels currently held.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.last.map.len()
    }
}

/// Per-block transaction-serialization windows (all banks; a block is
/// only ever held at its home, so one table cannot collide), holding only
/// windows that have not yet ended.
#[derive(Debug, Clone)]
pub(crate) struct BusyWindows {
    until: PrunedMap<BlockAddr>,
}

impl BusyWindows {
    pub(crate) fn new() -> Self {
        BusyWindows::with_floor(PRUNE_FLOOR)
    }

    fn with_floor(floor: usize) -> Self {
        BusyWindows {
            until: PrunedMap::with_floor(floor),
        }
    }

    /// Starts the cycle batch at `now`. Returns whether the table was
    /// pruned.
    pub(crate) fn advance(&mut self, now: Cycle) -> bool {
        self.until.advance(now, |&until| until > now)
    }

    /// The earliest cycle at or after `ready` at which a transaction on
    /// `block` may start.
    pub(crate) fn start(&self, block: BlockAddr, ready: Cycle) -> Cycle {
        debug_assert!(ready >= self.until.now, "start before the batch");
        ready.max(self.until.get(&block))
    }

    /// Extends `block`'s window to at least `until`.
    pub(crate) fn hold(&mut self, block: BlockAddr, until: Cycle) {
        debug_assert!(until >= self.until.now, "hold ending before the batch");
        let slot = self.until.slot(block);
        *slot = (*slot).max(until);
    }

    /// Windows currently held.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.until.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stashdir_common::DetRng;
    use std::collections::HashMap;

    /// The dense clamp the machine used to keep: a `nodes × nodes`
    /// last-arrival matrix, never pruned.
    struct DenseClamp {
        last: Vec<Cycle>,
        nodes: usize,
    }

    impl DenseClamp {
        fn new(nodes: usize) -> Self {
            DenseClamp {
                last: vec![Cycle::ZERO; nodes * nodes],
                nodes,
            }
        }

        fn arrive(&mut self, src: usize, dst: usize, raw: Cycle) -> Cycle {
            let slot = &mut self.last[src * self.nodes + dst];
            let arrival = raw.max(*slot + 1);
            *slot = arrival;
            arrival
        }

        /// Channels a pruned table must still hold at `now`: touched
        /// (a touched channel's last arrival is at least 1) and not past.
        fn live(&self, now: Cycle) -> usize {
            self.last
                .iter()
                .filter(|&&l| l > Cycle::ZERO && l >= now)
                .count()
        }
    }

    /// The busy-window map the machine used to keep: every block ever
    /// held, never pruned.
    #[derive(Default)]
    struct DenseBusy {
        until: HashMap<u64, Cycle>,
    }

    impl DenseBusy {
        fn start(&self, block: u64, ready: Cycle) -> Cycle {
            ready.max(self.until.get(&block).copied().unwrap_or(Cycle::ZERO))
        }

        fn hold(&mut self, block: u64, until: Cycle) {
            let slot = self.until.entry(block).or_insert(Cycle::ZERO);
            *slot = (*slot).max(until);
        }

        fn live(&self, now: Cycle) -> usize {
            self.until.values().filter(|&&u| u > now).count()
        }
    }

    /// Drives one seeded run of the clamp against the dense matrix: a
    /// non-decreasing batch clock, sends at `t ≥ now` whose raw arrivals
    /// bind (local sends arriving at or one cycle after their send,
    /// same-channel bursts at one send time, delayed originals followed
    /// by prompt duplicates), boundary prunes by the doubling rule and
    /// forced prunes at random points.
    fn clamp_matches_dense(seed: u64, nodes: usize, floor: usize) {
        let mut rng = DetRng::seed_from(seed);
        let mut clamp = ChanClamp::with_floor(nodes, floor);
        let mut dense = DenseClamp::new(nodes);
        let mut now = Cycle::ZERO;
        let mut live_at_prune = 0usize;
        for _ in 0..3000 {
            now += rng.below(4);
            if clamp.advance(now) {
                assert_eq!(clamp.len(), dense.live(now), "prune keeps live channels");
                live_at_prune = clamp.len();
            }
            assert!(clamp.len() <= 2 * live_at_prune + floor);
            if rng.below(16) == 0 {
                clamp.last.prune(|&last| last >= now);
                assert_eq!(clamp.len(), dense.live(now), "prune keeps live channels");
                live_at_prune = clamp.len();
            }
            for _ in 0..rng.below(6) {
                let src = rng.below(nodes as u64) as usize;
                let mut dst = rng.below(nodes as u64) as usize;
                if rng.below(4) == 0 {
                    dst = src;
                }
                let t = now + rng.below(8);
                let burst = if rng.below(4) == 0 { 4 } else { 1 };
                for _ in 0..burst {
                    let base = if src == dst {
                        rng.below(2)
                    } else {
                        1 + rng.below(12)
                    };
                    let delay = if rng.below(8) == 0 { 40 } else { 0 };
                    let raws = [t + base + delay, t + base];
                    let sends = if delay > 0 { 2 } else { 1 };
                    for &raw in &raws[..sends] {
                        let (s, d) = (NodeId::new(src as u16), NodeId::new(dst as u16));
                        let got = clamp.arrive(s, d, t, raw);
                        assert_eq!(got, dense.arrive(src, dst, raw), "seed {seed}");
                    }
                }
            }
        }
    }

    #[test]
    fn clamp_matches_the_dense_matrix() {
        for seed in 0..24 {
            for (nodes, floor) in [(1, 1), (2, 1), (4, 2), (8, 8), (16, 16), (16, 64)] {
                clamp_matches_dense(seed, nodes, floor);
            }
        }
    }

    /// Drives one seeded run of the busy windows against the unpruned
    /// map: transactions start at `now.max(free).max(busy)` and hold
    /// their block to a later cycle, some far out (stuck windows), with
    /// boundary and forced prunes as for the clamp.
    fn busy_matches_dense(seed: u64, blocks: u64, floor: usize) {
        let mut rng = DetRng::seed_from(seed);
        let mut busy = BusyWindows::with_floor(floor);
        let mut dense = DenseBusy::default();
        let mut now = Cycle::ZERO;
        let mut live_at_prune = 0usize;
        for _ in 0..3000 {
            now += rng.below(5);
            if busy.advance(now) {
                assert_eq!(busy.len(), dense.live(now), "prune keeps open windows");
                live_at_prune = busy.len();
            }
            assert!(busy.len() <= 2 * live_at_prune + floor);
            if rng.below(16) == 0 {
                busy.until.prune(|&until| until > now);
                assert_eq!(busy.len(), dense.live(now), "prune keeps open windows");
                live_at_prune = busy.len();
            }
            for _ in 0..rng.below(6) {
                let block = rng.below(blocks);
                let ready = now + rng.below(6);
                let start = busy.start(BlockAddr::new(block), ready);
                assert_eq!(start, dense.start(block, ready), "seed {seed}");
                let hold = if rng.below(32) == 0 {
                    500
                } else {
                    rng.below(30)
                };
                let until = if rng.below(8) == 0 { now } else { start + hold };
                busy.hold(BlockAddr::new(block), until);
                dense.hold(block, until);
            }
        }
    }

    #[test]
    fn busy_windows_match_the_unpruned_map() {
        for seed in 0..24 {
            for (blocks, floor) in [(1, 1), (4, 2), (64, 8), (512, 16), (4096, 64)] {
                busy_matches_dense(seed, blocks, floor);
            }
        }
    }

    #[test]
    fn a_table_below_its_floor_is_left_alone() {
        let mut busy = BusyWindows::with_floor(4);
        for b in 0..3 {
            busy.hold(BlockAddr::new(b), Cycle::new(1));
        }
        assert!(!busy.advance(Cycle::new(10)));
        assert_eq!(busy.len(), 3);
        busy.hold(BlockAddr::new(3), Cycle::new(10));
        assert!(busy.advance(Cycle::new(10)), "four entries reach the floor");
        assert_eq!(busy.len(), 0);
    }

    #[test]
    fn a_pruned_table_waits_to_double() {
        let mut clamp = ChanClamp::with_floor(64, 2);
        for dst in 0..10u16 {
            clamp.arrive(
                NodeId::new(0),
                NodeId::new(dst),
                Cycle::ZERO,
                Cycle::new(100),
            );
        }
        assert!(clamp.advance(Cycle::new(50)));
        assert_eq!(clamp.len(), 10, "all ten arrive after the batch");
        for dst in 10..19u16 {
            clamp.arrive(
                NodeId::new(0),
                NodeId::new(dst),
                Cycle::new(50),
                Cycle::new(60),
            );
        }
        assert!(!clamp.advance(Cycle::new(200)), "19 entries, below 2 × 10");
        clamp.arrive(
            NodeId::new(1),
            NodeId::new(0),
            Cycle::new(200),
            Cycle::new(201),
        );
        assert!(clamp.advance(Cycle::new(201)));
        assert_eq!(clamp.len(), 1);
    }
}
