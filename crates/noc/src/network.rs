//! The network timing/traffic model.

use crate::topology::Mesh;
use serde::{Deserialize, Serialize};
use stashdir_common::{Counter, Cycle, DetRng, Histogram, NodeId, StatSink};

/// Configuration for [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NocConfig {
    /// Per-hop pipeline latency (router + link traversal), cycles.
    pub hop_latency: u64,
    /// Latency of a message whose source and destination share a tile.
    pub local_latency: u64,
    /// Model link contention (wormhole occupancy). When `false` the
    /// network is contention-free: latency depends only on distance and
    /// packet length.
    pub model_contention: bool,
}

impl Default for NocConfig {
    /// 3-cycle hops, 1-cycle tile-local delivery, contention on.
    fn default() -> Self {
        NocConfig {
            hop_latency: 3,
            local_latency: 1,
            model_contention: true,
        }
    }
}

/// Fault-injection hook configuration for the network, installed by the
/// simulator's chaos layer via [`Network::set_link_faults`]. Plain
/// [`Network::send`] is untouched; only [`Network::send_faulty`]
/// consults the hook, so a network without faults pays nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkFaultConfig {
    /// Seed for the hook's own deterministic RNG.
    pub seed: u64,
    /// Probability (per mille) that a faulty send is delayed.
    pub delay_per_mille: u32,
    /// Extra delivery latency applied to a delayed message.
    pub delay_cycles: u64,
    /// Probability (per mille) that a faulty send is duplicated.
    pub dup_per_mille: u32,
    /// Cap on total injected faults (delays + duplicates); `0` =
    /// unlimited.
    pub max_faults: u64,
}

/// Installed fault hook state: config, its own RNG, and injection
/// counters the simulator folds into its fault summary.
#[derive(Debug, Clone)]
struct LinkFaults {
    cfg: LinkFaultConfig,
    rng: DetRng,
    delays: u64,
    duplicates: u64,
}

impl LinkFaults {
    fn budget_left(&self) -> bool {
        self.cfg.max_faults == 0 || self.delays + self.duplicates < self.cfg.max_faults
    }

    fn roll(rng: &mut DetRng, per_mille: u32) -> bool {
        per_mille >= 1000 || rng.below(1000) < per_mille as u64
    }
}

/// Per-class message and flit counters: one row per class name, in
/// first-use order. A send finds its row through `aliases`, which maps
/// each distinct `&'static str` the network has been handed to its row
/// by address, so the hot path compares a few pointers and never the
/// text; only a literal seen for the first time is matched by name.
#[derive(Debug, Clone, Default)]
struct ClassTable {
    names: Vec<&'static str>,
    messages: Vec<Counter>,
    flits: Vec<Counter>,
    aliases: Vec<(&'static str, usize)>,
}

impl ClassTable {
    /// Counts one `flits`-long message under `class`.
    fn count(&mut self, class: &'static str, flits: u32) {
        let row = match self.aliases.iter().find(|(a, _)| std::ptr::eq(*a, class)) {
            Some(&(_, row)) => row,
            None => self.intern(class),
        };
        self.messages[row].incr();
        self.flits[row].add(flits as u64);
    }

    /// Finds or adds the row named `class` and records its address.
    fn intern(&mut self, class: &'static str) -> usize {
        let row = self.row(class).unwrap_or_else(|| {
            self.names.push(class);
            self.messages.push(Counter::new());
            self.flits.push(Counter::new());
            self.names.len() - 1
        });
        self.aliases.push((class, row));
        row
    }

    fn row(&self, class: &str) -> Option<usize> {
        self.names.iter().position(|n| *n == class)
    }

    /// Row indices in class-name order.
    fn by_name(&self) -> Vec<usize> {
        let mut rows: Vec<usize> = (0..self.names.len()).collect();
        rows.sort_unstable_by_key(|&r| self.names[r]);
        rows
    }
}

/// The outcome of a fault-aware send: the (possibly delayed) arrival of
/// the original packet, plus the arrival of an injected duplicate when
/// the hook fired one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendOutcome {
    /// Arrival time of the original packet.
    pub arrival: Cycle,
    /// Arrival time of the injected duplicate, when one was sent.
    pub duplicate: Option<Cycle>,
}

/// A wormhole-routed mesh NoC: computes delivery times and accounts
/// traffic per message class.
///
/// # Examples
///
/// ```
/// use stashdir_common::{Cycle, NodeId};
/// use stashdir_noc::{Mesh, Network, NocConfig};
///
/// let mut net = Network::new(Mesh::new(2, 2), NocConfig::default());
/// // A 5-flit data packet one hop away: 3 cycles head latency + 4 cycles
/// // of body serialization.
/// let t = net.send(NodeId::new(0), NodeId::new(1), 5, "data", Cycle::ZERO);
/// assert_eq!(t.get(), 7);
/// assert_eq!(net.flit_hops(), 5);
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    mesh: Mesh,
    config: NocConfig,
    link_free: Vec<Cycle>,
    classes: ClassTable,
    flit_hops: Counter,
    latency_hist: Histogram,
    faults: Option<LinkFaults>,
}

impl Network {
    /// Creates a network over `mesh`.
    pub fn new(mesh: Mesh, config: NocConfig) -> Self {
        Network {
            link_free: vec![Cycle::ZERO; mesh.directed_links()],
            mesh,
            config,
            classes: ClassTable::default(),
            flit_hops: Counter::new(),
            latency_hist: Histogram::new(),
            faults: None,
        }
    }

    /// Installs the fault-injection hook consulted by
    /// [`Network::send_faulty`].
    pub fn set_link_faults(&mut self, cfg: LinkFaultConfig) {
        self.faults = Some(LinkFaults {
            rng: DetRng::seed_from(cfg.seed ^ 0x110C_FA17),
            cfg,
            delays: 0,
            duplicates: 0,
        });
    }

    /// Injected (delays, duplicates) so far; `(0, 0)` without a hook.
    pub fn fault_counts(&self) -> (u64, u64) {
        self.faults
            .as_ref()
            .map_or((0, 0), |f| (f.delays, f.duplicates))
    }

    /// The underlying mesh.
    pub fn mesh(&self) -> Mesh {
        self.mesh
    }

    /// The configuration the network was built with.
    pub fn config(&self) -> NocConfig {
        self.config
    }

    /// Sends a `flits`-long packet from `src` to `dst` at time `now`,
    /// returning its arrival time. `class` labels the packet for traffic
    /// accounting (`"req"`, `"data"`, `"inv"`, `"discovery"`, …).
    ///
    /// # Panics
    ///
    /// Panics if `flits` is zero or either endpoint is outside the mesh.
    pub fn send(
        &mut self,
        src: NodeId,
        dst: NodeId,
        flits: u32,
        class: &'static str,
        now: Cycle,
    ) -> Cycle {
        assert!(flits > 0, "a packet has at least one flit");
        self.classes.count(class, flits);

        if src == dst {
            let arrival = now + self.config.local_latency;
            self.latency_hist.record(arrival - now);
            return arrival;
        }

        // Walk the XY route as dense link indices; no route is built.
        let links = self.mesh.xy_link_indices(src, dst);
        self.flit_hops.add(flits as u64 * links.len() as u64);

        let mut head = now;
        if self.config.model_contention {
            for idx in links {
                let depart = head.max(self.link_free[idx]);
                // The packet occupies the link for its full length.
                self.link_free[idx] = depart + flits as u64;
                head = depart + self.config.hop_latency;
            }
        } else {
            head += links.len() as u64 * self.config.hop_latency;
        }
        // Tail arrives (flits - 1) cycles after the head.
        let arrival = head + (flits as u64 - 1);
        self.latency_hist.record(arrival - now);
        arrival
    }

    /// Like [`Network::send`], but consults the installed
    /// [`LinkFaultConfig`] hook: the arrival may be delayed, and the
    /// packet may be duplicated (the duplicate is a real second send, so
    /// it shows up in traffic accounting). Without a hook this is
    /// exactly [`Network::send`].
    ///
    /// # Panics
    ///
    /// Panics if `flits` is zero or either endpoint is outside the mesh.
    pub fn send_faulty(
        &mut self,
        src: NodeId,
        dst: NodeId,
        flits: u32,
        class: &'static str,
        now: Cycle,
    ) -> SendOutcome {
        let mut arrival = self.send(src, dst, flits, class, now);
        let Some(mut hook) = self.faults.take() else {
            return SendOutcome {
                arrival,
                duplicate: None,
            };
        };
        let mut duplicate = None;
        if hook.budget_left() && LinkFaults::roll(&mut hook.rng, hook.cfg.delay_per_mille) {
            arrival += hook.cfg.delay_cycles;
            hook.delays += 1;
        }
        if hook.budget_left() && LinkFaults::roll(&mut hook.rng, hook.cfg.dup_per_mille) {
            duplicate = Some(self.send(src, dst, flits, class, now));
            hook.duplicates += 1;
        }
        self.faults = Some(hook);
        SendOutcome { arrival, duplicate }
    }

    /// Total flit-hops injected so far (the traffic metric of experiment
    /// E7; proportional to link energy).
    pub fn flit_hops(&self) -> u64 {
        self.flit_hops.get()
    }

    /// Messages sent under `class`.
    pub fn messages_of(&self, class: &str) -> u64 {
        self.classes
            .row(class)
            .map_or(0, |r| self.classes.messages[r].get())
    }

    /// Flits sent under `class`.
    pub fn flits_of(&self, class: &str) -> u64 {
        self.classes
            .row(class)
            .map_or(0, |r| self.classes.flits[r].get())
    }

    /// Total messages across classes.
    pub fn total_messages(&self) -> u64 {
        self.classes.messages.iter().map(|c| c.get()).sum()
    }

    /// Observed end-to-end packet latencies.
    pub fn latency_hist(&self) -> &Histogram {
        &self.latency_hist
    }

    /// Exports counters under `prefix.` into `sink`.
    pub fn export(&self, prefix: &str, sink: &mut StatSink) {
        sink.put(format!("{prefix}.flit_hops"), self.flit_hops.get() as f64);
        sink.put(
            format!("{prefix}.total_messages"),
            self.total_messages() as f64,
        );
        if let Some(mean) = self.latency_hist.mean() {
            sink.put(format!("{prefix}.mean_latency"), mean);
        }
        let rows = self.classes.by_name();
        for &r in &rows {
            let (class, count) = (self.classes.names[r], &self.classes.messages[r]);
            sink.put(format!("{prefix}.messages.{class}"), count.get() as f64);
        }
        for &r in &rows {
            let (class, count) = (self.classes.names[r], &self.classes.flits[r]);
            sink.put(format!("{prefix}.flits.{class}"), count.get() as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(contention: bool) -> Network {
        Network::new(
            Mesh::new(4, 4),
            NocConfig {
                hop_latency: 3,
                local_latency: 1,
                model_contention: contention,
            },
        )
    }

    #[test]
    fn single_flit_latency_is_hops_times_hop_latency() {
        let mut n = net(false);
        let t = n.send(NodeId::new(0), NodeId::new(3), 1, "req", Cycle::ZERO);
        assert_eq!(t.get(), 9);
    }

    #[test]
    fn body_flits_add_serialization() {
        let mut n = net(false);
        let t = n.send(NodeId::new(0), NodeId::new(1), 9, "data", Cycle::ZERO);
        assert_eq!(t.get(), 3 + 8);
    }

    #[test]
    fn local_delivery_uses_local_latency() {
        let mut n = net(true);
        let t = n.send(NodeId::new(5), NodeId::new(5), 9, "data", Cycle::new(10));
        assert_eq!(t.get(), 11);
        assert_eq!(n.flit_hops(), 0, "local messages traverse no links");
    }

    #[test]
    fn contention_serializes_packets_on_shared_links() {
        let mut n = net(true);
        let t1 = n.send(NodeId::new(0), NodeId::new(1), 5, "data", Cycle::ZERO);
        let t2 = n.send(NodeId::new(0), NodeId::new(1), 5, "data", Cycle::ZERO);
        assert_eq!(t1.get(), 3 + 4);
        // Second packet waits 5 cycles for the link.
        assert_eq!(t2.get(), 5 + 3 + 4);
    }

    #[test]
    fn disjoint_paths_do_not_contend() {
        let mut n = net(true);
        let t1 = n.send(NodeId::new(0), NodeId::new(1), 5, "data", Cycle::ZERO);
        let t2 = n.send(NodeId::new(15), NodeId::new(14), 5, "data", Cycle::ZERO);
        assert_eq!(t1, t2);
    }

    #[test]
    fn no_contention_mode_ignores_occupancy() {
        let mut n = net(false);
        let t1 = n.send(NodeId::new(0), NodeId::new(1), 5, "data", Cycle::ZERO);
        let t2 = n.send(NodeId::new(0), NodeId::new(1), 5, "data", Cycle::ZERO);
        assert_eq!(t1, t2);
    }

    #[test]
    fn flit_hops_accumulate() {
        let mut n = net(false);
        n.send(NodeId::new(0), NodeId::new(15), 2, "req", Cycle::ZERO); // 6 hops
        n.send(NodeId::new(0), NodeId::new(1), 3, "req", Cycle::ZERO); // 1 hop
        assert_eq!(n.flit_hops(), 12 + 3);
    }

    #[test]
    fn class_accounting() {
        let mut n = net(false);
        n.send(NodeId::new(0), NodeId::new(1), 1, "req", Cycle::ZERO);
        n.send(NodeId::new(0), NodeId::new(1), 9, "data", Cycle::ZERO);
        n.send(NodeId::new(0), NodeId::new(2), 9, "data", Cycle::ZERO);
        assert_eq!(n.messages_of("req"), 1);
        assert_eq!(n.messages_of("data"), 2);
        assert_eq!(n.flits_of("data"), 18);
        assert_eq!(n.messages_of("absent"), 0);
        assert_eq!(n.total_messages(), 3);
    }

    #[test]
    fn export_contains_class_breakdown() {
        let mut n = net(false);
        n.send(NodeId::new(0), NodeId::new(1), 2, "req", Cycle::ZERO);
        let mut sink = StatSink::new();
        n.export("noc", &mut sink);
        assert_eq!(sink.get("noc.messages.req"), Some(1.0));
        assert_eq!(sink.get("noc.flits.req"), Some(2.0));
        assert_eq!(sink.get("noc.flit_hops"), Some(2.0));
        assert!(sink.get("noc.mean_latency").is_some());
    }

    /// Classes first used out of name order still export in name order,
    /// messages before flits, and read back per class as before.
    #[test]
    fn export_writes_classes_in_name_order() {
        let mut n = net(true);
        let used = ["req", "inv", "data", "ack", "discovery", "dir"];
        for (i, class) in used.iter().enumerate() {
            for _ in 0..=i {
                n.send(
                    NodeId::new(0),
                    NodeId::new(5),
                    i as u32 + 1,
                    class,
                    Cycle::ZERO,
                );
            }
        }
        // A second copy of a literal at another address counts under the
        // same class.
        let req = String::from("req").leak();
        n.send(NodeId::new(1), NodeId::new(2), 1, req, Cycle::ZERO);
        let mut sink = StatSink::new();
        n.export("noc", &mut sink);
        // Stat ids follow write order; the sink's own iteration is sorted
        // and would hide it.
        let sorted = ["ack", "data", "dir", "discovery", "inv", "req"];
        let written: Vec<String> = sorted
            .iter()
            .map(|c| format!("noc.messages.{c}"))
            .chain(sorted.iter().map(|c| format!("noc.flits.{c}")))
            .collect();
        let ids: Vec<usize> = written
            .iter()
            .map(|k| sink.id_of(k).expect("class exported").index())
            .collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "write order {ids:?}");
        assert_eq!(sink.len(), 3 + written.len());
        let expect = [
            ("req", 2, 2),
            ("inv", 2, 4),
            ("data", 3, 9),
            ("ack", 4, 16),
            ("discovery", 5, 25),
            ("dir", 6, 36),
        ];
        for (class, messages, flits) in expect {
            assert_eq!(n.messages_of(class), messages, "{class}");
            assert_eq!(n.flits_of(class), flits, "{class}");
            assert_eq!(
                sink.get(&format!("noc.messages.{class}")),
                Some(messages as f64)
            );
            assert_eq!(sink.get(&format!("noc.flits.{class}")), Some(flits as f64));
        }
        assert_eq!(n.messages_of("wb"), 0);
        assert_eq!(n.flits_of("wb"), 0);
        assert_eq!(n.total_messages(), 22);
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn zero_flit_packet_panics() {
        net(false).send(NodeId::new(0), NodeId::new(1), 0, "req", Cycle::ZERO);
    }

    #[test]
    fn send_faulty_without_hook_matches_send() {
        let mut plain = net(false);
        let mut hooked = net(false);
        let a = plain.send(NodeId::new(0), NodeId::new(3), 2, "req", Cycle::ZERO);
        let b = hooked.send_faulty(NodeId::new(0), NodeId::new(3), 2, "req", Cycle::ZERO);
        assert_eq!(b.arrival, a);
        assert_eq!(b.duplicate, None);
        assert_eq!(hooked.fault_counts(), (0, 0));
        assert_eq!(plain.total_messages(), hooked.total_messages());
    }

    #[test]
    fn delay_hook_postpones_arrival() {
        let mut n = net(false);
        n.set_link_faults(LinkFaultConfig {
            seed: 1,
            delay_per_mille: 1000,
            delay_cycles: 500,
            dup_per_mille: 0,
            max_faults: 1,
        });
        let first = n.send_faulty(NodeId::new(0), NodeId::new(1), 1, "req", Cycle::ZERO);
        assert_eq!(first.arrival.get(), 3 + 500);
        assert_eq!(first.duplicate, None);
        // Budget of one: the second send is clean.
        let second = n.send_faulty(NodeId::new(0), NodeId::new(1), 1, "req", Cycle::ZERO);
        assert_eq!(second.arrival.get(), 3);
        assert_eq!(n.fault_counts(), (1, 0));
    }

    #[test]
    fn duplicate_hook_sends_a_real_second_packet() {
        let mut n = net(false);
        n.set_link_faults(LinkFaultConfig {
            seed: 2,
            delay_per_mille: 0,
            delay_cycles: 0,
            dup_per_mille: 1000,
            max_faults: 1,
        });
        let out = n.send_faulty(NodeId::new(0), NodeId::new(1), 1, "req", Cycle::ZERO);
        assert!(out.duplicate.is_some(), "hook must duplicate");
        assert_eq!(n.messages_of("req"), 2, "duplicate counts as traffic");
        assert_eq!(n.fault_counts(), (0, 1));
    }
}
