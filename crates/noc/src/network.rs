//! The network timing/traffic model.

use crate::topology::Mesh;
use serde::{Deserialize, Serialize};
use stashdir_common::{Counter, Cycle, DetRng, Histogram, NodeId, StatSink};
use std::collections::BTreeMap;

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
    messages: BTreeMap<&'static str, Counter>,
    flits: BTreeMap<&'static str, Counter>,
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
            messages: BTreeMap::new(),
            flits: BTreeMap::new(),
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
        self.messages.entry(class).or_default().incr();
        self.flits.entry(class).or_default().add(flits as u64);

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

    /// Sends the same packet to many destinations (an invalidation
    /// multicast or a discovery broadcast), returning each arrival time in
    /// order. Each destination gets its own packet — the model does not
    /// assume hardware multicast support, matching the paper's assumption
    /// that discovery probes are ordinary coherence messages.
    pub fn multicast(
        &mut self,
        src: NodeId,
        dsts: &[NodeId],
        flits: u32,
        class: &'static str,
        now: Cycle,
    ) -> Vec<Cycle> {
        dsts.iter()
            .map(|&d| self.send(src, d, flits, class, now))
            .collect()
    }

    /// Total flit-hops injected so far (the traffic metric of experiment
    /// E7; proportional to link energy).
    pub fn flit_hops(&self) -> u64 {
        self.flit_hops.get()
    }

    /// Messages sent under `class`.
    pub fn messages_of(&self, class: &str) -> u64 {
        self.messages.get(class).map_or(0, |c| c.get())
    }

    /// Flits sent under `class`.
    pub fn flits_of(&self, class: &str) -> u64 {
        self.flits.get(class).map_or(0, |c| c.get())
    }

    /// Total messages across classes.
    pub fn total_messages(&self) -> u64 {
        self.messages.values().map(|c| c.get()).sum()
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
        for (class, count) in &self.messages {
            sink.put(format!("{prefix}.messages.{class}"), count.get() as f64);
        }
        for (class, count) in &self.flits {
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
    fn multicast_reaches_everyone() {
        let mut n = net(false);
        let dsts: Vec<NodeId> = (1..4).map(NodeId::new).collect();
        let arrivals = n.multicast(NodeId::new(0), &dsts, 1, "inv", Cycle::ZERO);
        assert_eq!(arrivals.len(), 3);
        assert_eq!(arrivals[0].get(), 3);
        assert_eq!(arrivals[2].get(), 9);
        assert_eq!(n.messages_of("inv"), 3);
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
