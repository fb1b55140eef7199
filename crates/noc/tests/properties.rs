//! Property tests of the mesh network model: latency lower bounds,
//! contention monotonicity, routing totality, and the in-place route
//! walk against `xy_route` + `link_index`.

use proptest::prelude::*;
use stashdir_common::{Cycle, NodeId};
use stashdir_noc::{Mesh, Network, NocConfig};

fn cfg(contention: bool) -> NocConfig {
    NocConfig {
        hop_latency: 3,
        local_latency: 1,
        model_contention: contention,
    }
}

proptest! {
    /// Arrival time is never earlier than the physical lower bound:
    /// hops × hop latency + serialization, and never earlier than the
    /// send time.
    #[test]
    fn latency_lower_bound(
        sends in prop::collection::vec((0u16..16, 0u16..16, 1u32..10, 0u64..1000), 1..50),
        contention in any::<bool>(),
    ) {
        let mesh = Mesh::new(4, 4);
        let mut net = Network::new(mesh, cfg(contention));
        for (src, dst, flits, t) in sends {
            let (src, dst) = (NodeId::new(src), NodeId::new(dst));
            let sent = Cycle::new(t);
            let arrival = net.send(src, dst, flits, "data", sent);
            prop_assert!(arrival > sent);
            if src != dst {
                let bound = sent + mesh.hops(src, dst) * 3 + (flits as u64 - 1);
                prop_assert!(arrival >= bound, "{arrival} < bound {bound}");
            }
        }
    }

    /// With contention off, latency is a pure function of distance and
    /// size — identical messages always take identical time.
    #[test]
    fn contention_free_is_pure(
        src in 0u16..16, dst in 0u16..16, flits in 1u32..12, t in 0u64..500,
    ) {
        let mut net = Network::new(Mesh::new(4, 4), cfg(false));
        let (src, dst) = (NodeId::new(src), NodeId::new(dst));
        let a = net.send(src, dst, flits, "data", Cycle::new(t));
        let b = net.send(src, dst, flits, "data", Cycle::new(t));
        prop_assert_eq!(a, b);
    }

    /// Contention can only delay: a loaded network never beats the
    /// unloaded one for the same message.
    #[test]
    fn contention_only_delays(
        background in prop::collection::vec((0u16..16, 0u16..16, 1u32..8), 0..30),
        src in 0u16..16, dst in 0u16..16,
    ) {
        let mesh = Mesh::new(4, 4);
        let mut loaded = Network::new(mesh, cfg(true));
        let mut unloaded = Network::new(mesh, cfg(true));
        for (s, d, f) in background {
            loaded.send(NodeId::new(s), NodeId::new(d), f, "data", Cycle::ZERO);
        }
        let probe_loaded = loaded.send(NodeId::new(src), NodeId::new(dst), 1, "req", Cycle::ZERO);
        let probe_unloaded =
            unloaded.send(NodeId::new(src), NodeId::new(dst), 1, "req", Cycle::ZERO);
        prop_assert!(probe_loaded >= probe_unloaded);
    }

    /// Same-channel packets sent in order arrive in order under
    /// contention (the wormhole occupancy serializes them).
    #[test]
    fn same_channel_fifo_under_contention(
        flit_sizes in prop::collection::vec(1u32..8, 2..10),
    ) {
        let mut net = Network::new(Mesh::new(4, 4), cfg(true));
        let mut last = Cycle::ZERO;
        for f in flit_sizes {
            let arrival = net.send(NodeId::new(0), NodeId::new(15), f, "data", Cycle::ZERO);
            prop_assert!(arrival > last, "overtaking on an identical path");
            last = arrival;
        }
    }

    /// Traffic accounting: flit-hops equal the sum over messages of
    /// flits × hop count.
    #[test]
    fn flit_hop_accounting(
        sends in prop::collection::vec((0u16..16, 0u16..16, 1u32..8), 1..40),
    ) {
        let mesh = Mesh::new(4, 4);
        let mut net = Network::new(mesh, cfg(false));
        let mut expected = 0u64;
        for (s, d, f) in sends {
            let (s, d) = (NodeId::new(s), NodeId::new(d));
            net.send(s, d, f, "data", Cycle::ZERO);
            expected += f as u64 * mesh.hops(s, d);
        }
        prop_assert_eq!(net.flit_hops(), expected);
    }

    /// Every route on every rectangular mesh is loop-free and has
    /// minimal length.
    #[test]
    fn routes_are_minimal_and_loop_free(w in 1u16..6, h in 1u16..6) {
        let mesh = Mesh::new(w, h);
        for a in 0..mesh.nodes() {
            for b in 0..mesh.nodes() {
                let (a, b) = (NodeId::new(a), NodeId::new(b));
                let route = mesh.xy_route(a, b);
                prop_assert_eq!(route.len() as u64, mesh.hops(a, b));
                let mut seen = std::collections::HashSet::new();
                seen.insert(a);
                for link in &route {
                    prop_assert!(seen.insert(link.to), "loop through {}", link.to);
                }
                if let Some(last) = route.last() {
                    prop_assert_eq!(last.to, b);
                }
            }
        }
    }
}

/// The meshes the route walk is checked on exhaustively: a row, a
/// column, a square and the 1024-node point.
const WALK_MESHES: [(u16, u16); 4] = [(1, 8), (8, 1), (4, 4), (32, 32)];

/// `Network::send` as it was before the in-place walk: build the XY
/// route, then look every link up by `link_index`.
struct ReferenceNet {
    mesh: Mesh,
    config: NocConfig,
    link_free: Vec<Cycle>,
    flit_hops: u64,
}

impl ReferenceNet {
    fn new(mesh: Mesh, config: NocConfig) -> Self {
        ReferenceNet {
            mesh,
            config,
            link_free: vec![Cycle::ZERO; mesh.directed_links()],
            flit_hops: 0,
        }
    }

    fn send(&mut self, src: NodeId, dst: NodeId, flits: u32, now: Cycle) -> Cycle {
        if src == dst {
            return now + self.config.local_latency;
        }
        let route = self.mesh.xy_route(src, dst);
        self.flit_hops += flits as u64 * route.len() as u64;
        let mut head = now;
        for link in route {
            let depart = if self.config.model_contention {
                let idx = self.mesh.link_index(link);
                let depart = head.max(self.link_free[idx]);
                self.link_free[idx] = depart + flits as u64;
                depart
            } else {
                head
            };
            head = depart + self.config.hop_latency;
        }
        head + (flits as u64 - 1)
    }
}

#[test]
fn link_walk_matches_route_then_index() {
    for (w, h) in WALK_MESHES {
        let mesh = Mesh::new(w, h);
        for a in 0..mesh.nodes() {
            for b in 0..mesh.nodes() {
                let (a, b) = (NodeId::new(a), NodeId::new(b));
                let walked: Vec<usize> = mesh.xy_link_indices(a, b).collect();
                let routed: Vec<usize> = mesh
                    .xy_route(a, b)
                    .into_iter()
                    .map(|l| mesh.link_index(l))
                    .collect();
                assert_eq!(walked, routed, "{mesh}: {a} -> {b}");
                assert_eq!(mesh.xy_link_indices(a, b).len(), routed.len());
            }
        }
    }
}

#[test]
fn send_matches_reference_on_every_pair() {
    for (w, h) in WALK_MESHES {
        let mesh = Mesh::new(w, h);
        for contention in [true, false] {
            let mut net = Network::new(mesh, cfg(contention));
            let mut reference = ReferenceNet::new(mesh, cfg(contention));
            let mut i = 0u64;
            for a in 0..mesh.nodes() {
                for b in 0..mesh.nodes() {
                    let (a, b) = (NodeId::new(a), NodeId::new(b));
                    // Varying length and a slowly advancing clock keep
                    // links contended without saturating them.
                    let flits = 1 + (i % 5) as u32;
                    let now = Cycle::new(i / 3);
                    i += 1;
                    let got = net.send(a, b, flits, "data", now);
                    let want = reference.send(a, b, flits, now);
                    assert_eq!(got, want, "{mesh} contention={contention}: {a} -> {b}");
                }
            }
            assert_eq!(net.flit_hops(), reference.flit_hops, "{mesh}");
        }
    }
}
