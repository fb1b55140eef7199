//! Mesh topology and dimension-order routing.

use serde::{Deserialize, Serialize};
use stashdir_common::NodeId;
use std::fmt;

/// A `width × height` 2-D mesh. Node `i` sits at `(i % width, i / width)`.
///
/// # Examples
///
/// ```
/// use stashdir_common::NodeId;
/// use stashdir_noc::Mesh;
///
/// let mesh = Mesh::new(4, 4);
/// assert_eq!(mesh.nodes(), 16);
/// assert_eq!(mesh.coords(NodeId::new(5)), (1, 1));
/// assert_eq!(mesh.hops(NodeId::new(0), NodeId::new(15)), 6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Mesh {
    width: u16,
    height: u16,
}

impl Mesh {
    /// Creates a mesh.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u16, height: u16) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be positive");
        Mesh { width, height }
    }

    /// Creates the squarest mesh holding exactly `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero or cannot be arranged into a rectangle
    /// with aspect ratio ≤ 2 (e.g. primes > 3 are rejected).
    pub fn for_nodes(nodes: u16) -> Self {
        assert!(nodes > 0, "need at least one node");
        let mut best: Option<(u16, u16)> = None;
        let mut w = 1u16;
        while (w as u32 * w as u32) <= nodes as u32 {
            if nodes.is_multiple_of(w) {
                best = Some((nodes / w, w));
            }
            w += 1;
        }
        let (w, h) = best.expect("factorization exists");
        assert!(
            w <= h * 2,
            "{nodes} nodes cannot form a mesh with aspect ratio <= 2 ({w}x{h})"
        );
        Mesh::new(w, h)
    }

    /// Mesh width (columns).
    pub const fn width(self) -> u16 {
        self.width
    }

    /// Mesh height (rows).
    pub const fn height(self) -> u16 {
        self.height
    }

    /// Total node count.
    pub const fn nodes(self) -> u16 {
        self.width * self.height
    }

    /// The `(x, y)` coordinates of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the mesh.
    pub fn coords(self, node: NodeId) -> (u16, u16) {
        assert!(node.get() < self.nodes(), "node {node} outside mesh");
        (node.get() % self.width, node.get() / self.width)
    }

    /// The node at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are outside the mesh.
    pub fn node_at(self, x: u16, y: u16) -> NodeId {
        assert!(x < self.width && y < self.height, "({x},{y}) outside mesh");
        NodeId::new(y * self.width + x)
    }

    /// Manhattan hop distance between two nodes.
    pub fn hops(self, a: NodeId, b: NodeId) -> u64 {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        (ax.abs_diff(bx) + ay.abs_diff(by)) as u64
    }

    /// The XY (x-first, then y) route from `src` to `dst` as a sequence of
    /// directed links. Empty when `src == dst`.
    pub fn xy_route(self, src: NodeId, dst: NodeId) -> Vec<Link> {
        let (mut x, mut y) = self.coords(src);
        let (dx, dy) = self.coords(dst);
        let mut links = Vec::with_capacity(self.hops(src, dst) as usize);
        let mut from = src;
        while x != dx {
            x = if x < dx { x + 1 } else { x - 1 };
            let to = self.node_at(x, y);
            links.push(Link { from, to });
            from = to;
        }
        while y != dy {
            y = if y < dy { y + 1 } else { y - 1 };
            let to = self.node_at(x, y);
            links.push(Link { from, to });
            from = to;
        }
        links
    }

    /// Number of directed links in the mesh (each physical channel is two
    /// directed links).
    pub fn directed_links(self) -> usize {
        let w = self.width as usize;
        let h = self.height as usize;
        2 * ((w - 1) * h + (h - 1) * w)
    }

    /// Dense index of a directed link for table lookups.
    ///
    /// # Panics
    ///
    /// Panics if `link` does not connect mesh neighbors.
    pub fn link_index(self, link: Link) -> usize {
        let (fx, fy) = self.coords(link.from);
        let (tx, ty) = self.coords(link.to);
        let w = self.width as usize;
        let h = self.height as usize;
        let horizontal = (w - 1) * h; // east links, then west links, then vertical
        match (tx as i32 - fx as i32, ty as i32 - fy as i32) {
            (1, 0) => fy as usize * (w - 1) + fx as usize,
            (-1, 0) => horizontal + fy as usize * (w - 1) + tx as usize,
            (0, 1) => 2 * horizontal + fx as usize * (h - 1) + fy as usize,
            (0, -1) => 2 * horizontal + (h - 1) * w + fx as usize * (h - 1) + ty as usize,
            _ => panic!("{link} does not connect mesh neighbors"),
        }
    }

    /// The dense [`link_index`]es of the XY route from `src` to `dst`, in
    /// route order, without building the route: each index follows from
    /// the previous one by a fixed step per phase. Yields exactly
    /// `xy_route(src, dst)` mapped through `link_index`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is outside the mesh.
    ///
    /// [`link_index`]: Mesh::link_index
    pub fn xy_link_indices(self, src: NodeId, dst: NodeId) -> XyLinkIndices {
        let (sx, sy) = self.coords(src);
        let (dx, dy) = self.coords(dst);
        let w = self.width as usize;
        let h = self.height as usize;
        let horizontal = (w - 1) * h; // east links, then west links, then vertical
        let (sx, sy, dx, dy) = (sx as usize, sy as usize, dx as usize, dy as usize);
        // X phase along row `sy`: east links run `sy*(w-1) + x`, west
        // links `horizontal + sy*(w-1) + (x-1)` for a hop leaving column x.
        let x = if dx >= sx {
            Phase::new(sy * (w - 1) + sx, 1, dx - sx)
        } else {
            Phase::new(horizontal + sy * (w - 1) + sx - 1, -1, sx - dx)
        };
        // Y phase along column `dx`: south links run
        // `2*horizontal + dx*(h-1) + y`, north links
        // `2*horizontal + (h-1)*w + dx*(h-1) + (y-1)`.
        let y = if dy >= sy {
            Phase::new(2 * horizontal + dx * (h - 1) + sy, 1, dy - sy)
        } else {
            Phase::new(
                2 * horizontal + (h - 1) * w + dx * (h - 1) + sy - 1,
                -1,
                sy - dy,
            )
        };
        XyLinkIndices { x, y }
    }
}

/// One dimension of an XY route: `left` links starting at index `next`,
/// each `step` after the previous.
#[derive(Debug, Clone, Copy)]
struct Phase {
    next: usize,
    step: isize,
    left: usize,
}

impl Phase {
    fn new(next: usize, step: isize, left: usize) -> Self {
        Phase { next, step, left }
    }

    fn take(&mut self) -> Option<usize> {
        if self.left == 0 {
            return None;
        }
        let idx = self.next;
        self.next = self.next.wrapping_add_signed(self.step);
        self.left -= 1;
        Some(idx)
    }
}

/// Iterator over the link indices of an XY route; see
/// [`Mesh::xy_link_indices`].
#[derive(Debug, Clone, Copy)]
pub struct XyLinkIndices {
    x: Phase,
    y: Phase,
}

impl Iterator for XyLinkIndices {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        self.x.take().or_else(|| self.y.take())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.x.left + self.y.left;
        (n, Some(n))
    }
}

impl ExactSizeIterator for XyLinkIndices {}

impl fmt::Display for Mesh {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{} mesh", self.width, self.height)
    }
}

/// A directed link between two adjacent routers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Link {
    /// Upstream router.
    pub from: NodeId,
    /// Downstream router.
    pub to: NodeId,
}

impl fmt::Display for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}->{}", self.from, self.to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coords_round_trip() {
        let mesh = Mesh::new(4, 2);
        for n in 0..8 {
            let node = NodeId::new(n);
            let (x, y) = mesh.coords(node);
            assert_eq!(mesh.node_at(x, y), node);
        }
    }

    #[test]
    fn hops_are_manhattan() {
        let mesh = Mesh::new(4, 4);
        assert_eq!(mesh.hops(NodeId::new(0), NodeId::new(0)), 0);
        assert_eq!(mesh.hops(NodeId::new(0), NodeId::new(3)), 3);
        assert_eq!(mesh.hops(NodeId::new(0), NodeId::new(12)), 3);
        assert_eq!(mesh.hops(NodeId::new(5), NodeId::new(10)), 2);
    }

    #[test]
    fn xy_route_goes_x_first() {
        let mesh = Mesh::new(4, 4);
        let route = mesh.xy_route(NodeId::new(0), NodeId::new(5));
        // 0 -> 1 (x), then 1 -> 5 (y).
        assert_eq!(route.len(), 2);
        assert_eq!(route[0].from, NodeId::new(0));
        assert_eq!(route[0].to, NodeId::new(1));
        assert_eq!(route[1].from, NodeId::new(1));
        assert_eq!(route[1].to, NodeId::new(5));
    }

    #[test]
    fn route_length_matches_hops_everywhere() {
        let mesh = Mesh::new(3, 5);
        for a in 0..15 {
            for b in 0..15 {
                let (a, b) = (NodeId::new(a), NodeId::new(b));
                assert_eq!(mesh.xy_route(a, b).len() as u64, mesh.hops(a, b));
            }
        }
    }

    #[test]
    fn route_to_self_is_empty() {
        let mesh = Mesh::new(4, 4);
        assert!(mesh.xy_route(NodeId::new(6), NodeId::new(6)).is_empty());
    }

    #[test]
    fn routes_go_west_and_north_too() {
        let mesh = Mesh::new(4, 4);
        let route = mesh.xy_route(NodeId::new(15), NodeId::new(0));
        assert_eq!(route.len(), 6);
        assert_eq!(route.last().unwrap().to, NodeId::new(0));
    }

    #[test]
    fn link_indices_are_dense_and_unique() {
        let mesh = Mesh::new(4, 3);
        let mut seen = vec![false; mesh.directed_links()];
        for a in 0..mesh.nodes() {
            for b in 0..mesh.nodes() {
                for link in mesh.xy_route(NodeId::new(a), NodeId::new(b)) {
                    let idx = mesh.link_index(link);
                    assert!(idx < mesh.directed_links());
                    seen[idx] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "every directed link is routable");
    }

    #[test]
    fn for_nodes_builds_square_meshes() {
        assert_eq!(Mesh::for_nodes(16), Mesh::new(4, 4));
        assert_eq!(Mesh::for_nodes(32), Mesh::new(8, 4));
        assert_eq!(Mesh::for_nodes(64), Mesh::new(8, 8));
        assert_eq!(Mesh::for_nodes(2), Mesh::new(2, 1));
    }

    #[test]
    #[should_panic(expected = "aspect ratio")]
    fn for_nodes_rejects_primes() {
        let _ = Mesh::for_nodes(13);
    }

    #[test]
    #[should_panic(expected = "outside mesh")]
    fn out_of_mesh_node_panics() {
        Mesh::new(2, 2).coords(NodeId::new(4));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Mesh::new(4, 4).to_string(), "4x4 mesh");
        let link = Link {
            from: NodeId::new(0),
            to: NodeId::new(1),
        };
        assert_eq!(link.to_string(), "node0->node1");
    }
}
