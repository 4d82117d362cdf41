//! The logical network graph: nodes, capacity-weighted links, up/down state.
//!
//! [`Network`] is the data-plane view every simulator routes over. In a plain
//! fat-tree or F10 network the switch nodes are physical devices; in a
//! ShareBackup network they are *slots* whose occupant may be swapped by the
//! control plane. Failure state lives here: nodes and links can be marked
//! down, and all path queries respect that state.

use crate::ids::{LinkId, NodeId};

/// What kind of device a node is.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum NodeKind {
    /// An end host.
    Host,
    /// A top-of-rack (edge) switch position.
    Edge,
    /// An aggregation switch position.
    Agg,
    /// A core switch position.
    Core,
}

impl NodeKind {
    /// True for any switch kind (everything but `Host`).
    pub fn is_switch(self) -> bool {
        !matches!(self, NodeKind::Host)
    }
}

/// A node of the network graph.
#[derive(Clone, Debug)]
pub struct Node {
    /// Device kind.
    pub kind: NodeKind,
    /// Pod index for hosts/edge/agg nodes; `None` for cores.
    pub pod: Option<usize>,
    /// Index within its layer (global for cores/hosts, in-pod for edge/agg).
    pub index: usize,
    /// Whether the node is currently operational.
    pub up: bool,
}

/// An undirected capacity-weighted link.
#[derive(Clone, Debug)]
pub struct Link {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Capacity in bits per second.
    pub capacity_bps: f64,
    /// Whether the link itself is operational (independent of endpoints).
    pub up: bool,
}

impl Link {
    /// The endpoint opposite to `n`.
    ///
    /// # Panics
    /// Panics if `n` is not an endpoint of this link.
    pub fn other(&self, n: NodeId) -> NodeId {
        if n == self.a {
            self.b
        } else if n == self.b {
            self.a
        } else {
            panic!("{n:?} is not an endpoint of this link");
        }
    }
}

/// The logical network: an arena of nodes and undirected links.
#[derive(Clone, Debug, Default)]
pub struct Network {
    nodes: Vec<Node>,
    links: Vec<Link>,
    adjacency: Vec<Vec<LinkId>>,
}

impl Network {
    /// An empty network.
    pub fn new() -> Network {
        Network::default()
    }

    /// Add a node and return its id.
    pub fn add_node(&mut self, kind: NodeKind, pod: Option<usize>, index: usize) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(Node {
            kind,
            pod,
            index,
            up: true,
        });
        self.adjacency.push(Vec::new());
        id
    }

    /// Add an undirected link of the given capacity and return its id.
    ///
    /// # Panics
    /// Panics on a self-loop.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, capacity_bps: f64) -> LinkId {
        assert_ne!(a, b, "self-loop");
        let id = LinkId::from_index(self.links.len());
        self.links.push(Link {
            a,
            b,
            capacity_bps,
            up: true,
        });
        self.adjacency[a.0 as usize].push(id);
        self.adjacency[b.0 as usize].push(id);
        id
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Immutable node accessor.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Immutable link accessor.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0 as usize]
    }

    /// Iterate over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::from_index)
    }

    /// Iterate over all link ids.
    pub fn link_ids(&self) -> impl Iterator<Item = LinkId> + '_ {
        (0..self.links.len()).map(LinkId::from_index)
    }

    /// All links incident to `n` (up or down).
    pub fn incident(&self, n: NodeId) -> &[LinkId] {
        &self.adjacency[n.0 as usize]
    }

    /// Mark a node up or down.
    pub fn set_node_up(&mut self, n: NodeId, up: bool) {
        self.nodes[n.0 as usize].up = up;
    }

    /// Mark a link up or down.
    pub fn set_link_up(&mut self, l: LinkId, up: bool) {
        self.links[l.0 as usize].up = up;
    }

    /// A link is usable iff it and both endpoints are up.
    pub fn link_usable(&self, l: LinkId) -> bool {
        let link = self.link(l);
        link.up && self.node(link.a).up && self.node(link.b).up
    }

    /// The link between `a` and `b`, if one exists (regardless of state).
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.incident(a)
            .iter()
            .copied()
            .find(|&l| self.link(l).other(a) == b)
    }

    /// Usable neighbors of `n`, with the connecting link.
    pub fn up_neighbors(&self, n: NodeId) -> impl Iterator<Item = (NodeId, LinkId)> + '_ {
        self.incident(n)
            .iter()
            .copied()
            .filter(move |&l| self.link_usable(l))
            .map(move |l| (self.link(l).other(n), l))
    }

    /// Whether every consecutive pair in `path` is joined by a usable link
    /// and every node on the path is up.
    pub fn path_usable(&self, path: &[NodeId]) -> bool {
        if path.is_empty() {
            return false;
        }
        if !path.iter().all(|&n| self.node(n).up) {
            return false;
        }
        path.windows(2).all(|w| {
            self.link_between(w[0], w[1])
                .is_some_and(|l| self.link_usable(l))
        })
    }

    /// Breadth-first shortest path from `src` to `dst` over usable links.
    ///
    /// Returns the node sequence including both endpoints, or `None` if
    /// disconnected. Deterministic: neighbors are explored in link-insertion
    /// order.
    ///
    /// An endpoint with no usable incident link (down itself, or a host whose
    /// only link or edge switch is down) answers `None` at once, without the
    /// whole-fabric search that could only fail.
    pub fn bfs_path(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        if src == dst {
            return Some(vec![src]);
        }
        if self.up_neighbors(src).next().is_none() || self.up_neighbors(dst).next().is_none() {
            return None;
        }
        let mut prev: Vec<Option<NodeId>> = vec![None; self.nodes.len()];
        let mut visited = vec![false; self.nodes.len()];
        visited[src.0 as usize] = true;
        let mut frontier = std::collections::VecDeque::new();
        frontier.push_back(src);
        while let Some(cur) = frontier.pop_front() {
            for (next, _link) in self.up_neighbors(cur) {
                if visited[next.0 as usize] {
                    continue;
                }
                visited[next.0 as usize] = true;
                prev[next.0 as usize] = Some(cur);
                if next == dst {
                    let mut path = vec![dst];
                    let mut at = dst;
                    while let Some(p) = prev[at.0 as usize] {
                        path.push(p);
                        at = p;
                    }
                    path.reverse();
                    return Some(path);
                }
                frontier.push_back(next);
            }
        }
        None
    }

    /// Hop distance (link count) of the shortest usable path, if connected.
    pub fn distance(&self, src: NodeId, dst: NodeId) -> Option<usize> {
        self.bfs_path(src, dst).map(|p| p.len() - 1)
    }

    /// Ids of all hosts.
    pub fn hosts(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&n| self.node(n).kind == NodeKind::Host)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Triangle network with one extra pendant host.
    fn triangle() -> (Network, Vec<NodeId>, Vec<LinkId>) {
        let mut net = Network::new();
        let a = net.add_node(NodeKind::Host, Some(0), 0);
        let b = net.add_node(NodeKind::Edge, Some(0), 0);
        let c = net.add_node(NodeKind::Edge, Some(0), 1);
        let d = net.add_node(NodeKind::Host, Some(0), 1);
        let ab = net.add_link(a, b, 10e9);
        let bc = net.add_link(b, c, 10e9);
        let ca = net.add_link(c, a, 10e9);
        let cd = net.add_link(c, d, 10e9);
        (net, vec![a, b, c, d], vec![ab, bc, ca, cd])
    }

    #[test]
    fn adjacency_and_lookup() {
        let (net, n, l) = triangle();
        assert_eq!(net.node_count(), 4);
        assert_eq!(net.link_count(), 4);
        assert_eq!(net.incident(n[2]).len(), 3);
        assert_eq!(net.link_between(n[0], n[1]), Some(l[0]));
        assert_eq!(net.link_between(n[1], n[3]), None);
        assert_eq!(net.link(l[0]).other(n[0]), n[1]);
    }

    #[test]
    fn bfs_finds_shortest() {
        let (net, n, _) = triangle();
        assert_eq!(net.bfs_path(n[0], n[3]), Some(vec![n[0], n[2], n[3]]));
        assert_eq!(net.distance(n[0], n[3]), Some(2));
        assert_eq!(net.distance(n[0], n[0]), Some(0));
    }

    #[test]
    fn link_failure_forces_detour() {
        let (mut net, n, l) = triangle();
        net.set_link_up(l[2], false); // cut c-a
        assert_eq!(net.bfs_path(n[0], n[3]), Some(vec![n[0], n[1], n[2], n[3]]));
        assert!(!net.link_usable(l[2]));
    }

    #[test]
    fn node_failure_disconnects() {
        let (mut net, n, _) = triangle();
        net.set_node_up(n[2], false); // c is the only way to d
        assert_eq!(net.bfs_path(n[0], n[3]), None);
        // Links through c are unusable even though the link itself is up.
        let bc = net.link_between(n[1], n[2]).expect("link exists");
        assert!(net.link(bc).up);
        assert!(!net.link_usable(bc));
    }

    #[test]
    fn path_usable_checks_every_hop() {
        let (mut net, n, l) = triangle();
        assert!(net.path_usable(&[n[0], n[2], n[3]]));
        assert!(!net.path_usable(&[n[0], n[3]])); // no direct link
        net.set_link_up(l[3], false);
        assert!(!net.path_usable(&[n[0], n[2], n[3]]));
        assert!(!net.path_usable(&[]));
    }

    #[test]
    fn recovery_restores_paths() {
        let (mut net, n, l) = triangle();
        net.set_link_up(l[2], false);
        net.set_node_up(n[2], false);
        assert_eq!(net.bfs_path(n[0], n[3]), None);
        net.set_node_up(n[2], true);
        net.set_link_up(l[2], true);
        assert_eq!(net.distance(n[0], n[3]), Some(2));
    }

    #[test]
    fn hosts_lists_only_hosts() {
        let (net, n, _) = triangle();
        assert_eq!(net.hosts(), vec![n[0], n[3]]);
    }
}
