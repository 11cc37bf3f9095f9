//! The capacitated network graph and health overlays.
//!
//! [`NetworkGraph`] is the *structural* truth: which devices exist, which
//! links wire them together, and each link's nominal capacity. Whether a
//! device or link is currently *usable* is a property of network state
//! (admin power off, firmware mid-upgrade, link shut by failure
//! mitigation, …) — that is expressed by a [`HealthView`] overlay so the
//! same graph can be evaluated under the observed state, under a projected
//! target state, or under hypothetical failures without copying the graph.

use serde::{Deserialize, Serialize};
use statesman_types::{DatacenterId, DeviceName, DeviceRole, LinkName};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

/// Dense node index into a [`NetworkGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// Dense edge index into a [`NetworkGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EdgeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A device node.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeInfo {
    /// Canonical device name.
    pub name: DeviceName,
    /// Fabric role (ToR/Agg/Core/Border).
    pub role: DeviceRole,
    /// Home datacenter (border routers belong to their DC; inter-DC links
    /// belong to the WAN pseudo-datacenter).
    pub datacenter: DatacenterId,
    /// Pod number for pod-scoped devices (ToR/Agg), else `None`.
    pub pod: Option<u32>,
}

/// A physical (undirected) link edge with nominal capacity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkInfo {
    /// Canonical link name.
    pub name: LinkName,
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Nominal capacity in Mbps (per direction).
    pub capacity_mbps: f64,
    /// The datacenter the link is homed in for storage partitioning (the
    /// WAN pseudo-DC for inter-DC links).
    pub datacenter: DatacenterId,
}

/// The structural network graph.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct NetworkGraph {
    nodes: Vec<NodeInfo>,
    edges: Vec<LinkInfo>,
    /// adjacency: node -> (edge, peer) pairs
    adj: Vec<Vec<(EdgeId, NodeId)>>,
    by_name: HashMap<DeviceName, NodeId>,
    by_link: HashMap<LinkName, EdgeId>,
    /// Pod membership: datacenter → pod → members in id order
    /// (`add_device` hands out ascending ids, so appending keeps it).
    pods: BTreeMap<DatacenterId, BTreeMap<u32, Vec<NodeId>>>,
}

impl NetworkGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a device. Panics if the name already exists (topologies are
    /// built once by the builders; duplicate names are construction bugs).
    pub fn add_device(
        &mut self,
        name: impl Into<DeviceName>,
        role: DeviceRole,
        datacenter: impl Into<DatacenterId>,
        pod: Option<u32>,
    ) -> NodeId {
        let name = name.into();
        assert!(!self.by_name.contains_key(&name), "duplicate device {name}");
        let id = NodeId(self.nodes.len() as u32);
        let datacenter = datacenter.into();
        self.by_name.insert(name.clone(), id);
        if let Some(pod) = pod {
            let in_dc = self.pods.entry(datacenter.clone()).or_default();
            in_dc.entry(pod).or_default().push(id);
        }
        self.nodes.push(NodeInfo {
            name,
            role,
            datacenter,
            pod,
        });
        self.adj.push(Vec::new());
        id
    }

    /// Add an undirected link between two existing devices. Panics on
    /// unknown endpoints or duplicate links (construction bugs).
    pub fn add_link(
        &mut self,
        x: &DeviceName,
        y: &DeviceName,
        capacity_mbps: f64,
        datacenter: impl Into<DatacenterId>,
    ) -> EdgeId {
        let a = self
            .node_id(x)
            .unwrap_or_else(|| panic!("unknown device {x}"));
        let b = self
            .node_id(y)
            .unwrap_or_else(|| panic!("unknown device {y}"));
        // The endpoints' own names, so a link shares its devices' allocations.
        let name = LinkName::between(
            self.nodes[a.0 as usize].name.clone(),
            self.nodes[b.0 as usize].name.clone(),
        );
        assert!(!self.by_link.contains_key(&name), "duplicate link {name}");
        let id = EdgeId(self.edges.len() as u32);
        self.by_link.insert(name.clone(), id);
        self.edges.push(LinkInfo {
            name,
            a,
            b,
            capacity_mbps,
            datacenter: datacenter.into(),
        });
        self.adj[a.0 as usize].push((id, b));
        self.adj[b.0 as usize].push((id, a));
        id
    }

    /// Number of devices.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Look up a device by name.
    pub fn node_id(&self, name: &DeviceName) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    /// Look up a link by canonical name.
    pub fn edge_id(&self, name: &LinkName) -> Option<EdgeId> {
        self.by_link.get(name).copied()
    }

    /// Node metadata.
    pub fn node(&self, id: NodeId) -> &NodeInfo {
        &self.nodes[id.0 as usize]
    }

    /// Link metadata.
    pub fn edge(&self, id: EdgeId) -> &LinkInfo {
        &self.edges[id.0 as usize]
    }

    /// Iterate all nodes with their ids.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &NodeInfo)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Iterate all edges with their ids.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &LinkInfo)> {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (EdgeId(i as u32), e))
    }

    /// Neighbors of a node as `(edge, peer)` pairs.
    pub fn neighbors(&self, id: NodeId) -> &[(EdgeId, NodeId)] {
        &self.adj[id.0 as usize]
    }

    /// Degree of a node.
    pub fn degree(&self, id: NodeId) -> usize {
        self.adj[id.0 as usize].len()
    }

    /// All devices of a role, in id order.
    pub fn devices_with_role(&self, role: DeviceRole) -> Vec<NodeId> {
        self.nodes()
            .filter(|(_, n)| n.role == role)
            .map(|(id, _)| id)
            .collect()
    }

    /// All devices in a pod of a given datacenter, in id order.
    pub fn devices_in_pod(&self, dc: &DatacenterId, pod: u32) -> Vec<NodeId> {
        self.pods
            .get(dc)
            .and_then(|in_dc| in_dc.get(&pod))
            .cloned()
            .unwrap_or_default()
    }

    /// Every pod as `(datacenter, pod, members in id order)`, ascending
    /// by datacenter then pod.
    pub fn pods(&self) -> impl Iterator<Item = (&DatacenterId, u32, &[NodeId])> {
        self.pods.iter().flat_map(|(dc, in_dc)| {
            in_dc
                .iter()
                .map(move |(&pod, members)| (dc, pod, members.as_slice()))
        })
    }

    /// All links incident to a device.
    pub fn links_of_device(&self, name: &DeviceName) -> Vec<LinkName> {
        match self.node_id(name) {
            Some(id) => self
                .neighbors(id)
                .iter()
                .map(|(e, _)| self.edge(*e).name.clone())
                .collect(),
            None => Vec::new(),
        }
    }

    /// Distinct pod numbers present in a datacenter, ascending.
    pub fn pods_in(&self, dc: &DatacenterId) -> Vec<u32> {
        self.pods
            .get(dc)
            .map(|in_dc| in_dc.keys().copied().collect())
            .unwrap_or_default()
    }
}

/// A health overlay: which devices and links are usable in a particular
/// (observed, target, or hypothetical) state.
///
/// A link is usable iff the link itself is up *and* both endpoint devices
/// are up — exactly the cross-entity dependency of Fig 4 (link power
/// depends on endpoint device state).
#[derive(Debug, Clone, Default)]
pub struct HealthView {
    down_devices: HashSet<DeviceName>,
    down_links: HashSet<LinkName>,
}

impl HealthView {
    /// Everything up.
    pub fn all_up() -> Self {
        Self::default()
    }

    /// Mark a device down (powered off, rebooting for upgrade, …).
    pub fn set_device_down(&mut self, name: DeviceName) -> &mut Self {
        self.down_devices.insert(name);
        self
    }

    /// Mark a link down (admin-down or oper-down).
    pub fn set_link_down(&mut self, name: LinkName) -> &mut Self {
        self.down_links.insert(name);
        self
    }

    /// Mark a device back up.
    pub fn set_device_up(&mut self, name: &DeviceName) -> &mut Self {
        self.down_devices.remove(name);
        self
    }

    /// Mark a link back up.
    pub fn set_link_up(&mut self, name: &LinkName) -> &mut Self {
        self.down_links.remove(name);
        self
    }

    /// Is the device usable?
    pub fn device_up(&self, name: &DeviceName) -> bool {
        !self.down_devices.contains(name)
    }

    /// Is the link usable (its own state only — see
    /// [`HealthView::link_usable`] for the endpoint-aware check)?
    pub fn link_up(&self, name: &LinkName) -> bool {
        !self.down_links.contains(name)
    }

    /// Is the link usable end-to-end: link up and both endpoints up?
    pub fn link_usable(&self, link: &LinkName) -> bool {
        self.link_up(link) && self.device_up(&link.a) && self.device_up(&link.b)
    }

    /// Devices currently marked down.
    pub fn down_devices(&self) -> impl Iterator<Item = &DeviceName> {
        self.down_devices.iter()
    }

    /// Links currently marked down.
    pub fn down_links(&self) -> impl Iterator<Item = &LinkName> {
        self.down_links.iter()
    }

    /// Number of down devices plus down links (cheap change signal for
    /// caches).
    pub fn outage_count(&self) -> usize {
        self.down_devices.len() + self.down_links.len()
    }
}

/// Breadth-first search over usable links. Returns the set of nodes
/// reachable from `start` (including `start` itself, if its device is up —
/// a down start node reaches nothing).
pub fn reachable_from(graph: &NetworkGraph, health: &HealthView, start: NodeId) -> HashSet<NodeId> {
    let mut seen = HashSet::new();
    if !health.device_up(&graph.node(start).name) {
        return seen;
    }
    let mut queue = std::collections::VecDeque::new();
    seen.insert(start);
    queue.push_back(start);
    while let Some(u) = queue.pop_front() {
        for &(e, v) in graph.neighbors(u) {
            if seen.contains(&v) {
                continue;
            }
            let link = &graph.edge(e).name;
            if health.link_usable(link) {
                seen.insert(v);
                queue.push_back(v);
            }
        }
    }
    seen
}

/// True if `a` can reach `b` over usable links.
pub fn connected(graph: &NetworkGraph, health: &HealthView, a: NodeId, b: NodeId) -> bool {
    if a == b {
        return health.device_up(&graph.node(a).name);
    }
    reachable_from(graph, health, a).contains(&b)
}

/// Connected components over usable links, excluding down devices.
/// Components are returned sorted by their smallest node id.
pub fn components(graph: &NetworkGraph, health: &HealthView) -> Vec<Vec<NodeId>> {
    let mut assigned: HashSet<NodeId> = HashSet::new();
    let mut out = Vec::new();
    for (id, info) in graph.nodes() {
        if assigned.contains(&id) || !health.device_up(&info.name) {
            continue;
        }
        let comp = reachable_from(graph, health, id);
        let mut comp: Vec<NodeId> = comp.into_iter().collect();
        comp.sort_unstable();
        assigned.extend(comp.iter().copied());
        out.push(comp);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> NetworkGraph {
        // Fig 1's diamond: A - {B, C} - D
        let mut g = NetworkGraph::new();
        for n in ["sw-a", "sw-b", "sw-c", "sw-d"] {
            g.add_device(n, DeviceRole::Core, "dc1", None);
        }
        for (x, y) in [
            ("sw-a", "sw-b"),
            ("sw-a", "sw-c"),
            ("sw-b", "sw-d"),
            ("sw-c", "sw-d"),
        ] {
            g.add_link(&DeviceName::new(x), &DeviceName::new(y), 10_000.0, "dc1");
        }
        g
    }

    #[test]
    fn build_and_lookup() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        let a = g.node_id(&DeviceName::new("sw-a")).unwrap();
        assert_eq!(g.degree(a), 2);
        let l = LinkName::between("sw-a", "sw-b");
        assert!(g.edge_id(&l).is_some());
        assert_eq!(g.links_of_device(&DeviceName::new("sw-d")).len(), 2);
    }

    #[test]
    fn pod_index_answers_like_a_scan() {
        // Pods interleaved across two DCs, plus pod-less devices.
        let mut g = NetworkGraph::new();
        for i in 0..40u32 {
            let dc = if i % 3 == 0 { "dc2" } else { "dc1" };
            let pod = (i % 7 != 0).then_some(i % 5);
            g.add_device(format!("sw-{i}"), DeviceRole::Agg, dc, pod);
        }
        use serde::{Deserialize, Serialize};
        let round_tripped = NetworkGraph::from_content(&g.to_content()).unwrap();
        for g in [&g, &g.clone(), &round_tripped] {
            for dc in ["dc1", "dc2", "dc3"].map(DatacenterId::new) {
                let mut pods: Vec<u32> = (g.nodes())
                    .filter(|(_, n)| n.datacenter == dc)
                    .filter_map(|(_, n)| n.pod)
                    .collect();
                pods.sort_unstable();
                pods.dedup();
                assert_eq!(g.pods_in(&dc), pods);
                for pod in 0..6 {
                    let scan: Vec<NodeId> = (g.nodes())
                        .filter(|(_, n)| n.datacenter == dc && n.pod == Some(pod))
                        .map(|(id, _)| id)
                        .collect();
                    assert_eq!(g.devices_in_pod(&dc, pod), scan, "{dc} pod {pod}");
                }
            }
            let listed: usize = g.pods().map(|(_, _, members)| members.len()).sum();
            assert_eq!(listed, g.nodes().filter(|(_, n)| n.pod.is_some()).count());
        }
    }

    #[test]
    #[should_panic(expected = "duplicate device")]
    fn duplicate_device_panics() {
        let mut g = diamond();
        g.add_device("sw-a", DeviceRole::Core, "dc1", None);
    }

    #[test]
    fn reachability_all_up() {
        let g = diamond();
        let h = HealthView::all_up();
        let a = g.node_id(&DeviceName::new("sw-a")).unwrap();
        let d = g.node_id(&DeviceName::new("sw-d")).unwrap();
        assert!(connected(&g, &h, a, d));
        assert_eq!(reachable_from(&g, &h, a).len(), 4);
    }

    #[test]
    fn single_middle_failure_keeps_connectivity() {
        let g = diamond();
        let mut h = HealthView::all_up();
        h.set_device_down(DeviceName::new("sw-b"));
        let a = g.node_id(&DeviceName::new("sw-a")).unwrap();
        let d = g.node_id(&DeviceName::new("sw-d")).unwrap();
        assert!(connected(&g, &h, a, d)); // via sw-c
    }

    #[test]
    fn double_middle_failure_disconnects() {
        // The Fig-2 disaster: both aggregation points down.
        let g = diamond();
        let mut h = HealthView::all_up();
        h.set_device_down(DeviceName::new("sw-b"));
        h.set_device_down(DeviceName::new("sw-c"));
        let a = g.node_id(&DeviceName::new("sw-a")).unwrap();
        let d = g.node_id(&DeviceName::new("sw-d")).unwrap();
        assert!(!connected(&g, &h, a, d));
        let comps = components(&g, &h);
        assert_eq!(comps.len(), 2); // {a} and {d}; b,c excluded as down
    }

    #[test]
    fn link_down_vs_device_down() {
        let _g = diamond();
        let mut h = HealthView::all_up();
        let l = LinkName::between("sw-a", "sw-b");
        h.set_link_down(l.clone());
        assert!(!h.link_usable(&l));
        assert!(h.device_up(&DeviceName::new("sw-a")));
        // restore
        h.set_link_up(&l);
        assert!(h.link_usable(&l));
    }

    #[test]
    fn down_start_reaches_nothing() {
        let g = diamond();
        let mut h = HealthView::all_up();
        h.set_device_down(DeviceName::new("sw-a"));
        let a = g.node_id(&DeviceName::new("sw-a")).unwrap();
        assert!(reachable_from(&g, &h, a).is_empty());
        assert!(!connected(&g, &h, a, a));
    }

    #[test]
    fn outage_count_tracks_changes() {
        let mut h = HealthView::all_up();
        assert_eq!(h.outage_count(), 0);
        h.set_device_down(DeviceName::new("x"));
        h.set_link_down(LinkName::between("a", "b"));
        assert_eq!(h.outage_count(), 2);
        h.set_device_up(&DeviceName::new("x"));
        assert_eq!(h.outage_count(), 1);
    }
}
