//! Dinic max-flow over a [`NetworkGraph`] under a [`HealthView`].
//!
//! The capacity invariant of §7.2 ("99% of the ToR pairs in the DC should
//! have at least 50% of their baseline capacity") needs the achievable
//! bandwidth between ToR pairs. We compute it as max-flow on the usable
//! subgraph: each undirected physical link contributes capacity in both
//! directions (full-duplex), and a link is usable only if it and both its
//! endpoint devices are up.
//!
//! There is one kernel, `FlowNet`: a reusable workspace whose caller
//! names the scope by the edges it adds. Whole-graph [`max_flow`] adds
//! every usable edge; the capacity panel (`crate::capacity`) adds the
//! edges of two pods and the pod-less tier from its scope index, so a
//! solve's *work* — not only the arcs it keeps — is a few hundred edges
//! whatever the fabric's size. Dinic's augmentations depend only on the
//! order of each node's arcs, never on node numbering, so two scopes that
//! add the same edges in the same order return the same bits.
//!
//! Dinic's algorithm is O(V²E) in general but effectively linear on the
//! shallow, high-multiplicity fabrics we evaluate; the Fig-7 fabric solves
//! in microseconds.

use crate::graph::{EdgeId, HealthView, NetworkGraph, NodeId};

const NIL: u32 = u32::MAX;

/// A residual arc. Arcs are pushed in pairs, so the reverse of arc `i`
/// is arc `i ^ 1`; `next` chains a node's arcs in insertion order.
#[derive(Debug, Clone, Copy)]
struct Arc {
    to: u32,
    next: u32,
    cap: f64,
}

/// A [`HealthView`] resolved once against a graph into a per-edge
/// "unusable" bitset: a link is unusable if it is down or either endpoint
/// is. Costs O(outages × degree) name lookups; after that a solve tests
/// one bit per edge instead of hashing three names, and two views of one
/// graph differ exactly on the edges [`EdgeMask::flips`] names.
#[derive(Debug, Clone)]
pub(crate) struct EdgeMask {
    unusable: Vec<u64>,
}

impl EdgeMask {
    pub(crate) fn resolve(graph: &NetworkGraph, health: &HealthView) -> EdgeMask {
        let mut unusable = vec![0u64; graph.edge_count().div_ceil(64)];
        let mut mark = |e: EdgeId| unusable[e.0 as usize / 64] |= 1 << (e.0 % 64);
        for device in health.down_devices() {
            if let Some(id) = graph.node_id(device) {
                graph.neighbors(id).iter().for_each(|&(e, _)| mark(e));
            }
        }
        for link in health.down_links() {
            if let Some(e) = graph.edge_id(link) {
                mark(e);
            }
        }
        EdgeMask { unusable }
    }

    pub(crate) fn usable(&self, edge: u32) -> bool {
        self.unusable[edge as usize / 64] & (1 << (edge % 64)) == 0
    }

    /// The edges usable under exactly one of `self` and `other` (both
    /// resolved against the same graph), ascending.
    pub(crate) fn flips<'a>(&'a self, other: &'a EdgeMask) -> impl Iterator<Item = u32> + 'a {
        debug_assert_eq!(self.unusable.len(), other.unusable.len());
        let words = self.unusable.iter().zip(&other.unusable);
        words.enumerate().flat_map(|(w, (a, b))| {
            let mut diff = a ^ b;
            std::iter::from_fn(move || {
                let bit = (diff != 0).then(|| diff.trailing_zeros())?;
                diff &= diff - 1;
                Some(w as u32 * 64 + bit)
            })
        })
    }
}

/// A reusable Dinic workspace: flat arc storage and per-node arrays that
/// keep their allocations from one solve to the next.
#[derive(Debug, Default)]
pub(crate) struct FlowNet {
    arcs: Vec<Arc>,
    /// Per node: first and last arc of its chain.
    first: Vec<u32>,
    last: Vec<u32>,
    level: Vec<i32>,
    /// Per node: the DFS's current arc in this phase.
    cur: Vec<u32>,
    queue: Vec<u32>,
}

impl FlowNet {
    /// Start a new network over nodes `0..nodes` with no arcs.
    pub(crate) fn reset(&mut self, nodes: usize) {
        self.arcs.clear();
        for per_node in [&mut self.first, &mut self.last, &mut self.cur] {
            per_node.clear();
            per_node.resize(nodes, NIL);
        }
        self.level.resize(nodes, -1);
    }

    fn add_arc(&mut self, u: u32, v: u32, cap: f64) {
        let a = self.arcs.len() as u32;
        self.arcs.push(Arc {
            to: v,
            next: NIL,
            cap,
        });
        match self.last[u as usize] {
            NIL => self.first[u as usize] = a,
            tail => self.arcs[tail as usize].next = a,
        }
        self.last[u as usize] = a;
    }

    /// Add an undirected (full-duplex) edge: capacity `cap` each way,
    /// each direction with its own zero-capacity reverse arc. Scopes must
    /// add their edges in ascending [`EdgeId`] order: that fixes every
    /// node's arc order, and with it the augmentations and the result's
    /// bits.
    pub(crate) fn add_undirected(&mut self, u: u32, v: u32, cap: f64) {
        self.add_arc(u, v, cap);
        self.add_arc(v, u, 0.0);
        self.add_arc(v, u, cap);
        self.add_arc(u, v, 0.0);
    }

    fn bfs(&mut self, s: u32, t: u32) -> bool {
        self.level.fill(-1);
        self.queue.clear();
        self.level[s as usize] = 0;
        self.queue.push(s);
        let mut head = 0;
        while let Some(&u) = self.queue.get(head) {
            head += 1;
            let mut ai = self.first[u as usize];
            while ai != NIL {
                let a = self.arcs[ai as usize];
                if a.cap > 1e-9 && self.level[a.to as usize] < 0 {
                    self.level[a.to as usize] = self.level[u as usize] + 1;
                    self.queue.push(a.to);
                }
                ai = a.next;
            }
        }
        self.level[t as usize] >= 0
    }

    fn dfs(&mut self, u: u32, t: u32, f: f64) -> f64 {
        if u == t {
            return f;
        }
        while self.cur[u as usize] != NIL {
            let ai = self.cur[u as usize] as usize;
            let Arc { to, cap, next } = self.arcs[ai];
            if cap > 1e-9 && self.level[to as usize] == self.level[u as usize] + 1 {
                let d = self.dfs(to, t, f.min(cap));
                if d > 1e-9 {
                    self.arcs[ai].cap -= d;
                    self.arcs[ai ^ 1].cap += d;
                    return d;
                }
            }
            self.cur[u as usize] = next;
        }
        0.0
    }

    /// Max-flow from `s` to `t` over the arcs added since `reset`.
    pub(crate) fn max_flow(&mut self, s: u32, t: u32) -> f64 {
        let mut flow = 0.0;
        while self.bfs(s, t) {
            self.cur.copy_from_slice(&self.first);
            loop {
                let f = self.dfs(s, t, f64::INFINITY);
                if f <= 1e-9 {
                    break;
                }
                flow += f;
            }
        }
        flow
    }

    /// Whole-graph scope: every usable edge, on the graph's own node ids.
    pub(crate) fn max_flow_whole(
        &mut self,
        graph: &NetworkGraph,
        usable: &EdgeMask,
        s: NodeId,
        t: NodeId,
    ) -> f64 {
        self.reset(graph.node_count());
        for (id, e) in graph.edges() {
            if usable.usable(id.0) {
                self.add_undirected(e.a.0, e.b.0, e.capacity_mbps);
            }
        }
        self.max_flow(s.0, t.0)
    }
}

/// Maximum achievable bandwidth (Mbps) between two devices over usable
/// links. Returns `0.0` if either endpoint device is down or no usable
/// path exists.
pub fn max_flow(graph: &NetworkGraph, health: &HealthView, s: NodeId, t: NodeId) -> f64 {
    if s == t {
        return f64::INFINITY;
    }
    if !health.device_up(&graph.node(s).name) || !health.device_up(&graph.node(t).name) {
        return 0.0;
    }
    let usable = EdgeMask::resolve(graph, health);
    FlowNet::default().max_flow_whole(graph, &usable, s, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DcnSpec;
    use statesman_types::{DeviceName, LinkName};

    fn fig7() -> NetworkGraph {
        DcnSpec::fig7("dc1").build()
    }

    fn node(g: &NetworkGraph, name: &str) -> NodeId {
        g.node_id(&DeviceName::new(name)).unwrap()
    }

    #[test]
    fn baseline_tor_pair_capacity_is_4x_uplink() {
        let g = fig7();
        let h = HealthView::all_up();
        // ToR has 4 x 10G uplinks; cross-pod flow is bounded by them.
        let f = max_flow(&g, &h, node(&g, "tor-1-1"), node(&g, "tor-2-1"));
        assert!((f - 40_000.0).abs() < 1.0, "got {f}");
    }

    #[test]
    fn one_agg_down_gives_75_percent() {
        let g = fig7();
        let mut h = HealthView::all_up();
        h.set_device_down(DeviceName::new("agg-1-1"));
        let f = max_flow(&g, &h, node(&g, "tor-1-1"), node(&g, "tor-2-1"));
        assert!((f - 30_000.0).abs() < 1.0, "got {f}");
    }

    #[test]
    fn two_aggs_down_gives_50_percent() {
        let g = fig7();
        let mut h = HealthView::all_up();
        h.set_device_down(DeviceName::new("agg-1-1"));
        h.set_device_down(DeviceName::new("agg-1-2"));
        let f = max_flow(&g, &h, node(&g, "tor-1-1"), node(&g, "tor-2-1"));
        assert!((f - 20_000.0).abs() < 1.0, "got {f}");
    }

    #[test]
    fn link_down_and_its_agg_down_overlap() {
        // The §7.2 subtlety at box E: if link ToR1-Agg1 is already down,
        // taking Agg1 down does NOT further reduce ToR1's capacity.
        let g = fig7();
        let mut h = HealthView::all_up();
        h.set_link_down(LinkName::between("tor-4-1", "agg-4-1"));
        let before = max_flow(&g, &h, node(&g, "tor-4-1"), node(&g, "tor-5-1"));
        assert!((before - 30_000.0).abs() < 1.0, "got {before}");
        h.set_device_down(DeviceName::new("agg-4-1"));
        let after = max_flow(&g, &h, node(&g, "tor-4-1"), node(&g, "tor-5-1"));
        assert!((after - before).abs() < 1.0, "got {after} vs {before}");
    }

    #[test]
    fn intra_pod_flow_unaffected_by_other_pods() {
        let g = fig7();
        let mut h = HealthView::all_up();
        for a in 1..=4 {
            h.set_device_down(DeviceName::new(format!("agg-9-{a}")));
        }
        let f = max_flow(&g, &h, node(&g, "tor-1-1"), node(&g, "tor-1-2"));
        assert!((f - 40_000.0).abs() < 1.0, "got {f}");
    }

    #[test]
    fn down_endpoint_means_zero() {
        let g = fig7();
        let mut h = HealthView::all_up();
        h.set_device_down(DeviceName::new("tor-1-1"));
        let f = max_flow(&g, &h, node(&g, "tor-1-1"), node(&g, "tor-2-1"));
        assert_eq!(f, 0.0);
    }

    #[test]
    fn all_aggs_down_disconnects_pod() {
        let g = fig7();
        let mut h = HealthView::all_up();
        for a in 1..=4 {
            h.set_device_down(DeviceName::new(format!("agg-1-{a}")));
        }
        let f = max_flow(&g, &h, node(&g, "tor-1-1"), node(&g, "tor-2-1"));
        assert_eq!(f, 0.0);
    }

    #[test]
    fn self_flow_is_infinite() {
        let g = fig7();
        let h = HealthView::all_up();
        assert!(max_flow(&g, &h, node(&g, "tor-1-1"), node(&g, "tor-1-1")).is_infinite());
    }
}
