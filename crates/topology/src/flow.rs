//! Dinic max-flow over a [`NetworkGraph`] under a [`HealthView`].
//!
//! The capacity invariant of §7.2 ("99% of the ToR pairs in the DC should
//! have at least 50% of their baseline capacity") needs the achievable
//! bandwidth between ToR pairs. We compute it as max-flow on the usable
//! subgraph: each undirected physical link contributes capacity in both
//! directions (full-duplex), and a link is usable only if it and both its
//! endpoint devices are up.
//!
//! Dinic's algorithm is O(V²E) in general but effectively linear on the
//! shallow, high-multiplicity fabrics we evaluate; the Fig-7 fabric solves
//! in microseconds.

use crate::graph::{HealthView, NetworkGraph, NodeId};

/// Internal residual-graph arc.
#[derive(Debug, Clone)]
struct Arc {
    to: u32,
    cap: f64,
    /// index of the reverse arc in `arcs`
    rev: u32,
}

/// A reusable Dinic solver instance over a fixed usable subgraph.
struct Dinic {
    arcs: Vec<Arc>,
    head: Vec<Vec<u32>>, // per-node arc indices
    level: Vec<i32>,
    iter: Vec<usize>,
}

impl Dinic {
    fn new(n: usize) -> Self {
        Dinic {
            arcs: Vec::new(),
            head: vec![Vec::new(); n],
            level: vec![-1; n],
            iter: vec![0; n],
        }
    }

    fn add_edge(&mut self, u: u32, v: u32, cap: f64) {
        let a = self.arcs.len() as u32;
        self.arcs.push(Arc {
            to: v,
            cap,
            rev: a + 1,
        });
        self.arcs.push(Arc {
            to: u,
            cap: 0.0,
            rev: a,
        });
        self.head[u as usize].push(a);
        self.head[v as usize].push(a + 1);
    }

    /// Add an undirected (full-duplex) edge: capacity `cap` each way.
    fn add_undirected(&mut self, u: u32, v: u32, cap: f64) {
        self.add_edge(u, v, cap);
        self.add_edge(v, u, cap);
    }

    fn bfs(&mut self, s: u32, t: u32) -> bool {
        self.level.iter_mut().for_each(|l| *l = -1);
        let mut q = std::collections::VecDeque::new();
        self.level[s as usize] = 0;
        q.push_back(s);
        while let Some(u) = q.pop_front() {
            for &ai in &self.head[u as usize] {
                let a = &self.arcs[ai as usize];
                if a.cap > 1e-9 && self.level[a.to as usize] < 0 {
                    self.level[a.to as usize] = self.level[u as usize] + 1;
                    q.push_back(a.to);
                }
            }
        }
        self.level[t as usize] >= 0
    }

    fn dfs(&mut self, u: u32, t: u32, f: f64) -> f64 {
        if u == t {
            return f;
        }
        while self.iter[u as usize] < self.head[u as usize].len() {
            let ai = self.head[u as usize][self.iter[u as usize]] as usize;
            let (to, cap) = (self.arcs[ai].to, self.arcs[ai].cap);
            if cap > 1e-9 && self.level[to as usize] == self.level[u as usize] + 1 {
                let d = self.dfs(to, t, f.min(cap));
                if d > 1e-9 {
                    let rev = self.arcs[ai].rev as usize;
                    self.arcs[ai].cap -= d;
                    self.arcs[rev].cap += d;
                    return d;
                }
            }
            self.iter[u as usize] += 1;
        }
        0.0
    }

    fn max_flow(&mut self, s: u32, t: u32) -> f64 {
        let mut flow = 0.0;
        while self.bfs(s, t) {
            self.iter.iter_mut().for_each(|i| *i = 0);
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
}

/// Maximum achievable bandwidth (Mbps) between two devices over usable
/// links. Returns `0.0` if either endpoint device is down or no usable
/// path exists.
pub fn max_flow(graph: &NetworkGraph, health: &HealthView, s: NodeId, t: NodeId) -> f64 {
    max_flow_scoped(graph, health, s, t, |_| true)
}

/// Max-flow restricted to nodes for which `allowed` returns true (both
/// endpoints must be allowed). Used by the capacity evaluator to solve
/// ToR-pair flows on the relevant pods + shared tiers only — on a
/// pod-layered fabric that shrinks each solve from the whole-fabric edge
/// set to a few hundred edges.
pub fn max_flow_scoped(
    graph: &NetworkGraph,
    health: &HealthView,
    s: NodeId,
    t: NodeId,
    allowed: impl Fn(NodeId) -> bool,
) -> f64 {
    if s == t {
        return f64::INFINITY;
    }
    if !health.device_up(&graph.node(s).name) || !health.device_up(&graph.node(t).name) {
        return 0.0;
    }
    let mut d = Dinic::new(graph.node_count());
    for (_, e) in graph.edges() {
        if allowed(e.a) && allowed(e.b) && health.link_usable(&e.name) {
            d.add_undirected(e.a.0, e.b.0, e.capacity_mbps);
        }
    }
    d.max_flow(s.0, t.0)
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
