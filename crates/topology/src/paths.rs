//! Path enumeration: shortest path and Yen's k-shortest (loopless) paths.
//!
//! The inter-DC TE application allocates traffic "along different WAN
//! paths" (§7.3). It needs a small set of candidate paths per DC pair;
//! we provide Yen's algorithm over hop count with deterministic
//! tie-breaking (lexicographic by node id sequence) so TE runs are
//! reproducible.

use crate::graph::{HealthView, NetworkGraph, NodeId};
use std::collections::{BinaryHeap, HashSet, VecDeque};

/// A loopless path as a node sequence (first = source, last = sink).
pub type NodePath = Vec<NodeId>;

/// Shortest path by hop count over usable links, with deterministic
/// tie-breaking (prefer lexicographically smaller node sequences).
/// Returns `None` if unreachable or an endpoint device is down.
pub fn shortest_path(
    graph: &NetworkGraph,
    health: &HealthView,
    s: NodeId,
    t: NodeId,
) -> Option<NodePath> {
    shortest_path_avoiding(graph, health, s, t, &HashSet::new(), &HashSet::new())
}

/// Shortest path that must not use any node in `banned_nodes` nor any
/// (undirected) edge in `banned_edges` (edges keyed as ordered node
/// pairs with the smaller id first). Used as the spur computation of
/// Yen's algorithm.
fn shortest_path_avoiding(
    graph: &NetworkGraph,
    health: &HealthView,
    s: NodeId,
    t: NodeId,
    banned_nodes: &HashSet<NodeId>,
    banned_edges: &HashSet<(NodeId, NodeId)>,
) -> Option<NodePath> {
    if banned_nodes.contains(&s) || banned_nodes.contains(&t) {
        return None;
    }
    if !health.device_up(&graph.node(s).name) || !health.device_up(&graph.node(t).name) {
        return None;
    }
    if s == t {
        return Some(vec![s]);
    }
    // BFS with parent tracking; neighbor order is sorted for determinism.
    let mut parent: Vec<Option<NodeId>> = vec![None; graph.node_count()];
    let mut seen = vec![false; graph.node_count()];
    seen[s.0 as usize] = true;
    let mut q = VecDeque::new();
    q.push_back(s);
    while let Some(u) = q.pop_front() {
        let mut nexts: Vec<NodeId> = Vec::new();
        for &(e, v) in graph.neighbors(u) {
            let key = edge_key(u, v);
            if banned_edges.contains(&key) || banned_nodes.contains(&v) {
                continue;
            }
            if !health.link_usable(&graph.edge(e).name) {
                continue;
            }
            if !seen[v.0 as usize] {
                nexts.push(v);
            }
        }
        nexts.sort_unstable();
        for v in nexts {
            if seen[v.0 as usize] {
                continue;
            }
            seen[v.0 as usize] = true;
            parent[v.0 as usize] = Some(u);
            if v == t {
                // reconstruct
                let mut path = vec![t];
                let mut cur = t;
                while let Some(p) = parent[cur.0 as usize] {
                    path.push(p);
                    cur = p;
                }
                path.reverse();
                return Some(path);
            }
            q.push_back(v);
        }
    }
    None
}

fn edge_key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Candidate path ordered by (length, node sequence) for the Yen
/// candidate heap (BinaryHeap is a max-heap, so we invert the ordering).
#[derive(PartialEq, Eq)]
struct Candidate(NodePath);

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // shorter first, then lexicographically smaller first => reverse
        // for max-heap.
        other
            .0
            .len()
            .cmp(&self.0.len())
            .then_with(|| other.0.cmp(&self.0))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Yen's k-shortest loopless paths by hop count. Returns at most `k`
/// paths, shortest first; deterministic given the graph.
pub fn k_shortest_paths(
    graph: &NetworkGraph,
    health: &HealthView,
    s: NodeId,
    t: NodeId,
    k: usize,
) -> Vec<NodePath> {
    let mut result: Vec<NodePath> = Vec::new();
    if k == 0 {
        return result;
    }
    let first = match shortest_path(graph, health, s, t) {
        Some(p) => p,
        None => return result,
    };
    result.push(first);
    let mut candidates: BinaryHeap<Candidate> = BinaryHeap::new();
    let mut seen_candidates: HashSet<NodePath> = HashSet::new();

    while result.len() < k {
        let prev = result.last().unwrap().clone();
        // Spur from every node of the previous path except the sink.
        for i in 0..prev.len() - 1 {
            let spur_node = prev[i];
            let root = &prev[..=i];
            let mut banned_edges: HashSet<(NodeId, NodeId)> = HashSet::new();
            for p in &result {
                if p.len() > i + 1 && p[..=i] == *root {
                    banned_edges.insert(edge_key(p[i], p[i + 1]));
                }
            }
            // Ban root nodes (except the spur node) to keep paths loopless.
            let banned_nodes: HashSet<NodeId> = root[..i].iter().copied().collect();
            if let Some(spur) =
                shortest_path_avoiding(graph, health, spur_node, t, &banned_nodes, &banned_edges)
            {
                let mut total = root[..i].to_vec();
                total.extend(spur);
                if seen_candidates.insert(total.clone()) {
                    candidates.push(Candidate(total));
                }
            }
        }
        match candidates.pop() {
            Some(Candidate(p)) => {
                if !result.contains(&p) {
                    result.push(p);
                }
            }
            None => break,
        }
    }
    result
}

/// The links along a node path, as canonical link names.
pub fn path_links(graph: &NetworkGraph, path: &[NodeId]) -> Vec<statesman_types::LinkName> {
    path.windows(2)
        .map(|w| {
            statesman_types::LinkName::between(
                graph.node(w[0]).name.clone(),
                graph.node(w[1]).name.clone(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::WanSpec;
    use statesman_types::{DeviceName, LinkName};

    fn wan() -> NetworkGraph {
        WanSpec::fig9().build()
    }

    fn node(g: &NetworkGraph, n: &str) -> NodeId {
        g.node_id(&DeviceName::new(n)).unwrap()
    }

    #[test]
    fn direct_path_is_shortest() {
        let g = wan();
        let h = HealthView::all_up();
        // br-1 (dc1 plane 0) and br-3 (dc2 plane 0) share a direct link.
        let p = shortest_path(&g, &h, node(&g, "br-1"), node(&g, "br-3")).unwrap();
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn planes_are_disjoint_in_standalone_wan() {
        // The Fig-9 mesh pairs same-plane border routers; the two planes
        // only interconnect through the DC fabrics (DeploymentSpec), so in
        // the standalone WAN br-1 (plane 0) cannot reach br-4 (plane 1).
        let g = wan();
        let h = HealthView::all_up();
        assert!(shortest_path(&g, &h, node(&g, "br-1"), node(&g, "br-4")).is_none());
        // Same-plane detour: br-1 to br-3 avoiding the direct link goes
        // through another plane-0 router (3 nodes).
        let ps = k_shortest_paths(&g, &h, node(&g, "br-1"), node(&g, "br-3"), 3);
        assert_eq!(ps[0].len(), 2);
        assert!(ps[1].len() == 3);
    }

    #[test]
    fn k_shortest_returns_increasing_lengths() {
        let g = wan();
        let h = HealthView::all_up();
        let ps = k_shortest_paths(&g, &h, node(&g, "br-1"), node(&g, "br-3"), 4);
        assert!(!ps.is_empty());
        for w in ps.windows(2) {
            assert!(w[0].len() <= w[1].len());
        }
        // All paths are loopless and distinct.
        for p in &ps {
            let set: HashSet<_> = p.iter().collect();
            assert_eq!(set.len(), p.len(), "loop in {p:?}");
        }
        let set: HashSet<_> = ps.iter().collect();
        assert_eq!(set.len(), ps.len());
    }

    #[test]
    fn k_shortest_respects_health() {
        let g = wan();
        let mut h = HealthView::all_up();
        h.set_link_down(LinkName::between("br-1", "br-3"));
        let ps = k_shortest_paths(&g, &h, node(&g, "br-1"), node(&g, "br-3"), 3);
        assert!(!ps.is_empty());
        assert!(ps[0].len() >= 3, "direct link is down; got {:?}", ps[0]);
    }

    #[test]
    fn unreachable_returns_empty() {
        let g = wan();
        let mut h = HealthView::all_up();
        // Cut br-8 off entirely.
        for l in g.links_of_device(&DeviceName::new("br-8")) {
            h.set_link_down(l);
        }
        assert!(shortest_path(&g, &h, node(&g, "br-1"), node(&g, "br-8")).is_none());
        assert!(k_shortest_paths(&g, &h, node(&g, "br-1"), node(&g, "br-8"), 3).is_empty());
    }

    #[test]
    fn path_links_and_bottleneck() {
        let g = wan();
        let h = HealthView::all_up();
        let p = shortest_path(&g, &h, node(&g, "br-1"), node(&g, "br-3")).unwrap();
        let links = path_links(&g, &p);
        assert_eq!(links.len(), 1);
    }

    #[test]
    fn determinism() {
        let g = wan();
        let h = HealthView::all_up();
        let a = k_shortest_paths(&g, &h, node(&g, "br-1"), node(&g, "br-7"), 5);
        let b = k_shortest_paths(&g, &h, node(&g, "br-1"), node(&g, "br-7"), 5);
        assert_eq!(a, b);
    }

    #[test]
    fn self_path() {
        let g = wan();
        let h = HealthView::all_up();
        let p = shortest_path(&g, &h, node(&g, "br-1"), node(&g, "br-1")).unwrap();
        assert_eq!(p, vec![node(&g, "br-1")]);
    }
}
