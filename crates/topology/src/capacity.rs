//! ToR-pair capacity evaluation (the §7.2 invariant's workhorse).
//!
//! The capacity invariant is phrased over *directional ToR pairs*: "99% of
//! the ToR pairs in the DC should have at least 50% of their baseline
//! capacity". Baseline is the pair's max-flow with everything healthy;
//! current capacity is the max-flow under a [`HealthView`]. Figure 8 plots
//! exactly this quantity for 90 pairs over time.
//!
//! On a pod-layered fabric a pair's solve costs its two pods, not the
//! fabric: a [`CapacityPanel`] owns a scope index — each pod's edges, the
//! pod-less tier's edges, a compact node numbering, and per pod the panel
//! pairs with an endpoint in it — an evaluation resolves its health view
//! once into an edge mask, and each solve loads `pod(s) ∪ pod(t) ∪ tier`
//! into a flow workspace reused across the evaluation. Edges are loaded in
//! ascending [`crate::EdgeId`] order, the order a whole-graph solve
//! restricted to those nodes would use, so the result is the same to the
//! bit. A fabric with a cross-pod link, or a pair with a pod-less
//! endpoint, is solved on the whole graph by the same kernel.
//!
//! A pair's flow is therefore a pure function of its scope's usable bits,
//! and a panel keeps a report current by diffing health, not by trusting
//! a caller to say what changed: [`CapacityPanel::sync`] XORs the new
//! view's edge mask against the one the report was solved under and
//! re-solves exactly the pairs whose scope holds a flipped edge. A flip
//! in pod P re-solves the pairs with an endpoint in P; a flip in the tier,
//! or anywhere on a non-layered fabric, re-solves every pair; pairs solved
//! on the whole graph re-solve on any flip; no flip, no solve. The result
//! is bit-identical to a full evaluation of the same view.

use crate::flow::{EdgeMask, FlowNet};
use crate::graph::{HealthView, NetworkGraph, NodeId};
use statesman_types::{DatacenterId, DeviceRole, WorkerPool};
use std::sync::atomic::{AtomicU64, Ordering};

/// Capacity of one directional ToR pair.
#[derive(Debug, Clone, PartialEq)]
pub struct TorPairCapacity {
    /// Source ToR.
    pub src: NodeId,
    /// Destination ToR.
    pub dst: NodeId,
    /// Baseline max-flow, Mbps (all-up).
    pub baseline_mbps: f64,
    /// Current max-flow, Mbps (under the evaluated health view).
    pub current_mbps: f64,
}

impl TorPairCapacity {
    /// Current capacity as a fraction of baseline in `[0, 1]`; a pair with
    /// zero baseline reports `1.0` (vacuously unimpaired).
    pub fn fraction(&self) -> f64 {
        if self.baseline_mbps <= 0.0 {
            1.0
        } else {
            (self.current_mbps / self.baseline_mbps).clamp(0.0, 1.0)
        }
    }
}

/// Capacity evaluation over a set of ToR pairs.
#[derive(Debug, Clone)]
pub struct CapacityReport {
    /// Per-pair results, in pair order.
    pub pairs: Vec<TorPairCapacity>,
}

impl CapacityReport {
    /// Fraction of pairs at or above `threshold` of baseline.
    pub fn fraction_meeting(&self, threshold: f64) -> f64 {
        if self.pairs.is_empty() {
            return 1.0;
        }
        let ok = self
            .pairs
            .iter()
            .filter(|p| p.fraction() + 1e-9 >= threshold)
            .count();
        ok as f64 / self.pairs.len() as f64
    }

    /// The worst pair's fraction (1.0 if no pairs).
    pub fn worst_fraction(&self) -> f64 {
        self.pairs.iter().map(|p| p.fraction()).fold(1.0, f64::min)
    }

    /// Pairs below `threshold` of baseline.
    pub fn violating(&self, threshold: f64) -> Vec<&TorPairCapacity> {
        self.pairs
            .iter()
            .filter(|p| p.fraction() + 1e-9 < threshold)
            .collect()
    }
}

/// Select the evaluation pairs for a datacenter.
///
/// `sample_tors_per_pod` bounds work on big fabrics: the paper's Figure 8
/// picks **one ToR from each pod** and forms all directional pairs among
/// them (10 pods → 90 pairs). `None` means all ToRs.
pub fn select_tor_pairs(
    graph: &NetworkGraph,
    dc: &DatacenterId,
    sample_tors_per_pod: Option<u32>,
) -> Vec<(NodeId, NodeId)> {
    let per_pod = sample_tors_per_pod.map_or(usize::MAX, |k| k as usize);
    let tors: Vec<NodeId> = graph
        .pods()
        .filter(|(pod_dc, _, _)| *pod_dc == dc)
        .flat_map(|(_, _, members)| {
            let tors = members
                .iter()
                .filter(|&&id| graph.node(id).role == DeviceRole::ToR);
            tors.copied().take(per_pod)
        })
        .collect();
    let mut pairs = Vec::with_capacity(tors.len() * tors.len().saturating_sub(1));
    for &s in &tors {
        for &d in &tors {
            if s != d {
                pairs.push((s, d));
            }
        }
    }
    pairs
}

/// Downsample a pair list to at most `max_pairs` pairs with a seeded,
/// deterministic stride sample. Production-scale fabrics generate far
/// more directional ToR pairs than any checker can max-flow per pass
/// (407 pods → 165K pairs); sampling a fixed-size panel preserves the
/// invariant's statistical meaning ("99% of pairs") while bounding cost.
pub fn downsample_pairs(
    pairs: Vec<(NodeId, NodeId)>,
    max_pairs: usize,
    seed: u64,
) -> Vec<(NodeId, NodeId)> {
    if pairs.len() <= max_pairs || max_pairs == 0 {
        return pairs;
    }
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut sampled: Vec<(NodeId, NodeId)> = pairs
        .choose_multiple(&mut rng, max_pairs)
        .copied()
        .collect();
    sampled.sort_unstable();
    sampled
}

/// Evaluate baseline and current capacity for the given pairs.
///
/// Baselines are computed against an all-up view; callers that evaluate
/// repeatedly should build a [`CapacityPanel`] once.
pub fn evaluate(
    graph: &NetworkGraph,
    health: &HealthView,
    pairs: &[(NodeId, NodeId)],
) -> CapacityReport {
    evaluate_with_baselines(graph, health, pairs, &baselines_for(graph, pairs))
}

/// Baseline (all-up) max-flow per pair.
pub fn baselines_for(graph: &NetworkGraph, pairs: &[(NodeId, NodeId)]) -> Vec<f64> {
    ScopeIndex::build(graph)
        .solve_pairs(
            graph,
            &EdgeMask::resolve(graph, &HealthView::all_up()),
            pairs,
        )
        .0
}

/// Whether every edge either stays within one pod or touches a pod-less
/// node (core/border tier). On such fabrics, all paths between two ToRs
/// lie inside their two pods plus the pod-less tiers, so per-pair
/// max-flow can be solved on that subgraph alone.
pub fn is_pod_layered(graph: &NetworkGraph) -> bool {
    graph.edges().all(|(_, e)| {
        let a = graph.node(e.a);
        let b = graph.node(e.b);
        match (a.pod, b.pod) {
            (Some(pa), Some(pb)) => pa == pb && a.datacenter == b.datacenter,
            _ => true,
        }
    })
}

/// Evaluate current capacity given precomputed baselines.
pub fn evaluate_with_baselines(
    graph: &NetworkGraph,
    health: &HealthView,
    pairs: &[(NodeId, NodeId)],
    baselines: &[f64],
) -> CapacityReport {
    let usable = EdgeMask::resolve(graph, health);
    ScopeIndex::build(graph)
        .report(graph, &usable, pairs, baselines)
        .0
}

/// Solves at or above this many in one evaluation are cut into one chunk
/// per worker; fewer run inline. A scoped solve is a few microseconds and
/// a thread spawn is tens, so a flipped pod's ≈100 pairs are cheaper on
/// the caller's thread than split in two.
const FAN_OUT_MIN_SOLVES: usize = 256;

/// Marks, in a [`ScopeEdge`] endpoint, a pod-local node number (to be
/// offset by where the solve places that pod); unmarked endpoints are
/// tier-local and need no offset.
const IN_POD: u32 = 1 << 31;

/// `node_pod` value of a pod-less (tier) node.
const TIER: u32 = u32::MAX;

/// One edge of a scope list, endpoints already in compact numbering.
#[derive(Debug, Clone, Copy)]
struct ScopeEdge {
    id: u32,
    a: u32,
    b: u32,
    capacity_mbps: f64,
}

#[derive(Debug, Default)]
struct PodScope {
    nodes: u32,
    /// Intra-pod and pod↔tier edges, ascending by id.
    edges: Vec<ScopeEdge>,
}

/// What an evaluation did, counted beside the flows it returns.
#[derive(Debug, Default, Clone, Copy)]
struct Work {
    solves: u64,
    edges_visited: u64,
}

/// The graph cut along its pods, built once per panel: which edges a
/// pair's solve has to look at, and where each node sits in the solve's
/// compact numbering (tier nodes first, then `pod(s)`, then `pod(t)`).
#[derive(Debug)]
struct ScopeIndex {
    /// [`is_pod_layered`]; when false the lists below stay empty and
    /// every pair is solved on the whole graph.
    layered: bool,
    /// Per node: its pod's index in `pods`, or [`TIER`].
    node_pod: Vec<u32>,
    /// Per node: its number within its pod (or within the tier).
    node_local: Vec<u32>,
    tier_nodes: u32,
    /// Edges between two pod-less nodes, ascending by id.
    tier_edges: Vec<ScopeEdge>,
    pods: Vec<PodScope>,
    /// Per edge: the pod whose scope list holds it, or [`TIER`] — which is
    /// every edge of a non-layered graph, since any of them is in every
    /// pair's scope.
    edge_owner: Vec<u32>,
}

impl ScopeIndex {
    fn build(graph: &NetworkGraph) -> ScopeIndex {
        let mut index = ScopeIndex {
            layered: is_pod_layered(graph),
            node_pod: vec![TIER; graph.node_count()],
            node_local: vec![0; graph.node_count()],
            tier_nodes: 0,
            tier_edges: Vec::new(),
            pods: Vec::new(),
            edge_owner: vec![TIER; graph.edge_count()],
        };
        for (_, _, members) in graph.pods() {
            let p = index.pods.len() as u32;
            for (local, &n) in members.iter().enumerate() {
                index.node_pod[n.0 as usize] = p;
                index.node_local[n.0 as usize] = local as u32;
            }
            index.pods.push(PodScope {
                nodes: members.len() as u32,
                edges: Vec::new(),
            });
        }
        for (n, &pod) in index.node_pod.iter().enumerate() {
            if pod == TIER {
                index.node_local[n] = index.tier_nodes;
                index.tier_nodes += 1;
            }
        }
        if !index.layered {
            return index;
        }
        for (id, e) in graph.edges() {
            let (pa, pb) = (
                index.node_pod[e.a.0 as usize],
                index.node_pod[e.b.0 as usize],
            );
            let end = |n: NodeId, pod: u32| {
                index.node_local[n.0 as usize] | if pod == TIER { 0 } else { IN_POD }
            };
            let edge = ScopeEdge {
                id: id.0,
                a: end(e.a, pa),
                b: end(e.b, pb),
                capacity_mbps: e.capacity_mbps,
            };
            // Layered: the two ends share a pod, or at least one is tier.
            let owner = pa.min(pb);
            index.edge_owner[id.0 as usize] = owner;
            match owner {
                TIER => index.tier_edges.push(edge),
                pod => index.pods[pod as usize].edges.push(edge),
            }
        }
        index
    }

    /// One pair's max-flow under the resolved health view.
    fn pair_flow(
        &self,
        graph: &NetworkGraph,
        usable: &EdgeMask,
        net: &mut FlowNet,
        work: &mut Work,
        (s, t): (NodeId, NodeId),
    ) -> f64 {
        work.solves += 1;
        if s == t {
            return f64::INFINITY;
        }
        let (ps, pt) = (self.node_pod[s.0 as usize], self.node_pod[t.0 as usize]);
        if !self.layered || ps == TIER || pt == TIER {
            work.edges_visited += graph.edge_count() as u64;
            return net.max_flow_whole(graph, usable, s, t);
        }
        // Compact numbering: tier, then pod(s), then pod(t) if distinct.
        let src = &self.pods[ps as usize];
        let src_base = self.tier_nodes;
        let (dst_edges, dst_base, nodes) = if pt == ps {
            (&[][..], src_base, src_base + src.nodes)
        } else {
            let dst = &self.pods[pt as usize];
            let dst_base = src_base + src.nodes;
            (&dst.edges[..], dst_base, dst_base + dst.nodes)
        };
        net.reset(nodes as usize);
        // Merge the three id-sorted lists so arcs go in by ascending id,
        // a run at a time: builders number a pod's edges contiguously.
        let mut lists = [
            (&self.tier_edges[..], 0),
            (&src.edges[..], src_base),
            (dst_edges, dst_base),
        ];
        work.edges_visited += lists.iter().map(|(l, _)| l.len() as u64).sum::<u64>();
        loop {
            // The list with the lowest head, and the lowest head of the rest.
            let (mut lowest, mut low, mut limit) = (0, u32::MAX, u32::MAX);
            for (k, (list, _)) in lists.iter().enumerate() {
                match list.first() {
                    Some(e) if e.id < low => (lowest, low, limit) = (k, e.id, low),
                    Some(e) => limit = limit.min(e.id),
                    None => {}
                }
            }
            if low == u32::MAX {
                break;
            }
            let (list, base) = &mut lists[lowest];
            let at = |end: u32| match end & IN_POD {
                0 => end,
                _ => *base + (end & !IN_POD),
            };
            let (run, rest) = list.split_at(list.partition_point(|e| e.id < limit));
            for e in run.iter().filter(|e| usable.usable(e.id)) {
                net.add_undirected(at(e.a), at(e.b), e.capacity_mbps);
            }
            *list = rest;
        }
        net.max_flow(
            src_base + self.node_local[s.0 as usize],
            dst_base + self.node_local[t.0 as usize],
        )
    }

    /// Max-flow of each pair under `usable`, in pair order. Solves are
    /// pure, so cutting them into per-worker chunks (each with its own
    /// workspace) cannot show in the result.
    fn solve_pairs(
        &self,
        graph: &NetworkGraph,
        usable: &EdgeMask,
        pairs: &[(NodeId, NodeId)],
    ) -> (Vec<f64>, Work) {
        let solve_chunk = |chunk: &[(NodeId, NodeId)]| {
            let (mut net, mut work) = (FlowNet::default(), Work::default());
            let flows: Vec<f64> = chunk
                .iter()
                .map(|&pair| self.pair_flow(graph, usable, &mut net, &mut work, pair))
                .collect();
            (flows, work)
        };
        let pool = WorkerPool::default();
        if pairs.len() < FAN_OUT_MIN_SOLVES {
            return solve_chunk(pairs);
        }
        let chunks: Vec<_> = pairs.chunks(pairs.len().div_ceil(pool.threads())).collect();
        let mut flows = Vec::with_capacity(pairs.len());
        let mut work = Work::default();
        for (chunk_flows, chunk_work) in pool.run(chunks, |_, chunk| solve_chunk(chunk)) {
            flows.extend(chunk_flows);
            work.solves += chunk_work.solves;
            work.edges_visited += chunk_work.edges_visited;
        }
        (flows, work)
    }

    /// A full report: every pair solved under `usable`.
    fn report(
        &self,
        graph: &NetworkGraph,
        usable: &EdgeMask,
        pairs: &[(NodeId, NodeId)],
        baselines: &[f64],
    ) -> (CapacityReport, Work) {
        assert_eq!(pairs.len(), baselines.len());
        let (flows, work) = self.solve_pairs(graph, usable, pairs);
        let pairs = pairs
            .iter()
            .zip(baselines)
            .zip(flows)
            .map(
                |((&(src, dst), &baseline_mbps), current_mbps)| TorPairCapacity {
                    src,
                    dst,
                    baseline_mbps,
                    current_mbps,
                },
            )
            .collect();
        (CapacityReport { pairs }, work)
    }

    /// Re-solve the pairs at `stale` (indexes into `report.pairs`) under
    /// `usable` and write the flows over the old ones, which are returned
    /// beside their indexes.
    fn patch(
        &self,
        graph: &NetworkGraph,
        usable: &EdgeMask,
        stale: &[u32],
        report: &mut CapacityReport,
    ) -> (Vec<(u32, f64)>, Work) {
        let pairs: Vec<(NodeId, NodeId)> = stale
            .iter()
            .map(|&i| {
                let p = &report.pairs[i as usize];
                (p.src, p.dst)
            })
            .collect();
        let (flows, work) = self.solve_pairs(graph, usable, &pairs);
        let previous = stale
            .iter()
            .zip(flows)
            .map(|(&i, flow)| {
                let current = &mut report.pairs[i as usize].current_mbps;
                (i, std::mem::replace(current, flow))
            })
            .collect();
        (previous, work)
    }
}

/// A panel's report together with the edge mask it was solved under: what
/// [`CapacityPanel::sync`] diffs the next health view against.
#[derive(Debug, Clone)]
pub struct SyncedReport {
    report: CapacityReport,
    usable: EdgeMask,
}

/// What one [`CapacityPanel::sync`] overwrote: the re-solved pairs' old
/// flows and the old mask.
#[derive(Debug)]
pub struct Overwritten {
    flows: Vec<(u32, f64)>,
    usable: EdgeMask,
}

impl SyncedReport {
    /// The report, current as of the last sync.
    pub fn report(&self) -> &CapacityReport {
        &self.report
    }

    /// Undo the sync that returned `overwritten`.
    pub fn revert(&mut self, overwritten: Overwritten) {
        for (i, current_mbps) in overwritten.flows {
            self.report.pairs[i as usize].current_mbps = current_mbps;
        }
        self.usable = overwritten.usable;
    }
}

/// A fixed set of ToR pairs of one graph with everything that does not
/// change between evaluations: the pairs, their all-up baselines, the
/// scope index, and which pairs each edge's flip can move. Immutable but
/// for its work counters, so consumers share one behind an `Arc` and each
/// keeps its own [`SyncedReport`].
#[derive(Debug)]
pub struct CapacityPanel {
    pairs: Vec<(NodeId, NodeId)>,
    baselines: Vec<f64>,
    scope: ScopeIndex,
    /// Per pod of the scope index: indexes of the pairs with an endpoint
    /// in it, ascending.
    pod_pairs: Vec<Vec<u32>>,
    /// Indexes of the pairs with a pod-less endpoint, which are solved on
    /// the whole graph, ascending. (On a non-layered graph every flip is a
    /// tier flip, so every pair is re-solved anyway.)
    whole_pairs: Vec<u32>,
    solves: AtomicU64,
    edges_visited: AtomicU64,
}

impl CapacityPanel {
    /// Index `graph` and solve each pair's baseline (all-up) max-flow.
    pub fn new(graph: &NetworkGraph, pairs: Vec<(NodeId, NodeId)>) -> CapacityPanel {
        let scope = ScopeIndex::build(graph);
        let mut pod_pairs = vec![Vec::new(); scope.pods.len()];
        let mut whole_pairs = Vec::new();
        for (i, &(s, t)) in pairs.iter().enumerate() {
            let (ps, pt) = (scope.node_pod[s.0 as usize], scope.node_pod[t.0 as usize]);
            if ps != TIER {
                pod_pairs[ps as usize].push(i as u32);
            }
            if pt != TIER && pt != ps {
                pod_pairs[pt as usize].push(i as u32);
            }
            if ps == TIER || pt == TIER {
                whole_pairs.push(i as u32);
            }
        }
        let all_up = EdgeMask::resolve(graph, &HealthView::all_up());
        let (baselines, work) = scope.solve_pairs(graph, &all_up, &pairs);
        let panel = CapacityPanel {
            pairs,
            baselines,
            scope,
            pod_pairs,
            whole_pairs,
            solves: AtomicU64::new(0),
            edges_visited: AtomicU64::new(0),
        };
        panel.count(work);
        panel
    }

    /// The panel's pairs.
    pub fn pairs(&self) -> &[(NodeId, NodeId)] {
        &self.pairs
    }

    /// Every pair's capacity under `health`. `graph` is the one the panel
    /// was built on.
    pub fn evaluate(&self, graph: &NetworkGraph, health: &HealthView) -> CapacityReport {
        self.evaluate_synced(graph, health).report
    }

    /// [`CapacityPanel::evaluate`], kept with its mask for later syncs.
    pub fn evaluate_synced(&self, graph: &NetworkGraph, health: &HealthView) -> SyncedReport {
        let usable = EdgeMask::resolve(graph, health);
        let (report, work) = self
            .scope
            .report(graph, &usable, &self.pairs, &self.baselines);
        self.count(work);
        SyncedReport { report, usable }
    }

    /// Bring `synced` (one of this panel's) up to `health` in place,
    /// whatever changed since it was solved: re-solve exactly the pairs
    /// whose scope holds an edge that flipped between the two views.
    /// Returns what it overwrote, for [`SyncedReport::revert`].
    pub fn sync(
        &self,
        graph: &NetworkGraph,
        health: &HealthView,
        synced: &mut SyncedReport,
    ) -> Overwritten {
        let usable = EdgeMask::resolve(graph, health);
        let stale = self.stale_pairs(&synced.usable, &usable);
        let (flows, work) = self.scope.patch(graph, &usable, &stale, &mut synced.report);
        self.count(work);
        let usable = std::mem::replace(&mut synced.usable, usable);
        Overwritten { flows, usable }
    }

    /// The pairs whose scope holds an edge usable under exactly one of
    /// `before` and `after`, ascending.
    fn stale_pairs(&self, before: &EdgeMask, after: &EdgeMask) -> Vec<u32> {
        let mut pods = vec![false; self.pod_pairs.len()];
        let mut flipped = false;
        for edge in before.flips(after) {
            match self.scope.edge_owner[edge as usize] {
                TIER => return (0..self.pairs.len() as u32).collect(),
                pod => pods[pod as usize] = true,
            }
            flipped = true;
        }
        if !flipped {
            return Vec::new();
        }
        let mut stale = self.whole_pairs.clone();
        for (pairs, _) in self.pod_pairs.iter().zip(pods).filter(|(_, p)| *p) {
            stale.extend(pairs);
        }
        stale.sort_unstable();
        stale.dedup();
        stale
    }

    /// Max-flow solves this panel has run since construction, baselines
    /// included. The work a round did, free of the clock.
    pub fn solves(&self) -> u64 {
        self.solves.load(Ordering::Relaxed)
    }

    /// Edges examined by those solves (usable or not).
    pub fn edges_visited(&self) -> u64 {
        self.edges_visited.load(Ordering::Relaxed)
    }

    fn count(&self, work: Work) {
        self.solves.fetch_add(work.solves, Ordering::Relaxed);
        self.edges_visited
            .fetch_add(work.edges_visited, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DcnSpec;
    use statesman_types::{DeviceName, LinkName};

    fn fig7() -> NetworkGraph {
        DcnSpec::fig7("dc1").build()
    }

    #[test]
    fn fig8_pair_selection_is_90() {
        let g = fig7();
        let pairs = select_tor_pairs(&g, &DatacenterId::new("dc1"), Some(1));
        assert_eq!(pairs.len(), 90); // 10 ToRs, directional pairs
    }

    #[test]
    fn all_pairs_selection() {
        let g = DcnSpec::tiny("dc1").build();
        let pairs = select_tor_pairs(&g, &DatacenterId::new("dc1"), None);
        // 4 ToRs → 12 directional pairs
        assert_eq!(pairs.len(), 12);
    }

    #[test]
    fn healthy_fabric_meets_invariant_fully() {
        let g = fig7();
        let pairs = select_tor_pairs(&g, &DatacenterId::new("dc1"), Some(1));
        let r = evaluate(&g, &HealthView::all_up(), &pairs);
        assert_eq!(r.fraction_meeting(0.5), 1.0);
        assert_eq!(r.worst_fraction(), 1.0);
        assert!(r.violating(0.5).is_empty());
    }

    #[test]
    fn two_aggs_down_is_exactly_half() {
        let g = fig7();
        let pairs = select_tor_pairs(&g, &DatacenterId::new("dc1"), Some(1));
        let mut h = HealthView::all_up();
        h.set_device_down(DeviceName::new("agg-1-1"));
        h.set_device_down(DeviceName::new("agg-1-2"));
        let r = evaluate(&g, &h, &pairs);
        // Pairs touching pod 1 drop to 0.5; everything still meets 50%.
        assert_eq!(r.fraction_meeting(0.5), 1.0);
        assert!((r.worst_fraction() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn three_aggs_down_violates() {
        let g = fig7();
        let pairs = select_tor_pairs(&g, &DatacenterId::new("dc1"), Some(1));
        let mut h = HealthView::all_up();
        for a in 1..=3 {
            h.set_device_down(DeviceName::new(format!("agg-1-{a}")));
        }
        let r = evaluate(&g, &h, &pairs);
        assert!(r.fraction_meeting(0.5) < 1.0);
        // 18 directional pairs touch pod 1 (9 out + 9 in).
        assert_eq!(r.violating(0.5).len(), 18);
    }

    #[test]
    fn link_plus_agg_down_gives_75_percent_pod() {
        // §7.2 box D/E: ToR1-Agg1 link down in pod 4 → pod-4 pairs at 75%.
        let g = fig7();
        let pairs = select_tor_pairs(&g, &DatacenterId::new("dc1"), Some(1));
        let mut h = HealthView::all_up();
        h.set_link_down(LinkName::between("tor-4-1", "agg-4-1"));
        let r = evaluate(&g, &h, &pairs);
        let pod4_fracs: Vec<f64> = r
            .pairs
            .iter()
            .filter(|p| g.node(p.src).pod == Some(4) || g.node(p.dst).pod == Some(4))
            .map(|p| p.fraction())
            .collect();
        assert_eq!(pod4_fracs.len(), 18);
        for f in pod4_fracs {
            assert!((f - 0.75).abs() < 1e-6, "got {f}");
        }
    }

    #[test]
    fn incremental_matches_full() {
        let g = fig7();
        let pairs = select_tor_pairs(&g, &DatacenterId::new("dc1"), Some(1));
        let panel = CapacityPanel::new(&g, pairs.clone());
        let mut synced = panel.evaluate_synced(&g, &HealthView::all_up());

        let mut h = HealthView::all_up();
        h.set_device_down(DeviceName::new("agg-3-1"));
        h.set_device_down(DeviceName::new("agg-3-2"));
        h.set_link_down(LinkName::between("tor-8-1", "agg-8-4"));
        // Nobody says which pods changed: the mask diff finds 3 and 8.
        let solves = panel.solves();
        panel.sync(&g, &h, &mut synced);
        assert_eq!(panel.solves() - solves, 34);
        assert_eq!(synced.report().pairs, evaluate(&g, &h, &pairs).pairs);
    }

    #[test]
    fn a_solve_visits_its_scope_not_the_fabric() {
        // Same pod shape and core count, 10 pods against 52: a solve looks
        // at two pods' edges either way (2 × (16 ToR·Agg + 16 Agg·Core)),
        // where a whole-graph kernel would look at 320 against 1,664.
        let per_solve = |pods: u32| {
            let g = DcnSpec {
                pods,
                ..DcnSpec::fig7("dc1")
            }
            .build();
            let pairs = select_tor_pairs(&g, &DatacenterId::new("dc1"), Some(1));
            let panel = CapacityPanel::new(&g, pairs);
            let mut h = HealthView::all_up();
            h.set_device_down(DeviceName::new("agg-2-1"));
            panel.evaluate(&g, &h);
            assert_eq!(panel.solves(), 2 * (pods * (pods - 1)) as u64);
            assert_eq!(panel.edges_visited() % panel.solves(), 0);
            panel.edges_visited() / panel.solves()
        };
        assert_eq!(per_solve(10), 64);
        assert_eq!(per_solve(52), 64);
    }

    #[test]
    fn panel_sync_patches_in_place_and_reverts_flows_and_mask() {
        let g = fig7();
        let dc = DatacenterId::new("dc1");
        let panel = CapacityPanel::new(&g, select_tor_pairs(&g, &dc, Some(1)));
        let mut synced = panel.evaluate_synced(&g, &HealthView::all_up());
        let before = synced.report().clone();

        // Pods 3 and 4 share two pairs; each is solved once.
        let mut h = HealthView::all_up();
        h.set_device_down(DeviceName::new("agg-3-1"));
        h.set_device_down(DeviceName::new("agg-4-2"));
        let solves = panel.solves();
        let overwritten = panel.sync(&g, &h, &mut synced);
        assert_eq!(panel.solves() - solves, 34);
        assert_eq!(synced.report().pairs, panel.evaluate(&g, &h).pairs);

        // Reverted, the report is the old one and so is its mask: syncing
        // to the old view again solves nothing, to the new one 34 again.
        synced.revert(overwritten);
        assert_eq!(synced.report().pairs, before.pairs);
        let solves = panel.solves();
        panel.sync(&g, &HealthView::all_up(), &mut synced);
        assert_eq!(panel.solves(), solves);
        panel.sync(&g, &h, &mut synced);
        assert_eq!(panel.solves() - solves, 34);
    }

    #[test]
    fn a_flip_re_solves_the_pairs_whose_scope_holds_it() {
        // Fig 7 has no tier-internal links, so a core's edges belong to
        // the pods; a border router's link to a core is the tier's. Two
        // extra pairs have a pod-less endpoint and are solved whole.
        let mut g = fig7();
        g.add_device("br-1", DeviceRole::Border, "dc1", None);
        g.add_link(
            &DeviceName::new("br-1"),
            &DeviceName::new("core-1"),
            1e5,
            "dc1",
        );
        let node = |n: &str| g.node_id(&DeviceName::new(n)).unwrap();
        let mut pairs = select_tor_pairs(&g, &DatacenterId::new("dc1"), Some(1));
        pairs.extend([
            (node("tor-1-1"), node("br-1")),
            (node("core-2"), node("tor-2-1")),
        ]);
        let panel = CapacityPanel::new(&g, pairs.clone());
        let mut synced = panel.evaluate_synced(&g, &HealthView::all_up());
        let mut h = HealthView::all_up();
        let mut solves_after = |down: &str| {
            h.set_device_down(DeviceName::new(down));
            let solves = panel.solves();
            panel.sync(&g, &h, &mut synced);
            assert_eq!(synced.report().pairs, evaluate(&g, &h, &pairs).pairs);
            panel.solves() - solves
        };
        // Pod 5's 18 pairs and the 2 whole-graph ones; then every pod's.
        assert_eq!(solves_after("agg-5-1"), 20);
        assert_eq!(solves_after("core-3"), 92);
        // The border's only link is tier-internal.
        assert_eq!(solves_after("br-1"), 92);
        assert_eq!(solves_after("no-such-device"), 0);
    }

    #[test]
    fn empty_report_is_vacuously_fine() {
        let r = CapacityReport { pairs: vec![] };
        assert_eq!(r.fraction_meeting(0.5), 1.0);
        assert_eq!(r.worst_fraction(), 1.0);
    }
}
