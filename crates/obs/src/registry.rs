//! The metrics registry: counters, gauges, and fixed-bucket histograms.
//!
//! Design goals, in order:
//!
//! 1. **Lock-cheap on the hot path.** Recording a sample is one or two
//!    atomic operations on an `Arc`'d cell; the registry mutex is taken
//!    only to create or look up a metric handle. Components that record
//!    per-request or per-round cache their handles once.
//! 2. **No external deps.** Counters are `AtomicU64`, gauges `AtomicI64`,
//!    histogram sums CAS-updated `f64` bits — everything in `std`.
//! 3. **No global mutable singleton.** A [`Registry`] is an explicit,
//!    cheaply clonable handle; every instrumented component is given one.
//!    Tests and scenarios can therefore run many isolated registries in
//!    one process, and nothing is observable by accident.
//!
//! Metrics are identified by a flat name plus optional `{k="v"}` labels
//! (rendered Prometheus-style). Two lookups with the same name and labels
//! return handles to the same underlying cells.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Set the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add a (possibly negative) delta.
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramInner {
    /// Upper bounds of the finite buckets; an implicit +Inf bucket
    /// follows. Fixed at creation.
    bounds: Vec<f64>,
    /// One count per bound, plus the +Inf bucket (len = bounds.len()+1).
    /// Cumulative at snapshot time, per-bucket here.
    counts: Vec<AtomicU64>,
    /// Sum of observed values, stored as `f64` bits (CAS loop).
    sum_bits: AtomicU64,
    count: AtomicU64,
}

/// A fixed-bucket histogram (latencies, sizes).
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramInner>);

/// Default latency buckets, in milliseconds: 1ms .. ~4min, exponential.
pub const LATENCY_BUCKETS_MS: &[f64] = &[
    1.0, 5.0, 25.0, 100.0, 500.0, 2_500.0, 10_000.0, 60_000.0, 240_000.0,
];

/// Microsecond latency buckets for wire-level request timing: 50µs .. 1s,
/// roughly 2–4× steps. The HTTP front end's per-worker request histograms
/// use these (a served read is tens of microseconds; millisecond buckets
/// would collapse the whole distribution into the first bucket).
pub const LATENCY_BUCKETS_US: &[f64] = &[
    50.0,
    100.0,
    250.0,
    500.0,
    1_000.0,
    2_500.0,
    5_000.0,
    10_000.0,
    25_000.0,
    100_000.0,
    1_000_000.0,
];

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        let mut b: Vec<f64> = bounds.to_vec();
        b.sort_by(|x, y| x.partial_cmp(y).expect("histogram bounds must not be NaN"));
        b.dedup();
        let counts = (0..=b.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram(Arc::new(HistogramInner {
            bounds: b,
            counts,
            sum_bits: AtomicU64::new(0f64.to_bits()),
            count: AtomicU64::new(0),
        }))
    }

    /// Record one observation.
    pub fn observe(&self, v: f64) {
        let i = self
            .0
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.0.bounds.len());
        self.0.counts[i].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.0.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.0.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }

    /// `(upper_bound, cumulative_count)` pairs, ending with `(+Inf, total)`.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut acc = 0u64;
        let mut out = Vec::with_capacity(self.0.bounds.len() + 1);
        for (i, c) in self.0.counts.iter().enumerate() {
            acc += c.load(Ordering::Relaxed);
            let bound = self.0.bounds.get(i).copied().unwrap_or(f64::INFINITY);
            out.push((bound, acc));
        }
        out
    }
}

#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// One metric's exported state (for JSON rendering and test assertions).
/// Serialized externally tagged: `{"Counter": {"name": ..., "value": ...}}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MetricSample {
    /// A counter sample.
    Counter {
        /// Full name including rendered labels.
        name: String,
        /// Current value.
        value: u64,
    },
    /// A gauge sample.
    Gauge {
        /// Full name including rendered labels.
        name: String,
        /// Current value.
        value: i64,
    },
    /// A histogram sample.
    Histogram {
        /// Full name including rendered labels.
        name: String,
        /// Total observations.
        count: u64,
        /// Sum of observations.
        sum: f64,
        /// `(upper_bound, cumulative_count)`; the final bound is +Inf,
        /// serialized as `null`.
        buckets: Vec<(Option<f64>, u64)>,
    },
}

impl MetricSample {
    /// The metric's full name.
    pub fn name(&self) -> &str {
        match self {
            MetricSample::Counter { name, .. }
            | MetricSample::Gauge { name, .. }
            | MetricSample::Histogram { name, .. } => name,
        }
    }
}

/// The shared metrics registry. Cheap to clone; all clones share state.
#[derive(Clone, Default)]
pub struct Registry {
    metrics: Arc<Mutex<BTreeMap<String, Metric>>>,
}

/// Render `name{k="v",...}` (no braces when `labels` is empty). Label
/// order follows the caller; callers are expected to pass a fixed order.
pub fn labeled(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut s = String::with_capacity(name.len() + 16 * labels.len());
    s.push_str(name);
    s.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(k);
        s.push_str("=\"");
        // Quotes and backslashes in values would corrupt the text format.
        for ch in v.chars() {
            match ch {
                '"' => s.push_str("\\\""),
                '\\' => s.push_str("\\\\"),
                '\n' => s.push_str("\\n"),
                c => s.push(c),
            }
        }
        s.push('"');
    }
    s.push('}');
    s
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get or create a counter.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// Get or create a counter with labels.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = labeled(name, labels);
        let mut m = self.metrics.lock();
        match m
            .entry(key)
            .or_insert_with(|| Metric::Counter(Counter::default()))
        {
            Metric::Counter(c) => c.clone(),
            other => panic!("metric {} already registered as {other:?}", name),
        }
    }

    /// Get or create a gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// Get or create a gauge with labels.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = labeled(name, labels);
        let mut m = self.metrics.lock();
        match m
            .entry(key)
            .or_insert_with(|| Metric::Gauge(Gauge::default()))
        {
            Metric::Gauge(g) => g.clone(),
            other => panic!("metric {} already registered as {other:?}", name),
        }
    }

    /// Get or create a histogram. `bounds` applies only on first creation;
    /// later lookups reuse the existing buckets.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        self.histogram_with(name, &[], bounds)
    }

    /// Get or create a histogram with labels.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)], bounds: &[f64]) -> Histogram {
        let key = labeled(name, labels);
        let mut m = self.metrics.lock();
        match m
            .entry(key)
            .or_insert_with(|| Metric::Histogram(Histogram::new(bounds)))
        {
            Metric::Histogram(h) => h.clone(),
            other => panic!("metric {} already registered as {other:?}", name),
        }
    }

    /// A counter's current value, if it exists (test/assertion helper;
    /// `name` is the full labeled name).
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.metrics.lock().get(name) {
            Some(Metric::Counter(c)) => Some(c.get()),
            _ => None,
        }
    }

    /// Snapshot every metric, sorted by full name.
    pub fn snapshot(&self) -> Vec<MetricSample> {
        let m = self.metrics.lock();
        m.iter()
            .map(|(name, metric)| match metric {
                Metric::Counter(c) => MetricSample::Counter {
                    name: name.clone(),
                    value: c.get(),
                },
                Metric::Gauge(g) => MetricSample::Gauge {
                    name: name.clone(),
                    value: g.get(),
                },
                Metric::Histogram(h) => MetricSample::Histogram {
                    name: name.clone(),
                    count: h.count(),
                    sum: h.sum(),
                    buckets: h
                        .cumulative_buckets()
                        .into_iter()
                        .map(|(b, c)| (b.is_finite().then_some(b), c))
                        .collect(),
                },
            })
            .collect()
    }

    /// Render the registry in the Prometheus text exposition style.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for s in self.snapshot() {
            match s {
                MetricSample::Counter { name, value } => {
                    out.push_str(&format!("{name} {value}\n"));
                }
                MetricSample::Gauge { name, value } => {
                    out.push_str(&format!("{name} {value}\n"));
                }
                MetricSample::Histogram {
                    name,
                    count,
                    sum,
                    buckets,
                } => {
                    let (base, labels) = match name.split_once('{') {
                        Some((b, rest)) => (b, format!(",{rest}")),
                        None => (name.as_str(), "}".to_string()),
                    };
                    for (bound, c) in buckets {
                        let le = bound
                            .map(|b| format!("{b}"))
                            .unwrap_or_else(|| "+Inf".to_string());
                        out.push_str(&format!("{base}_bucket{{le=\"{le}\"{labels} {c}\n"));
                    }
                    out.push_str(&format!("{base}_sum{} {sum}\n", labels_suffix(&labels)));
                    out.push_str(&format!("{base}_count{} {count}\n", labels_suffix(&labels)));
                }
            }
        }
        out
    }

    /// Render the registry as a JSON array of [`MetricSample`]s.
    pub fn render_json(&self) -> String {
        serde_json::to_string(&self.snapshot()).expect("metric snapshot serializes")
    }
}

/// For `_sum`/`_count` lines: re-attach the original labels (if any).
/// `labels` here is either `"}"` (no labels) or `",k=\"v\"...}"`.
fn labels_suffix(labels: &str) -> String {
    if labels == "}" {
        String::new()
    } else {
        // ",k=\"v\"}" -> "{k=\"v\"}"
        format!("{{{}", &labels[1..])
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Registry({} metrics)", self.metrics.lock().len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_shared_by_name() {
        let r = Registry::new();
        r.counter("x_total").inc();
        r.counter("x_total").add(2);
        assert_eq!(r.counter("x_total").get(), 3);
        assert_eq!(r.counter_value("x_total"), Some(3));
        assert_eq!(r.counter_value("missing"), None);
    }

    #[test]
    fn labels_distinguish_series_and_sum_aggregates() {
        let r = Registry::new();
        r.counter_with("req_total", &[("route", "read"), ("status", "200")])
            .add(5);
        r.counter_with("req_total", &[("route", "write"), ("status", "200")])
            .add(7);
        assert_eq!(
            r.counter_value("req_total{route=\"read\",status=\"200\"}"),
            Some(5)
        );
        assert_eq!(
            r.counter_value("req_total{route=\"write\",status=\"200\"}"),
            Some(7)
        );
    }

    #[test]
    fn gauges_move_both_ways() {
        let r = Registry::new();
        let g = r.gauge("depth");
        g.set(5);
        g.add(-2);
        assert_eq!(r.gauge("depth").get(), 3);
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let r = Registry::new();
        let h = r.histogram("lat_ms", &[10.0, 100.0]);
        for v in [1.0, 5.0, 50.0, 500.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 556.0);
        assert_eq!(
            h.cumulative_buckets(),
            vec![(10.0, 2), (100.0, 3), (f64::INFINITY, 4)]
        );
    }

    #[test]
    fn text_render_is_line_per_series() {
        let r = Registry::new();
        r.counter_with("a_total", &[("k", "v")]).inc();
        r.gauge("b").set(-1);
        r.histogram("c_ms", &[1.0]).observe(0.5);
        let text = r.render_text();
        assert!(text.contains("a_total{k=\"v\"} 1\n"), "{text}");
        assert!(text.contains("b -1\n"), "{text}");
        assert!(text.contains("c_ms_bucket{le=\"1\"} 1\n"), "{text}");
        assert!(text.contains("c_ms_bucket{le=\"+Inf\"} 1\n"), "{text}");
        assert!(text.contains("c_ms_sum 0.5\n"), "{text}");
        assert!(text.contains("c_ms_count 1\n"), "{text}");
    }

    #[test]
    fn json_render_round_trips() {
        let r = Registry::new();
        r.counter("x_total").add(9);
        let json = r.render_json();
        let parsed: Vec<MetricSample> = serde_json::from_str(&json).unwrap();
        assert_eq!(
            parsed,
            vec![MetricSample::Counter {
                name: "x_total".into(),
                value: 9
            }]
        );
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(
            labeled("m", &[("k", "a\"b\\c")]),
            "m{k=\"a\\\"b\\\\c\"}".to_string()
        );
    }

    #[test]
    fn concurrent_increments_do_not_lose_updates() {
        let r = Registry::new();
        let h = r.histogram("h", &[50.0]);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = r.counter("c_total");
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1_000 {
                        c.inc();
                        h.observe(i as f64 % 100.0);
                    }
                });
            }
        });
        assert_eq!(r.counter("c_total").get(), 8_000);
        assert_eq!(h.count(), 8_000);
    }
}
