//! In-memory spans around every call the benchmark makes into a layer.
//!
//! Recorded by the benchmark, not by the crates: a span opens before a
//! public function is called and closes when it returns. Spans nest, so
//! a parent's self time is its duration minus its children's, and the
//! tree is *closed* when that remainder is small.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`, e.g. `monitor.round`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration, ms.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// The span recorder of one thread. Disabled, `enter`/`exit` do nothing,
/// so the untraced run pays two branches per call site.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A tracer measuring from `epoch`.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Start or stop recording (between ops only).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "toggled inside an open span");
        self.enabled = enabled;
    }

    /// Spans recorded from here on belong to op `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close a span; spans close innermost first.
    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        assert_eq!(
            self.stack.pop(),
            Some(idx),
            "spans must close innermost first"
        );
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Time `f` as a span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let r = f();
        self.exit(open);
        r
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Fold another thread's spans in (their parents stay within them).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Spans of this name.
    pub count: u64,
    /// Summed duration, ms.
    pub total_ms: f64,
    /// Summed duration minus the children's, ms.
    pub self_ms: f64,
}

/// Per span, the summed duration of its direct children, ms.
fn child_ms(spans: &[Span]) -> Vec<f64> {
    let mut covered = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.ms();
        }
    }
    covered
}

/// Duration and self time per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let child_ms = child_ms(spans);
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ms += s.ms();
        t.self_ms += s.ms() - child_ms[i];
    }
    out
}

/// Mean duration per span of `name`, ms (0 when none was recorded).
pub fn mean_ms(totals: &BTreeMap<&'static str, Totals>, name: &str) -> f64 {
    totals
        .get(name)
        .filter(|t| t.count > 0)
        .map(|t| t.total_ms / t.count as f64)
        .unwrap_or(0.0)
}

/// Write the spans as tab-separated `index parent op name start_ns end_ns`.
pub fn write_tsv(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "index\tparent\top\tname\tstart_ns\tend_ns")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map(|p| p.to_string())
            .unwrap_or_else(|| "-".into());
        writeln!(
            w,
            "{i}\t{parent}\t{}\t{}\t{}\t{}",
            s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

/// The stage tree as indented text: per name under its parent's name,
/// span count, total ms, and self ms.
pub fn render_tree(spans: &[Span]) -> String {
    // Aggregate by path of names so repeated ops fold into one line each.
    let mut paths: BTreeMap<Vec<&'static str>, Totals> = BTreeMap::new();
    let child_ms = child_ms(spans);
    for (i, s) in spans.iter().enumerate() {
        let mut path = vec![s.name];
        let mut at = s.parent;
        while let Some(p) = at {
            path.push(spans[p].name);
            at = spans[p].parent;
        }
        path.reverse();
        let t = paths.entry(path).or_default();
        t.count += 1;
        t.total_ms += s.ms();
        t.self_ms += s.ms() - child_ms[i];
    }
    let mut out = String::new();
    for (path, t) in &paths {
        let indent = "  ".repeat(path.len() - 1);
        out.push_str(&format!(
            "{indent}{:<width$} n={:<6} total={:>10.1} ms  self={:>10.1} ms\n",
            path[path.len() - 1],
            t.count,
            t.total_ms,
            t.self_ms,
            width = 34usize.saturating_sub(indent.len()),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_and_self_time_sum_to_the_parent() {
        let mut t = Tracer::new(true, Instant::now());
        let root = t.enter("root");
        t.time("child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.time("child", || ());
        t.exit(root);
        let tot = totals(t.spans());
        assert_eq!(tot["child"].count, 2);
        let root = tot["root"];
        assert!((root.total_ms - root.self_ms - tot["child"].total_ms).abs() < 1e-9);
        assert!(render_tree(t.spans()).contains("  child"));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let o = t.enter("x");
        t.exit(o);
        assert!(t.spans().is_empty());
    }
}
