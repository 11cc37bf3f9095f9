//! The wall-clock stage tree: where one control round's time went.
//!
//! A [`Stage`] is a named span with its host wall time and the spans it
//! is made of. Every node is wall time — modeled device I/O never enters
//! the tree — so a parent's children can only add up to less than the
//! parent, and the difference is printed as `unaccounted` rather than
//! hidden. A tree whose `unaccounted` lines are small is a closed account
//! of the round.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// One node of a stage tree.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Stage {
    /// The stage's name (`tick`, `monitor`, `checker[dc:dc1]`, ...).
    pub name: String,
    /// Host wall time of the stage, milliseconds.
    pub ms: f64,
    /// The stages this one is made of, in the order they ran.
    #[serde(default)]
    pub children: Vec<Stage>,
}

impl Stage {
    /// A leaf of `ms` milliseconds.
    pub fn new(name: impl Into<String>, ms: f64) -> Self {
        Stage {
            name: name.into(),
            ms,
            children: Vec::new(),
        }
    }

    /// A leaf timed by a [`Duration`].
    pub fn wall(name: impl Into<String>, wall: Duration) -> Self {
        Stage::new(name, wall.as_secs_f64() * 1e3)
    }

    /// This stage with `children` as its parts.
    pub fn with_children(mut self, children: Vec<Stage>) -> Self {
        self.children = children;
        self
    }

    /// The parent's time its children do not cover: `ms` minus the sum
    /// of the children's. Zero for a leaf, which claims no breakdown.
    pub fn unaccounted_ms(&self) -> f64 {
        if self.children.is_empty() {
            return 0.0;
        }
        self.ms - self.children.iter().map(|c| c.ms).sum::<f64>()
    }

    /// The tree as indented text, one line per node and one
    /// `unaccounted` line closing every parent; each line after the
    /// root carries its share of the parent.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0, None);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize, parent_ms: Option<f64>) {
        line(out, depth, &self.name, self.ms, parent_ms);
        if self.children.is_empty() {
            return;
        }
        for c in &self.children {
            c.render_into(out, depth + 1, Some(self.ms));
        }
        line(
            out,
            depth + 1,
            "unaccounted",
            self.unaccounted_ms(),
            Some(self.ms),
        );
    }
}

fn line(out: &mut String, depth: usize, name: &str, ms: f64, parent_ms: Option<f64>) {
    let label = format!("{:indent$}{name}", "", indent = 2 * depth);
    out.push_str(&format!("{label:<28} {ms:>11.2} ms"));
    if let Some(p) = parent_ms.filter(|p| *p > 0.0) {
        out.push_str(&format!(" {:>6.1}%", 100.0 * ms / p));
    }
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> Stage {
        Stage::new("tick", 100.0).with_children(vec![
            Stage::new("monitor", 60.0).with_children(vec![
                Stage::new("poll", 30.0),
                Stage::new("write", 25.0)
                    .with_children(vec![Stage::new("intern", 10.0), Stage::new("commit", 12.5)]),
            ]),
            Stage::new("checker[dc:dc1]", 30.0),
        ])
    }

    #[test]
    fn unaccounted_is_the_parent_minus_its_children() {
        let t = tree();
        assert_eq!(t.unaccounted_ms(), 10.0);
        let monitor = &t.children[0];
        assert_eq!(monitor.unaccounted_ms(), 5.0);
        assert_eq!(monitor.children[1].unaccounted_ms(), 2.5);
        assert_eq!(t.children[1].unaccounted_ms(), 0.0);
        // Children that overrun their parent show as negative.
        let over = Stage::new("p", 1.0).with_children(vec![Stage::new("c", 3.0)]);
        assert_eq!(over.unaccounted_ms(), -2.0);
        assert_eq!(Stage::wall("x", Duration::from_micros(1500)).ms, 1.5);
    }

    #[test]
    fn render_closes_every_parent_with_one_unaccounted_line() {
        let text = tree().render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 7 + 3, "{text}");
        let unaccounted: Vec<&str> = lines
            .iter()
            .copied()
            .filter(|l| l.trim_start().starts_with("unaccounted"))
            .collect();
        assert_eq!(unaccounted.len(), 3, "{text}");
        assert!(lines[0].starts_with("tick") && lines[0].contains("100.00 ms"));
        assert!(lines[1].starts_with("  monitor") && lines[1].contains("60.0%"));
        assert!(lines[4].starts_with("      intern"), "{text}");
        assert!(lines[6].starts_with("      unaccounted") && lines[6].contains("2.50 ms"));
        assert!(lines[9].starts_with("  unaccounted") && lines[9].contains("10.00 ms"));
    }

    #[test]
    fn a_three_level_tree_round_trips_through_json() {
        let t = tree();
        let json = serde_json::to_string(&t).unwrap();
        let back: Stage = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
        let leaf: Stage = serde_json::from_str(r#"{"name":"poll","ms":0.25}"#).unwrap();
        assert_eq!(leaf, Stage::new("poll", 0.25));
    }
}
