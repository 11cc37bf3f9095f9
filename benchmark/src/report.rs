//! The metric catalogue (`BENCHMARK.json` must list exactly these), the
//! driver's result line, and the table a person reads.

use crate::workload::{Outcome, Workload};

/// One metric the benchmark defines.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// The bounded end-to-end metrics of the driver's result line.
///
/// Two of the seven end-to-end metrics are not in this list. `fail_share`
/// is 0 on every workload, and the result line carries it as
/// `failed`/`attempted` rather than as a metric that is never 0.
/// `op_ms_tail` differed by 18–25% between runs of identical code on the
/// sizing host, more than any bound the contract allows: it is printed
/// with the others and reported by the traced run as `op.ms_tail`.
///
/// The time bounds are the contract's maximum. Minutes-long slow phases
/// of the shared host move every memory-bound time by 10–20% (README,
/// sizing findings); a tighter bound would reject identical code.
pub const END_TO_END: &[MetricDef] = &[
    e2e("op_ms_p50", "ms", "lower", 0.25),
    e2e("work_per_s", "1/s", "higher", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("setup_rss_mb", "MB", "lower", 0.05),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
];

/// Printed by the untraced run beside [`END_TO_END`], without a bound.
pub const UNBOUNDED: &[MetricDef] = &[layer("op_ms_tail", "ms", "lower")];

/// Absolute bound on `fail_share` (failed ÷ attempted).
pub const FAIL_SHARE_BOUND: f64 = 0.01;

/// The per-layer metrics of a traced run, `layer.metric`.
pub const PER_LAYER: &[MetricDef] = &[
    layer("op.ms_tail", "ms", "lower"),
    layer("types.interned_entities", "count", "lower"),
    layer("types.key_resolutions", "count", "lower"),
    layer("types.intern_ms", "ms", "lower"),
    layer("topology.build_ms", "ms", "lower"),
    layer("topology.capacity_baseline_ms", "ms", "lower"),
    layer("topology.capacity_pairs", "count", "lower"),
    layer("topology.capacity_eval_ms", "ms", "lower"),
    layer("net.step_ms", "ms", "lower"),
    layer("net.commands_submitted", "count", "lower"),
    layer("net.commands_failed", "count", "lower"),
    layer("storage.write_ms", "ms", "lower"),
    layer("storage.write_rows", "count", "lower"),
    layer("storage.read_ms", "ms", "lower"),
    layer("storage.read_since_ms", "ms", "lower"),
    layer("storage.delta_reads", "count", "higher"),
    layer("storage.full_fallbacks", "count", "lower"),
    layer("storage.lock_wait_us", "us", "lower"),
    layer("storage.retries", "count", "lower"),
    layer("storage.wal_appends", "count", "lower"),
    layer("storage.wal_fsyncs", "count", "lower"),
    layer("storage.wal_bytes", "bytes", "lower"),
    layer("storage.bytes_per_var", "bytes", "lower"),
    layer("storage.seed_bulk_ms", "ms", "lower"),
    layer("monitor.round_ms", "ms", "lower"),
    layer("monitor.poll_ms", "ms", "lower"),
    layer("monitor.diff_ms", "ms", "lower"),
    layer("monitor.write_ms", "ms", "lower"),
    layer("monitor.devices_polled", "count", "higher"),
    layer("monitor.rows_written", "count", "lower"),
    layer("monitor.writes_suppressed", "count", "higher"),
    layer("monitor.suppress_ratio", "share", "higher"),
    layer("checker.pass_ms", "ms", "lower"),
    layer("checker.proposals_seen", "count", "higher"),
    layer("checker.accepted", "count", "higher"),
    layer("checker.rejected", "count", "lower"),
    layer("checker.accept_ratio", "share", "higher"),
    layer("checker.full_degrades", "count", "lower"),
    layer("updater.round_ms", "ms", "lower"),
    layer("updater.read_ms", "ms", "lower"),
    layer("updater.diff_ms", "ms", "lower"),
    layer("updater.exec_ms", "ms", "lower"),
    layer("updater.diffs", "count", "lower"),
    layer("updater.commands_applied", "count", "higher"),
    layer("updater.commands_failed", "count", "lower"),
    layer("updater.retries", "count", "lower"),
    layer("plan.synthesize_ms", "ms", "lower"),
    layer("plan.steps", "count", "lower"),
    layer("plan.waves", "count", "lower"),
    layer("plan.max_width", "count", "higher"),
    layer("plan.inflight_rejections", "count", "lower"),
    layer("plan.rollbacks", "count", "lower"),
    layer("coordinator.round_ms", "ms", "lower"),
    layer("coordinator.unaccounted_ms", "ms", "lower"),
    layer("coordinator.wave_ms", "ms", "lower"),
    layer("coordinator.wave_rounds", "count", "lower"),
    layer("httpapi.read_since_ms", "ms", "lower"),
    layer("httpapi.entity_read_ms", "ms", "lower"),
    layer("httpapi.propose_ms", "ms", "lower"),
    layer("httpapi.receipts_ms", "ms", "lower"),
    layer("httpapi.write_ms", "ms", "lower"),
    layer("httpapi.requests", "count", "lower"),
    layer("httpapi.bytes_in", "bytes", "lower"),
    layer("httpapi.bytes_out", "bytes", "lower"),
    layer("httpapi.sheds", "count", "lower"),
    layer("httpapi.write_batches", "count", "lower"),
    layer("httpapi.writes_coalesced", "count", "higher"),
    layer("json.encode_ms_per_mb", "ms/MB", "lower"),
    layer("json.decode_ms_per_mb", "ms/MB", "lower"),
    layer("obs.scrape_ms", "ms", "lower"),
    layer("obs.trace_overhead_share", "share", "lower"),
];

/// The exact content `BENCHMARK.json` must have (a test holds the file
/// to it, so the catalogue above is the single source).
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better,
                m.bound.expect("end-to-end metrics have bounds")
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        crate::workload::RUN_SECONDS,
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

/// The metrics a run of this kind reports.
pub fn catalogue(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// `failed ÷ attempted`.
pub fn fail_share(out: &Outcome) -> f64 {
    if out.attempted == 0 {
        1.0
    } else {
        out.failed as f64 / out.attempted as f64
    }
}

/// The driver's result line: `correct`, `attempted`, `failed`, `metrics`.
/// A metric the run did not produce is reported as 0 (a per-layer metric
/// of a layer the workload does not enter).
pub fn result_line(out: &Outcome, trace: bool) -> String {
    let metrics: Vec<String> = catalogue(trace)
        .iter()
        .map(|m| {
            let v = out.metrics.get(m.name).copied().unwrap_or(0.0);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(v),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

/// A float as JSON, with every digit it was measured with.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The table a person reads: every metric by name with its unit, the
/// sample counts and the tail percentile used.
pub fn render(workload: Workload, seed: u64, trace: bool, out: &Outcome, wall_s: f64) -> String {
    let mut s = format!(
        "== {} seed {} ({}) — {:.1} s wall ==\n",
        workload.name(),
        seed,
        if trace { "traced" } else { "untraced" },
        wall_s
    );
    let unbounded = if trace { &[][..] } else { UNBOUNDED };
    for m in catalogue(trace).iter().chain(unbounded) {
        let v = out.metrics.get(m.name).copied().unwrap_or(0.0);
        let extra = match m.name {
            "op_ms_tail" | "op.ms_tail" => format!(
                "  ({} over {} ops; no bound)",
                out.notes
                    .get("op_ms_tail_percentile")
                    .map(String::as_str)
                    .unwrap_or("?"),
                out.notes
                    .get("op_samples")
                    .map(String::as_str)
                    .unwrap_or("?"),
            ),
            "work_per_s" => format!(
                "  (median of {} blocks; unit: {})",
                out.notes
                    .get("work_blocks")
                    .map(String::as_str)
                    .unwrap_or("?"),
                workload.work_unit()
            ),
            "setup_s" | "setup_rss_mb" => "  (median of 3 fresh processes)".to_string(),
            _ => String::new(),
        };
        s.push_str(&format!(
            "  {:<34} {:>16.4} {}{}\n",
            m.name, v, m.unit, extra
        ));
    }
    if !trace {
        s.push_str(&format!(
            "  {:<34} {:>16.4} share  ({} failed of {} attempted; bound +{})\n",
            "fail_share",
            fail_share(out),
            out.failed,
            out.attempted,
            FAIL_SHARE_BOUND
        ));
    }
    for (k, v) in &out.notes {
        if k.starts_with("digest.")
            || matches!(
                k.as_str(),
                "variables" | "clients" | "wal_chains.unverified"
            )
        {
            s.push_str(&format!("  {k:<34} {v:>16}\n"));
        }
    }
    for f in &out.failures {
        s.push_str(&format!("  FAILED: {f}\n"));
    }
    s
}
