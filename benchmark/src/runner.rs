//! One invocation: the parent spawns fresh child processes of this same
//! binary (set-up time and memory are per process), gathers what they
//! print, and checks digests against each other and against earlier
//! runs.

use crate::report;
use crate::stats;
use crate::workload::{Ctx, Outcome, Sizes, Task, Workload};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// What the parent was asked for.
#[derive(Debug, Clone)]
pub struct Request {
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// `--seconds`: scales the number of timed blocks.
    pub seconds: u64,
    /// Traced run.
    pub trace: bool,
    /// Smoke-test sizes.
    pub tiny: bool,
}

/// A directory inside the checkout, beside the built binary: WAL files
/// of the durable store, span dumps, and the digests earlier runs left.
pub fn state_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of this binary");
    exe.parent()
        .expect("binary has a directory")
        .join("bench-state")
}

/// Run `task` in this process (the child side) and print the outcome for
/// the parent.
pub fn run_child(task: Task, started: Instant) {
    let mut ctx = Ctx::new(task, started);
    match ctx.task.workload {
        Workload::Churn => crate::churn::run(&mut ctx),
        Workload::Rollout => crate::rollout::run(&mut ctx),
        Workload::ApiMixed => crate::api_mixed::run(&mut ctx),
        Workload::ApiIngest => crate::api_ingest::run(&mut ctx),
    }
    if !ctx.task.setup_only {
        ctx.out.metric("peak_rss_mb", crate::procfs::peak_rss_mb());
        if ctx.task.trace {
            ctx.layers.report(&mut ctx.out);
            let name = format!("spans-{}-{}.tsv", ctx.task.workload.name(), ctx.task.seed);
            let path = state_dir().join(name);
            if let Err(e) = crate::spans::write_tsv(ctx.tracer.spans(), &path) {
                ctx.out
                    .check(false, || format!("write {}: {e}", path.display()));
            }
            eprint!("{}", crate::spans::render_tree(ctx.tracer.spans()));
            // Every op's children must account for the op: the same 5%
            // the coordinator's round is held to.
            if let Some(op) = crate::spans::totals(ctx.tracer.spans()).get("op") {
                crate::control::closed_tree_check(
                    &mut ctx.out,
                    op.self_ms / op.count as f64,
                    op.total_ms / op.count as f64,
                );
            }
        }
    }
    let out = &ctx.out;
    for (k, v) in &out.metrics {
        println!("@m {k} {v}");
    }
    for (k, v) in &out.notes {
        println!("@n {k} {v}");
    }
    for f in &out.failures {
        println!("@f {f}");
    }
    println!("@c {} {}", out.attempted, out.failed);
}

fn spawn_child(req: &Request, setup_only: bool) -> Outcome {
    let exe = std::env::current_exe().expect("path of this binary");
    let mut cmd = Command::new(exe);
    cmd.arg("--child")
        .args(["--workload", req.workload.name()])
        .args(["--seed", &req.seed.to_string()])
        .args(["--seconds", &req.seconds.to_string()])
        .args(["--trace", if req.trace { "1" } else { "0" }]);
    if setup_only {
        cmd.arg("--setup-only");
    }
    if req.tiny {
        cmd.arg("--tiny");
    }
    let mut child = cmd
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn a child of this binary");
    let mut out = Outcome::default();
    let mut reported = false;
    for line in BufReader::new(child.stdout.take().expect("piped")).lines() {
        let line = line.unwrap_or_default();
        let mut parts = line.splitn(3, ' ');
        match (parts.next(), parts.next(), parts.next()) {
            (Some("@m"), Some(k), Some(v)) => out.metric(k, v.parse().unwrap_or(0.0)),
            (Some("@n"), Some(k), Some(v)) => out.note(k, v),
            (Some("@c"), Some(a), Some(f)) => {
                out.attempted += a.parse::<u64>().unwrap_or(0);
                out.failed += f.parse::<u64>().unwrap_or(0);
                reported = true;
            }
            (Some("@f"), ..) => out.failures.push(line[3..].to_string()),
            _ => {}
        }
    }
    let status = child.wait().expect("wait for the child");
    // A child that died counts as one failed op; it printed no tally.
    if !status.success() || !reported {
        out.attempted += 1;
        out.failed += 1;
        out.failures.push(format!("child exited with {status}"));
    }
    out
}

/// Compare `digest` with what an earlier run of the same inputs left in
/// `dir`, or leave it for later runs.
fn check_against_earlier(out: &mut Outcome, dir: &Path, key: &str, digest: &str) {
    let path = dir.join(format!("{key}.digest"));
    match std::fs::read_to_string(&path) {
        Ok(earlier) => out.check(earlier.trim() == digest, || {
            format!(
                "{key}: digest {digest} differs from an earlier run's {}",
                earlier.trim()
            )
        }),
        Err(_) => {
            let _ = std::fs::write(&path, digest);
        }
    }
}

/// Run one workload once: spawn the children, merge, check, report.
pub fn run(req: &Request) -> Outcome {
    let dir = state_dir();
    std::fs::create_dir_all(&dir).expect("create the state directory");
    let mut out;
    if req.trace {
        out = spawn_child(req, false);
    } else {
        // Two set-up-only processes, then the full run: set-up time and
        // memory are the median of the three.
        let setups = [spawn_child(req, true), spawn_child(req, true)];
        out = spawn_child(req, false);
        for name in ["setup_s", "setup_rss_mb"] {
            let values: Vec<f64> = setups
                .iter()
                .chain([&out])
                .filter_map(|o| o.metrics.get(name).copied())
                .collect();
            out.metric(name, stats::median(&values));
        }
        let seeded = out.notes.get("digest.seeded").cloned().unwrap_or_default();
        for s in setups {
            out.attempted += s.attempted;
            out.failed += s.failed;
            out.failures.extend(s.failures);
            let other = s.notes.get("digest.seeded").cloned().unwrap_or_default();
            out.check(other == seeded, || {
                format!("seeded-state digest {other} differs from {seeded} for one seed")
            });
        }
    }
    // A child that died left its WAL directory behind; none is running now.
    for entry in std::fs::read_dir(&dir).into_iter().flatten().flatten() {
        if entry.file_name().to_string_lossy().starts_with("wal-") {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
    // The same seed must give the same state in every run of this
    // checkout, traced or not.
    let sizes = Sizes::select(req.workload, req.seconds, req.tiny);
    let key = format!(
        "{}-{}-{}-{}-{}",
        req.workload.name(),
        req.seed,
        sizes.vars,
        sizes.warmup_ops,
        sizes.ops_per_block
    );
    for (kind, suffix) in [
        ("digest.checkpoint", "checkpoint".to_string()),
        ("digest.final", format!("final-{}", sizes.blocks)),
    ] {
        if let Some(d) = out.notes.get(kind).cloned() {
            check_against_earlier(&mut out, &dir, &format!("{key}-{suffix}"), &d);
        }
    }
    out
}

/// Run one workload, print its table and the driver's result line, and
/// return the outcome and the wall time.
pub fn run_and_print(req: &Request) -> (Outcome, f64) {
    let started = Instant::now();
    let out = run(req);
    let wall = started.elapsed().as_secs_f64();
    print!(
        "{}",
        report::render(req.workload, req.seed, req.trace, &out, wall)
    );
    println!("{}", report::result_line(&out, req.trace));
    (out, wall)
}
