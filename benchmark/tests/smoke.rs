//! All four workloads, untraced and traced, at sizes that take seconds:
//! keeps the package compiling against `crates/*` and every correctness
//! check in the run exercised.

use std::process::Command;

#[test]
fn every_workload_runs_correct_at_tiny_size() {
    let exe = env!("CARGO_BIN_EXE_statesman-benchmark");
    for workload in ["churn_100k", "rollout_2x50k", "api_mixed", "api_ingest"] {
        for trace in ["0", "1"] {
            let out = Command::new(exe)
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "3",
                    "--trace",
                    trace,
                    "--tiny",
                ])
                .output()
                .expect("run the benchmark binary");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().unwrap_or_default();
            assert!(
                out.status.success() && last.starts_with("{\"correct\": true, "),
                "{workload} --trace {trace}:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let expected = if trace == "0" {
                "\"op_ms_p50\""
            } else {
                "\"coordinator.round_ms\""
            };
            assert!(last.contains(expected), "{last}");
        }
    }
}
