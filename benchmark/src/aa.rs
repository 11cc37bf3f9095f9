//! `--aa N`: run N full sets back to back on the same binary and hold
//! every end-to-end metric of every workload to its own bound, by the
//! rule the driver accepts a benchmark by: the distance between the first
//! and third quartile, as a share of the median, stays within the bound
//! (`setup_s` is printed but, as in the driver, not held to it).

use crate::report::{self, END_TO_END, FAIL_SHARE_BOUND};
use crate::runner::{self, Request};
use crate::stats;
use crate::workload::Workload;
use std::collections::BTreeMap;

/// Run `sets` sets of `workloads` (set `i` uses `seed + i`, as the driver
/// varies the seed between its runs), print each metric's median,
/// quartiles, quartile spread and largest pairwise difference against
/// its bound, as a Markdown table. Returns whether every spread held.
pub fn run(workloads: &[Workload], seed: u64, seconds: u64, tiny: bool, sets: usize) -> bool {
    let mut samples: BTreeMap<(Workload, &'static str), Vec<f64>> = BTreeMap::new();
    let mut fail_shares: BTreeMap<Workload, Vec<f64>> = BTreeMap::new();
    let mut total = 0.0;
    for set in 0..sets {
        for &workload in workloads {
            let request = Request {
                workload,
                seed: seed + set as u64,
                seconds,
                trace: false,
                tiny,
            };
            let (out, wall) = runner::run_and_print(&request);
            total += wall;
            for m in END_TO_END {
                let v = out.metrics.get(m.name).copied().unwrap_or(0.0);
                samples.entry((workload, m.name)).or_default().push(v);
            }
            fail_shares
                .entry(workload)
                .or_default()
                .push(report::fail_share(&out));
        }
    }
    println!(
        "\n{sets} sets, seeds {seed}..{}, {total:.0} s wall\n",
        seed + sets as u64 - 1
    );
    println!("| workload | metric | unit | median | q1 | q3 | (q3-q1)/median | max pairwise/median | bound | held |");
    println!("|---|---|---|---|---|---|---|---|---|---|");
    let mut all_held = true;
    for &workload in workloads {
        for m in END_TO_END {
            let v = &samples[&(workload, m.name)];
            let [q1, q2, q3] = stats::quartiles(v);
            let median = stats::median(v);
            let spread = if q2 != 0.0 { (q3 - q1) / q2.abs() } else { 0.0 };
            let pairwise = stats::max_pairwise_share(v);
            let bound = m.bound.expect("end-to-end metrics have bounds");
            let gated = m.name != "setup_s";
            let held = spread <= bound;
            all_held &= held || !gated;
            println!(
                "| {} | {} | {} | {:.4} | {:.4} | {:.4} | {:.2}% | {:.2}% | {:.0}% | {} |",
                workload.name(),
                m.name,
                m.unit,
                median,
                q1,
                q3,
                spread * 100.0,
                pairwise * 100.0,
                bound * 100.0,
                match (held, gated) {
                    (true, _) => "yes",
                    (false, true) => "NO",
                    (false, false) => "no (not gated)",
                }
            );
        }
        let worst = fail_shares[&workload].iter().copied().fold(0.0, f64::max);
        let held = worst <= FAIL_SHARE_BOUND;
        all_held &= held;
        println!(
            "| {} | fail_share | share | {:.4} | | | | | +{} | {} |",
            workload.name(),
            worst,
            FAIL_SHARE_BOUND,
            if held { "yes" } else { "NO" }
        );
    }
    all_held
}
