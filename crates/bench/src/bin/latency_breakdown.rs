//! Regenerate the §8 end-to-end latency breakdown: application vs
//! monitor vs checker vs updater share of one control loop. The monitor
//! and updater columns are modeled device time (`modeled_io`); the
//! application and checker columns are measured compute.
//!
//! ```text
//! cargo run --release -p statesman-bench --bin latency_breakdown
//! ```
//!
//! Expected shape (paper): application negligible (<10 ms), checker
//! seconds at scale, updater dominating (>50%).

use statesman_bench::latency::measure_loop_breakdown;
use statesman_bench::report::table;

fn main() {
    println!("== End-to-end control-loop latency breakdown (Fig-7 DC, pod-1 upgrade) ==");
    let mut rows = Vec::new();
    let mut shares = Vec::new();
    for seed in [1u64, 2, 3] {
        let b = measure_loop_breakdown(seed);
        rows.push(vec![
            seed.to_string(),
            format!("{:.2}", b.app_ms),
            format!("{:.1}", b.monitor_modeled_ms),
            format!("{:.2}", b.checker_ms),
            format!("{:.1}", b.updater_modeled_ms),
            format!("{:.1}%", b.share(b.updater_modeled_ms) * 100.0),
        ]);
        shares.push(b.share(b.updater_modeled_ms));
    }
    println!(
        "{}",
        table(
            &[
                "seed",
                "app (ms)",
                "monitor modeled (ms)",
                "checker (ms)",
                "updater modeled (ms)",
                "updater modeled share",
            ],
            &rows
        )
    );
    let mean = shares.iter().sum::<f64>() / shares.len() as f64;
    println!(
        "mean modeled updater share: {:.1}% (paper: >50%)",
        mean * 100.0
    );
    assert!(mean > 0.5, "updater must dominate the loop");
    println!("application latency is negligible; the updater dominates — matching §8.");
}
