//! Resident-set readings from `/proc/self/status`.

fn status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .unwrap_or(0.0)
}

/// Current resident set, MB.
pub fn rss_mb() -> f64 {
    status_kb("VmRSS") / 1024.0
}

/// Peak resident set of this process so far (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM") / 1024.0
}
