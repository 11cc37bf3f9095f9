//! Plain-text tables and character rasters: `api_swarm` and
//! `latency_breakdown` print tables, and `paper_claims` stores the Fig 8
//! and Fig 10 rasters in its JSON.

use std::fmt::Write as _;

/// Render an aligned text table.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let mut line = String::new();
    for (h, w) in headers.iter().zip(&widths) {
        let _ = write!(line, "{h:<w$}  ");
    }
    out.push_str(line.trim_end());
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        let mut line = String::new();
        for (c, w) in row.iter().zip(&widths) {
            let _ = write!(line, "{c:<w$}  ");
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

/// Render a capacity-fraction matrix as a character raster: one row per
/// pair, one column per sample; `█` = 100%, `▓` = 75%, `▒` = 50%, `░` <50%.
pub fn capacity_raster(fractions_per_tick: &[Vec<f64>]) -> Vec<String> {
    if fractions_per_tick.is_empty() {
        return Vec::new();
    }
    let pairs = fractions_per_tick[0].len();
    (0..pairs)
        .map(|p| {
            fractions_per_tick
                .iter()
                .map(|tick| {
                    let f = tick.get(p).copied().unwrap_or(1.0);
                    if f >= 0.999 {
                        '█'
                    } else if f >= 0.74 {
                        '▓'
                    } else if f >= 0.49 {
                        '▒'
                    } else {
                        '░'
                    }
                })
                .collect()
        })
        .collect()
}

/// Render a load series as a character raster: `·` empty, `▁▄█` for
/// low/medium/high utilization (the Fig-10 legend).
pub fn load_raster(loads_per_tick: &[Vec<f64>], capacity: f64) -> Vec<String> {
    if loads_per_tick.is_empty() {
        return Vec::new();
    }
    let links = loads_per_tick[0].len();
    (0..links)
        .map(|l| {
            loads_per_tick
                .iter()
                .map(|tick| {
                    let u = tick.get(l).copied().unwrap_or(0.0) / capacity;
                    if u <= 0.001 {
                        '·'
                    } else if u <= 0.4 {
                        '▁'
                    } else if u <= 0.8 {
                        '▄'
                    } else {
                        '█'
                    }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = table(
            &["dc", "vars"],
            &[
                vec!["dc1".into(), "394000".into()],
                vec!["dc10".into(), "50000".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert!(lines[0].starts_with("dc "), "{t}");
        assert_eq!(lines.len(), 4);
        assert!(lines[3].contains("50000"));
    }

    #[test]
    fn raster_levels() {
        let r = capacity_raster(&[vec![1.0, 0.75, 0.5, 0.25]]);
        assert_eq!(r.len(), 4);
        assert_eq!(r[0], "█");
        assert_eq!(r[1], "▓");
        assert_eq!(r[2], "▒");
        assert_eq!(r[3], "░");
    }

    #[test]
    fn load_levels() {
        let r = load_raster(&[vec![0.0, 100.0, 500.0, 950.0]], 1_000.0);
        assert_eq!(r[0], "·");
        assert_eq!(r[1], "▁");
        assert_eq!(r[2], "▄");
        assert_eq!(r[3], "█");
    }
}
