//! The committed `BENCHMARK.json` lists exactly the workloads and
//! metrics the binary reports.

use statesman_benchmark::report;

#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let expected = report::benchmark_json();
    assert_eq!(
        committed, expected,
        "BENCHMARK.json is out of date; it should read:\n{expected}"
    );
}

#[test]
fn result_line_names_every_metric_of_its_kind() {
    let out = statesman_benchmark::workload::Outcome::default();
    for (trace, catalogue) in [(false, report::END_TO_END), (true, report::PER_LAYER)] {
        let line = report::result_line(&out, trace);
        for m in catalogue {
            assert!(
                line.contains(&format!("\"{}\": {{\"value\"", m.name)),
                "{}",
                m.name
            );
        }
        for key in ["\"correct\"", "\"attempted\"", "\"failed\"", "\"metrics\""] {
            assert!(line.contains(key));
        }
    }
}
