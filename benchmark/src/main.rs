//! Command line of the benchmark. See `README.md`.

use statesman_benchmark::runner::{self, Request};
use statesman_benchmark::workload::{Sizes, Task, Workload, RUN_SECONDS};
use std::time::Instant;

const USAGE: &str = "usage: statesman-benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--aa N] [--tiny]\n\
                     workloads: churn_100k rollout_2x50k api_mixed api_ingest (default: all four)";

fn main() {
    let started = Instant::now();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = RUN_SECONDS;
    let mut trace = false;
    let mut aa = None;
    let mut tiny = false;
    let mut child = false;
    let mut setup_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| fail(format!("{what} needs a value")))
        };
        match a.as_str() {
            "--workload" => {
                let v = value("--workload");
                workload = Some(
                    Workload::parse(&v).unwrap_or_else(|| fail(format!("unknown workload {v}"))),
                );
            }
            "--seed" => seed = parse(&value("--seed"), "--seed"),
            "--seconds" => seconds = parse::<u64>(&value("--seconds"), "--seconds").max(1),
            "--trace" => trace = parse::<u8>(&value("--trace"), "--trace") != 0,
            "--aa" => aa = Some(parse::<usize>(&value("--aa"), "--aa")),
            "--tiny" => tiny = true,
            "--child" => child = true,
            "--setup-only" => setup_only = true,
            other => fail(format!("unknown argument {other}")),
        }
    }

    if child {
        let workload = workload.unwrap_or_else(|| fail("--child needs --workload".into()));
        let task = Task {
            workload,
            seed,
            trace,
            setup_only,
            sizes: Sizes::select(workload, seconds, tiny),
        };
        runner::run_child(task, started);
        return;
    }

    let workloads: Vec<Workload> = workload.map(|w| vec![w]).unwrap_or(Workload::ALL.to_vec());
    if let Some(sets) = aa {
        if sets < 2 || trace {
            fail("--aa needs at least 2 sets and an untraced run".into());
        }
        let held = statesman_benchmark::aa::run(&workloads, seed, seconds, tiny, sets);
        std::process::exit(if held { 0 } else { 1 });
    }
    let mut total = 0.0;
    for &w in &workloads {
        let request = Request {
            workload: w,
            seed,
            seconds,
            trace,
            tiny,
        };
        // Failed ops show as `correct: false` in the result line; the exit
        // code stays 0 so that the driver reads it.
        let (_, wall) = runner::run_and_print(&request);
        total += wall;
    }
    if workloads.len() > 1 {
        println!("total wall time: {total:.1} s");
    }
}

fn fail(msg: String) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| fail(format!("{what}: cannot parse {s}")))
}
