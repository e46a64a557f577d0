//! End-to-end benchmark of the MM-DBMS, driven only through the public
//! API of `mmdb-core`.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload analytic|oltp|restart --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run generates its inputs from `--seed`, sets up the database
//! several times (reporting the median set-up time), measures for
//! `--seconds` seconds in a closed loop, checks the answers, prints the
//! metrics by name with their units, and ends with one JSON result line.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs with
//! spans on (alternating with untraced slices to measure the overhead),
//! reports the per-layer metrics, and writes the spans to
//! `.bench_out/spans-<workload>.tsv`. See README.md for the workloads and
//! the metric definitions.

mod analytic;
mod disk;
mod oltp;
mod report;
mod restart;
mod stats;
mod trace;

use mmdb_storage::OwnedValue;
use report::Report;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Times the set-up phase runs per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;

/// Run `setup` [`SETUP_REPS`] times, dropping each state before building
/// the next, and keep the last together with every set-up time in seconds.
pub fn set_up<T>(mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (state.expect("SETUP_REPS is positive"), times)
}

/// A row of `Int` values.
#[must_use]
pub fn int_row(r: &[i64]) -> Vec<OwnedValue> {
    r.iter().map(|&v| OwnedValue::Int(v)).collect()
}

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the timed phase.
    pub run: Duration,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["analytic", "oltp", "restart"];

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <1..=600> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse(args: &[String]) -> Result<(String, Config), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be 1..=600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown argument {flag} {value}")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(w), Some(seed), Some(s), Some(trace)) => Ok((
            w,
            Config {
                seed,
                run: Duration::from_secs(s),
                trace,
            },
        )),
        _ => Err("every flag is required".into()),
    }
}

/// Whether the index layer's operation counters are compiled in (the
/// `stats` feature of `mmdb-index`, on by default).
fn stats_feature_on() -> bool {
    let c = mmdb_index::stats::Counters::default();
    c.comparisons(1);
    c.snapshot().comparisons == 1
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    println!(
        "# workload={workload} seed={} seconds={} trace={} host_cpus={host_cpus} profile={} \
         stats_feature={} default_dop={} clients={}",
        cfg.seed,
        cfg.run.as_secs(),
        u8::from(cfg.trace),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        if stats_feature_on() { "on" } else { "off" },
        mmdb_exec::ExecConfig::default().dop,
        if workload == "oltp" { oltp::CLIENTS } else { 1 },
    );
    trace::set_enabled(false);
    let mut report: Report = match workload.as_str() {
        "analytic" => analytic::run(&cfg),
        "oltp" => oltp::run(&cfg),
        _ => restart::run(&cfg),
    };
    for l in &report.lines {
        println!("{l}");
    }
    println!("{workload} peak_rss_mb {:?} MiB", report::peak_rss_mb());
    let failed_frac = stats::ratio(report.failed as f64, report.attempted as f64);
    println!(
        "{workload} failed_frac {failed_frac:?} ratio (failed {} of {} attempted)",
        report.failed, report.attempted
    );
    if cfg.trace {
        let spans = trace::take();
        let selfs = trace::self_by_layer(&spans);
        let per_request = report.traced_requests.max(1) as f64;
        for layer in report::LAYERS {
            let ns = selfs.get(layer).copied().unwrap_or(0) as f64;
            report.set(&format!("trace.self_us.{layer}"), ns / 1e3 / per_request);
        }
        let path = Path::new(".bench_out").join(format!("spans-{workload}.tsv"));
        match trace::write_tsv(&spans, &path) {
            Ok(()) => println!("# {} spans written to {}", spans.len(), path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
        println!("{}", report.json(&report::per_layer()));
    } else {
        let names: Vec<(String, &str)> = report::END_TO_END
            .iter()
            .map(|(n, u)| ((*n).to_string(), *u))
            .collect();
        println!("{}", report.json(&names));
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let (w, c) = parse(&args("--workload oltp --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(w, "oltp");
        assert_eq!((c.seed, c.run.as_secs(), c.trace), (7, 10, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload oltp --seed -1 --seconds 1 --trace 0",
            "--workload oltp --seed 1 --seconds 0 --trace 0",
            "--workload oltp --seed 1 --seconds 1 --trace 2",
            "--workload oltp --seed 1 --seconds 1",
            "--workload oltp --seed 1 --seconds 1 --trace",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
    }
}
