//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload batch_scan|serve_ingest --seed N
//!           --seconds S --trace 0|1 --sqlts PATH [--out DIR]
//! ```
//!
//! Runs one workload over inputs generated from the seed, checks every
//! output against the in-process batch path, prints one line per metric
//! and, as the last line, a JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics with `--trace 0`, per-layer
//! metrics with `--trace 1`).  Exit code 1 when any output was wrong,
//! 2 on bad arguments or when the run could not complete.

mod client;
mod gen;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Config, Report, Workload};

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: Workload::BatchScan,
        seed: 1,
        seconds: 20.0,
        traced: false,
        sqlts: PathBuf::new(),
        out: PathBuf::from("."),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| bad("batch_scan or serve_ingest"))?,
                )
            }
            "--seed" => cfg.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|_| bad("a number"))?;
                if cfg.seconds.is_nan() || cfg.seconds <= 0.0 {
                    return Err(bad("a positive number"));
                }
            }
            "--trace" => {
                cfg.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--sqlts" => cfg.sqlts = PathBuf::from(value),
            "--out" => cfg.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    if cfg.sqlts.as_os_str().is_empty() {
        return Err("--sqlts PATH (the sqlts binary) is required".into());
    }
    Ok(cfg)
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn print(cfg: &Config, report: &Report) {
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.traced)
    );
    for note in &report.notes {
        println!("{note}");
    }
    for (name, value, unit) in report.e2e.iter().chain(&report.layer) {
        println!("{name:<36} {value:>16.4} {unit}");
    }
    println!(
        "{:<36} {:>16.4} ratio ({} failed / {} attempted)",
        "error_rate",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    let metrics = if cfg.traced {
        &report.layer
    } else {
        &report.e2e
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed,
        json_metrics(metrics)
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.out) {
        eprintln!("perfbench: cannot create {}: {e}", cfg.out.display());
        return ExitCode::from(2);
    }
    match workload::run(&cfg) {
        Ok(report) => {
            print(&cfg, &report);
            if report.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {} did not complete: {e}", cfg.workload.name());
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_run_flags() {
        let cfg = parse_args(&args(
            "--workload serve_ingest --seed 7 --seconds 10 --trace 1 --sqlts bin/sqlts",
        ))
        .unwrap();
        assert_eq!(cfg.workload, Workload::ServeIngest);
        assert_eq!((cfg.seed, cfg.seconds, cfg.traced), (7, 10.0, true));
    }

    #[test]
    fn rejects_bad_flags() {
        for bad in [
            "--workload serve_fanout --sqlts x",
            "--workload batch_scan",
            "--workload batch_scan --sqlts x --trace 2",
            "--workload batch_scan --sqlts x --seconds -1",
            "--workload batch_scan --sqlts x --bogus 1",
            "--workload batch_scan --sqlts x --scale 0.5",
            "--workload batch_scan --sqlts x --seed",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn metrics_render_as_json_objects() {
        let json = json_metrics(&[("a_ms", 1.5, "ms"), ("b", f64::NAN, "ratio")]);
        assert_eq!(
            json,
            "\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 0, \"unit\": \"ratio\"}"
        );
    }
}
