//! `perfbench`: runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <session_scale|repair_storm|flash_sharded|all>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --emit <benchmark|catalogue>
//! ```
//!
//! Human-readable lines go to stderr; the last stdout line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`.  `--workload
//! all` runs every workload and prefixes metric names with the workload.
//! `--emit` prints `BENCHMARK.json` or `perfbench/catalogue.json`.

use sharqfec_perfbench::catalogue;
use sharqfec_perfbench::run::{self, Report};
use sharqfec_perfbench::workload::Workload;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <session_scale|repair_storm|flash_sharded|all> \
         [--seed N] [--seconds S] [--trace 0|1] | --emit <benchmark|catalogue>"
    );
    ExitCode::from(2)
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: catalogue::RUN_SECONDS,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                args.workloads = if value == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(&value).ok_or(format!("unknown workload {value}"))?]
                }
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn json_number(x: Option<f64>) -> String {
    match x {
        Some(x) if x.is_finite() => format!("{x}"),
        _ => "null".into(),
    }
}

fn print_report(prefix: &str, report: &Report) -> String {
    let mut fields = Vec::new();
    for m in &report.metrics {
        let unit = catalogue::unit(m.name).expect("every reported metric is catalogued");
        eprintln!(
            "  {prefix}{:<32} {:>16} {unit}",
            m.name,
            m.value.map_or("unavailable".into(), |x| format!("{x:.6}"))
        );
        fields.push(format!(
            "\"{prefix}{}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            m.name,
            json_number(m.value)
        ));
    }
    fields.join(", ")
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("--emit") {
        argv.next();
        return match argv.next().as_deref() {
            Some("benchmark") => {
                print!("{}", catalogue::benchmark_json());
                ExitCode::SUCCESS
            }
            Some("catalogue") => {
                print!("{}", catalogue::catalogue_json());
                ExitCode::SUCCESS
            }
            _ => usage("--emit takes benchmark or catalogue"),
        };
    }
    let args = match parse(argv) {
        Ok(a) => a,
        Err(msg) => return usage(&msg),
    };
    let budget = Duration::from_secs(args.seconds);
    let mut correct = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut fields = Vec::new();
    for &w in &args.workloads {
        let shape = w.shape();
        let report = if args.trace {
            run::traced(w, shape, args.seed)
        } else {
            run::untraced(w, shape, args.seed, budget)
        };
        eprintln!(
            "{} seed {} trace {}: correct={} attempted={} failed={} recovery samples={}",
            w.name(),
            args.seed,
            u8::from(args.trace),
            report.correct,
            report.attempted,
            report.failed,
            report.recovery_samples
        );
        let prefix = if args.workloads.len() > 1 {
            format!("{}.", w.name())
        } else {
            String::new()
        };
        fields.push(print_report(&prefix, &report));
        correct &= report.correct;
        attempted += report.attempted;
        failed += report.failed;
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
