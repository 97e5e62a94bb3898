//! Hot-path microbenchmark baseline: event-loop events/sec, GF(256)
//! slice GB/s, FEC codec shards/sec, and sweep-runner thread scaling
//! (DESIGN.md §12).
//!
//! Run: `cargo run -p sharqfec-bench --release --bin microbench -- [--smoke] [--out DIR] [--check FILE]`
//!
//! Without flags the full profile runs and the summary lands in
//! `results/BENCH_microbench.json` (the sweep-runner schema).  `--smoke`
//! shrinks iteration counts for CI; `--check FILE` validates an existing
//! summary's schema instead of running anything, exiting 2 on gaps.

use sharqfec_bench::cli::{self, SweepArgs};
use sharqfec_bench::microbench::{self, MicrobenchConfig};

fn main() {
    let mut cfg = MicrobenchConfig::default();
    let mut check: Option<String> = None;
    let SweepArgs { out, .. } = SweepArgs::parse_with(0, |flag, cur| match flag {
        "--smoke" => {
            cfg.smoke = true;
            true
        }
        "--check" => {
            check = Some(cur.value("--check takes a file").to_string());
            true
        }
        _ => false,
    });

    if let Some(path) = check {
        cli::check_summary(&path, microbench::check);
        return;
    }

    let results = microbench::run(cfg);
    for o in &results.outcomes {
        match &o.result {
            Ok(metrics) => {
                print!("{}:", o.cell.scenario);
                for (k, v) in metrics {
                    print!(" {k}={v:.3e}");
                }
                println!(" ({:.1} ms)", o.wall.as_secs_f64() * 1e3);
            }
            Err(e) => eprintln!("{}: FAILED: {e}", o.cell.scenario),
        }
    }
    cli::report_summary(results.write_json(&out, microbench::SWEEP_NAME, Clone::clone));
    if results.ok_count() != results.outcomes.len() {
        std::process::exit(1);
    }
}
