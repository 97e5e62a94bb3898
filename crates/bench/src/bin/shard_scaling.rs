//! Shard-scaling measurement: one SHARQFEC scale cell run serially and
//! at increasing shard counts, verifying bit-identical results while
//! reporting throughput per configuration.
//!
//! Run: `cargo run -p sharqfec-bench --release --bin shard_scaling -- \
//!       [--receivers N] [--shards "1,2,4,8"] [--seed S] [--packets P]`
//!
//! The sharded engine is a conservative PDES: correctness never depends
//! on shard count, so the only honest question is throughput.  On a
//! single-core host the shard workers time-slice one CPU and the
//! barrier protocol is pure overhead — expect speedup ≤ 1 there; the
//! measurement is still useful as the determinism gate and as the
//! baseline the multi-core numbers are read against.

use sharqfec_analysis::table::Table;
use sharqfec_bench::cli::SweepArgs;
use sharqfec_bench::scale::{self, ScaleCell, ScaleOutcome};
use std::time::Instant;

fn main() {
    let mut receivers = 100_000usize;
    let mut shard_counts = vec![1usize, 2, 4, 8];
    let SweepArgs {
        seed,
        packets,
        policy,
        ..
    } = SweepArgs::parse_with(32, |flag, cur| match flag {
        "--receivers" => {
            receivers = cur
                .value("--receivers takes a node count")
                .parse()
                .expect("--receivers takes a positive integer");
            true
        }
        "--shards" => {
            shard_counts = cur
                .value("--shards takes a comma-separated list")
                .split(',')
                .map(|s| s.trim().parse().expect("--shards takes integers"))
                .collect();
            assert!(!shard_counts.is_empty(), "--shards list must be non-empty");
            true
        }
        _ => false,
    });
    assert!(
        policy.is_none(),
        "shard_scaling measures the engine; --policy does not apply"
    );

    let cell = ScaleCell {
        receivers,
        srm: false,
    };
    println!(
        "shard scaling on sharqfec/n={receivers} ({packets} packets, seed {seed}, \
         host cores: {})",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    println!();

    let mut runs: Vec<(f64, ScaleOutcome)> = Vec::new();
    for &shards in &shard_counts {
        let start = Instant::now();
        let outcome = scale::run_cell(cell, seed, packets, shards);
        runs.push((start.elapsed().as_secs_f64(), outcome));
    }

    // Determinism gate: every sharded run must match the first run
    // field-for-field on everything but throughput.
    let (_, baseline) = &runs[0];
    for (_, o) in &runs[1..] {
        let same = o.session_deliveries == baseline.session_deliveries
            && o.session_norm == baseline.session_norm
            && o.data_repair == baseline.data_repair
            && o.nacks == baseline.nacks
            && o.unrecovered == baseline.unrecovered
            && o.state_bytes_per_rx == baseline.state_bytes_per_rx
            && o.peers_per_rx == baseline.peers_per_rx
            && o.events == baseline.events
            && o.audit == baseline.audit;
        assert!(
            same,
            "sharded run ({} shards) diverged from the {}-shard baseline",
            o.shards, baseline.shards
        );
    }

    let serial_wall = runs[0].0;
    let mut t = Table::new(vec!["shards", "events", "wall s", "ev/s", "speedup"]);
    for (wall, o) in &runs {
        t.row(vec![
            o.shards.to_string(),
            o.events.to_string(),
            format!("{wall:.1}"),
            format!("{:.2e}", o.events_per_sec),
            format!("{:.2}x", serial_wall / wall),
        ]);
    }
    println!("{}", t.to_aligned());
    println!();
    println!(
        "all {} configurations bit-identical ({} events, {} unrecovered, audit {})",
        runs.len(),
        baseline.events,
        baseline.unrecovered,
        if baseline.audit.ok() { "ok" } else { "FAILED" }
    );
}
