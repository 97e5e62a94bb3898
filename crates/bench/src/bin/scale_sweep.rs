//! Large-n scaling run: SHARQFEC vs SRM session traffic, per-receiver
//! resident state, and simulator throughput on the hierarchical
//! `topology::scaled` generator (see `sharqfec_bench::scale` for the
//! measurement design and its honesty caveats).
//!
//! Run: `cargo run -p sharqfec-bench --release --bin scale_sweep -- \
//!       [--smoke] [--mega] [--seed S] [--threads N] [--shards K] \
//!       [--packets P] [--out DIR]`
//! Gate: `scale_sweep --check results/BENCH_scale_sweep.json`
//!
//! `--smoke` runs the 10²/10³ CI grid; the default adds 10⁴ and 10⁵;
//! `--mega` appends the opt-in 10⁶ cell (consider `--threads 1` — two
//! million-agent engines resident at once is a lot of memory).
//! `--shards K` runs each engine sharded over K zone subtrees
//! (conservative PDES); results are bit-identical to `--shards 1`,
//! only `events_per_sec`/`wall_ms` change.

use sharqfec_analysis::table::Table;
use sharqfec_bench::cli::{self, SweepArgs};
use sharqfec_bench::scale;
use sharqfec_netsim::runner::{run_sweep, Cell};

fn main() {
    let mut check: Option<String> = None;
    let mut smoke = false;
    let mut mega = false;
    let mut shards = 1usize;
    let SweepArgs {
        seed,
        threads,
        packets,
        policy,
        out,
    } = SweepArgs::parse_with(32, |flag, cur| match flag {
        "--check" => {
            check = Some(cur.value("--check takes a summary JSON path").to_string());
            true
        }
        "--smoke" => {
            smoke = true;
            true
        }
        "--mega" => {
            mega = true;
            true
        }
        "--shards" => {
            shards = cur
                .value("--shards takes a shard count")
                .parse()
                .expect("--shards takes a positive integer");
            assert!(shards >= 1, "--shards takes a positive integer");
            true
        }
        _ => false,
    });
    assert!(
        policy.is_none(),
        "scale_sweep measures the session plane; --policy does not apply"
    );

    if let Some(path) = check {
        cli::check_summary(&path, scale::check);
        return;
    }

    let mut sizes: Vec<usize> = if smoke {
        scale::SMOKE_SIZES.to_vec()
    } else {
        scale::SIZES.to_vec()
    };
    if mega {
        sizes.push(1_000_000);
    }

    let specs = scale::plan(&sizes);
    let cells: Vec<Cell> = specs.iter().map(|c| Cell::new(c.label(), seed)).collect();
    let results = run_sweep(cells, threads, |cell| {
        let spec = specs
            .iter()
            .find(|c| c.label() == cell.scenario)
            .expect("cell matches a planned scale cell");
        scale::run_cell(*spec, cell.seed, packets, shards)
    });

    let threads_used = results.threads;
    let wall = results.wall;
    cli::report_summary(results.write_json(&out, scale::SWEEP_NAME, scale::metrics));

    let mut audit_failures = Vec::new();
    let mut t = Table::new(vec![
        "cell",
        "session",
        "(norm)",
        "stride",
        "state B/rx",
        "peers/rx",
        "events",
        "ev/s",
        "audit",
    ]);
    for o in results.into_values() {
        if !o.audit.ok() {
            audit_failures.push(format!("{}: {}", o.label, o.audit.summary));
        }
        if o.unrecovered > 0 {
            audit_failures.push(format!(
                "{}: {} packets unrecovered",
                o.label, o.unrecovered
            ));
        }
        t.row(vec![
            o.label,
            o.session_deliveries.to_string(),
            format!("{:.3e}", o.session_norm),
            o.announce_stride.to_string(),
            format!("{:.0}", o.state_bytes_per_rx),
            format!("{:.0}", o.peers_per_rx),
            o.events.to_string(),
            format!("{:.2e}", o.events_per_sec),
            if o.audit.ok() {
                "ok".to_string()
            } else {
                format!("{} violations", o.audit.violations)
            },
        ]);
    }
    println!(
        "SHARQFEC-vs-SRM scaling sweep ({packets} packets, scaled trees, \
         lossless session plane, seed {seed})"
    );
    println!(
        "({} cells on {} threads, {:.1}s wall, aggregate recorder)",
        specs.len(),
        threads_used,
        wall.as_secs_f64()
    );
    println!();
    println!("{}", t.to_aligned());

    cli::exit_on_audit_failures(&audit_failures);
}
