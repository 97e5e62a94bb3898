//! Audited workload-scenario run: flash crowds, churn, and correlated
//! regional outages on scaled trees (see `sharqfec_bench::scenario` for
//! the grid and the invariants gated per cell).
//!
//! Run: `cargo run -p sharqfec-bench --release --bin scenario_sweep -- \
//!       [--smoke] [--seed S] [--threads N] [--shards K] [--packets P] \
//!       [--out DIR]`
//! Gate: `scenario_sweep --check results/BENCH_scenario_sweep.json`
//!
//! `--smoke` runs the three-cell CI grid; the default runs the full
//! flash × churn × outage cross plus the 10⁴-receiver flash-crowd
//! acceptance cell.  `--shards K` runs each engine sharded over K zone
//! subtrees; results are bit-identical to `--shards 1`, only
//! `events_per_sec`/`wall_ms` change.

use sharqfec_analysis::table::Table;
use sharqfec_bench::cli::{self, SweepArgs};
use sharqfec_bench::scenario;
use sharqfec_netsim::runner::{run_sweep, Cell};

fn main() {
    let mut check: Option<String> = None;
    let mut smoke = false;
    let mut shards = 1usize;
    let SweepArgs {
        seed,
        threads,
        packets,
        policy,
        out,
    } = SweepArgs::parse_with(64, |flag, cur| match flag {
        "--check" => {
            check = Some(cur.value("--check takes a summary JSON path").to_string());
            true
        }
        "--smoke" => {
            smoke = true;
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
        "scenario_sweep runs full SHARQFEC; --policy does not apply"
    );

    if let Some(path) = check {
        cli::check_summary(&path, scenario::check);
        return;
    }

    let specs = if smoke {
        scenario::smoke_grid()
    } else {
        scenario::default_grid()
    };
    let cells: Vec<Cell> = specs.iter().map(|c| Cell::new(c.label(), seed)).collect();
    let results = run_sweep(cells, threads, |cell| {
        let spec = specs
            .iter()
            .find(|c| c.label() == cell.scenario)
            .expect("cell matches a planned scenario cell");
        scenario::run_cell(*spec, cell.seed, packets, shards)
    });

    let threads_used = results.threads;
    let wall = results.wall;
    cli::report_summary(results.write_json(&out, scenario::SWEEP_NAME, scenario::metrics));

    let mut failures = Vec::new();
    let mut t = Table::new(vec![
        "cell",
        "unrec",
        "flash rep/member",
        "nacks",
        "repairs",
        "events",
        "ev/s",
        "audit",
    ]);
    for o in results.into_values() {
        if !o.audit.ok() {
            failures.push(format!("{}: {}", o.label, o.audit.summary));
        }
        if o.unrecovered > 0 {
            failures.push(format!(
                "{}: {} packets unrecovered",
                o.label, o.unrecovered
            ));
        }
        if o.flash > 0
            && o.flash_repair_per_member > scenario::REPAIR_BOUND_FACTOR * o.packets as f64
        {
            failures.push(format!(
                "{}: joining-zone repair traffic unbounded ({:.1}/member)",
                o.label, o.flash_repair_per_member
            ));
        }
        t.row(vec![
            o.label,
            o.unrecovered.to_string(),
            format!("{:.1}", o.flash_repair_per_member),
            o.nacks.to_string(),
            o.repairs.to_string(),
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
        "Workload-scenario sweep ({packets} packets, scaled trees, audited \
         membership, seed {seed})"
    );
    println!(
        "({} cells on {} threads, {:.1}s wall, streaming recorder)",
        specs.len(),
        threads_used,
        wall.as_secs_f64()
    );
    println!();
    println!("{}", t.to_aligned());

    cli::exit_on_audit_failures(&failures);
}
