//! Ablation sweeps over SHARQFEC's design choices (DESIGN.md §8):
//!
//! * **group size** `k` — 8 / 16 (paper) / 32: smaller groups repair
//!   faster but amortize FEC worse;
//! * **ZLC EWMA gain** — 0.1 / 0.25 (paper) / 0.5: how fast preemptive
//!   injection tracks loss;
//! * **adaptive request timers** (the §7 future-work extension) vs the
//!   paper's fixed C1 = C2 = 2;
//! * **loss scaling** — ×0.5 / ×1.0 / ×1.5 the paper's loss plan.
//!
//! Each run reports per-receiver recovery traffic, NACK exposure, repair
//! count, and the recovery tail.
//!
//! The cells fan out over the parallel sweep runner
//! (`sharqfec_netsim::runner`), each engine in **streaming** recorder mode:
//! every number below comes from the recorder's O(1) aggregate tables, so
//! no raw event traces are kept.  A machine-readable summary lands in
//! `results/ablation_sweep.json`.
//!
//! Run: `cargo run -p sharqfec-bench --release --bin ablation_sweep -- [--seed S] [--threads N] [--packets P] [--out DIR]`

use sharqfec::{PolicyKind, SharqfecConfig};
use sharqfec_analysis::table::Table;
use sharqfec_bench::cli::{self, SweepArgs};
use sharqfec_bench::{Scenario, Workload};
use sharqfec_topology::Figure10Params;

/// Workload matching the old harness: 256 packets, run to t = 60 s.
fn workload(packets: u32) -> Workload {
    Workload {
        packets,
        seed: 0,       // per-cell seeds come from runner::Cell
        tail_secs: 51, // stream ends at 6 s + 2.56 s; 60 s total
    }
}

fn scenario(
    sweep: &str,
    setting: &str,
    cfg: SharqfecConfig,
    loss_scale: f64,
    packets: u32,
) -> Scenario {
    Scenario::sharqfec(format!("{sweep}/{setting}"), cfg, workload(packets))
        .with_params(Figure10Params::default().scaled_loss(loss_scale))
        .streaming()
        .audited()
}

/// The full grid: one [`Scenario`] per table row, labelled `sweep/setting`.
fn plan(packets: u32) -> Vec<Scenario> {
    let base = SharqfecConfig::full;
    let mut cells = Vec::new();
    for k in [8u32, 16, 32] {
        let cfg = SharqfecConfig {
            group_size: k,
            ..base()
        };
        cells.push(scenario("group size", &format!("k={k}"), cfg, 1.0, packets));
    }
    for gain in [0.1f64, 0.25, 0.5] {
        let mut cfg = base();
        cfg.policy.kind = PolicyKind::Ewma {
            gain,
            initial_pred: 1.0,
        };
        cells.push(scenario(
            "zlc EWMA gain",
            &format!("w={gain}"),
            cfg,
            1.0,
            packets,
        ));
    }
    for adaptive in [false, true] {
        let cfg = SharqfecConfig {
            adaptive_timers: adaptive,
            ..base()
        };
        let setting = if adaptive {
            "adaptive (§7)"
        } else {
            "fixed (paper)"
        };
        cells.push(scenario("request timers", setting, cfg, 1.0, packets));
    }
    for scale in [0.5f64, 1.0, 1.5] {
        cells.push(scenario(
            "loss scale",
            &format!("x{scale}"),
            base(),
            scale,
            packets,
        ));
    }
    cells
}

fn main() {
    let SweepArgs {
        seed,
        threads,
        packets,
        policy,
        out,
    } = SweepArgs::parse(256);

    let specs = cli::apply_policy_override(plan(packets), policy.as_ref());
    let results = cli::run_scenario_sweep(&specs, seed, threads, |s, seed| s.run(seed));

    let threads_used = results.threads;
    let wall = results.wall;
    cli::report_summary(results.write_json(&out, "ablation_sweep", |o| {
        let audit = o.audit.as_ref();
        vec![
            ("data_repair_per_rx".into(), o.data_repair_per_rx),
            ("nacks".into(), o.nacks as f64),
            ("repairs".into(), o.repairs as f64),
            ("unrecovered".into(), o.unrecovered as f64),
            (
                "audit_events".into(),
                audit.map_or(0.0, |a| a.events as f64),
            ),
            (
                "audit_violations".into(),
                audit.map_or(0.0, |a| a.violations as f64),
            ),
        ]
    }));

    let mut audit_failures = Vec::new();
    let mut t = Table::new(vec![
        "sweep",
        "setting",
        "data+repair/rx",
        "NACKs",
        "repairs",
        "unrecovered",
        "audit",
    ]);
    for o in results.into_values() {
        let (sweep, setting) = o.label.split_once('/').expect("label is sweep/setting");
        let audit = o.audit.as_ref().expect("every cell is audited");
        if !audit.ok() {
            audit_failures.push(format!("{}: {}", o.label, audit.summary));
        }
        t.row(vec![
            sweep.to_string(),
            setting.to_string(),
            format!("{:.0}", o.data_repair_per_rx),
            o.nacks.to_string(),
            o.repairs.to_string(),
            o.unrecovered.to_string(),
            if audit.ok() {
                "ok".to_string()
            } else {
                format!("{} violations", audit.violations)
            },
        ]);
    }
    println!("SHARQFEC ablation sweeps ({packets} packets, Figure 10, seed {seed})");
    println!(
        "({} cells on {} threads, {:.1}s wall, streaming recorder)",
        specs.len(),
        threads_used,
        wall.as_secs_f64()
    );
    println!();
    println!("{}", t.to_aligned());

    cli::exit_on_audit_failures(&audit_failures);
}
