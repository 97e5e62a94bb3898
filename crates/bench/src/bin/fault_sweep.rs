//! Burst-loss × fault-plan sweep: SHARQFEC (full ladder) on the Figure 10
//! network with every lossy link re-modelled as a Gilbert–Elliott chain,
//! crossed with a mid-stream backbone link flap.
//!
//! The grid is mean burst length {1, 4, 8, 16} packets (mb=1 is the
//! memoryless control — same mean loss as the paper's Bernoulli plan) ×
//! loss scale {0.5, 1.0, 1.5}.  Every cell additionally flaps the
//! source↔mesh link of tree 3 from t = 7 s to t = 9 s, cutting 16
//! receivers off mid-stream; the recovery machinery must still deliver
//! everything by the horizon (`unrecovered` = 0 columns demonstrate it).
//! The tail is 82 s: at mean burst 16 an unlucky chain realization can
//! keep a group in exponential-backoff repair for well over a minute
//! after the stream ends, and the horizon must outlast the worst cell.
//!
//! Cells fan out over the parallel sweep runner in streaming recorder
//! mode; results are identical at any `--threads` value.  A
//! machine-readable summary lands in `results/fault_sweep.json`.
//!
//! Run: `cargo run -p sharqfec-bench --release --bin fault_sweep -- [--seed S] [--threads N] [--packets P] [--out DIR]`

use sharqfec::SharqfecConfig;
use sharqfec_analysis::table::Table;
use sharqfec_bench::cli::{self, SweepArgs};
use sharqfec_bench::{Scenario, Workload};
use sharqfec_netsim::faults::FaultPlan;
use sharqfec_netsim::SimTime;
use sharqfec_topology::figure10::mesh_node;
use sharqfec_topology::{figure10, Figure10Params};

/// The link that flaps: tree 3's backbone attachment.  Link ids depend
/// only on construction order, so computing it on a throwaway build is
/// valid for every cell in the grid.
fn flapped_link() -> sharqfec_netsim::graph::LinkId {
    let built = figure10(&Figure10Params::default());
    built
        .topology
        .link_between(built.source, mesh_node(3))
        .expect("figure 10 wires every mesh router to the source")
}

fn plan(packets: u32) -> Vec<Scenario> {
    let workload = Workload {
        packets,
        seed: 0, // per-cell seeds come from runner::Cell
        tail_secs: 82,
    };
    let flap =
        FaultPlan::new().link_flap(flapped_link(), SimTime::from_secs(7), SimTime::from_secs(9));
    let mut cells = Vec::new();
    for mean_burst in [1.0f64, 4.0, 8.0, 16.0] {
        for scale in [0.5f64, 1.0, 1.5] {
            cells.push(
                Scenario::sharqfec(
                    format!("mb={mean_burst}/x{scale}"),
                    SharqfecConfig::full(),
                    workload,
                )
                .with_params(Figure10Params::default().scaled_loss(scale))
                .with_burst(mean_burst)
                .with_faults(flap.clone())
                .streaming()
                .audited(),
            );
        }
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
    } = SweepArgs::parse(128);

    let specs = cli::apply_policy_override(plan(packets), policy.as_ref());
    let results = cli::run_scenario_sweep(&specs, seed, threads, |s, seed| s.run(seed));

    let threads_used = results.threads;
    let wall = results.wall;
    cli::report_summary(results.write_json(&out, "fault_sweep", |o| {
        let audit = o.audit.as_ref();
        vec![
            ("data_repair_per_rx".into(), o.data_repair_per_rx),
            ("nacks".into(), o.nacks as f64),
            ("repairs".into(), o.repairs as f64),
            ("unrecovered".into(), o.unrecovered as f64),
            ("dropped".into(), o.dropped as f64),
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
        "mean burst",
        "loss scale",
        "data+repair/rx",
        "NACKs",
        "repairs",
        "dropped",
        "unrecovered",
        "audit",
    ]);
    for o in results.into_values() {
        let (mb, scale) = o.label.split_once('/').expect("label is mb=N/xS");
        let audit = o.audit.as_ref().expect("every cell is audited");
        if !audit.ok() {
            audit_failures.push(format!("{}: {}", o.label, audit.summary));
        }
        t.row(vec![
            mb.to_string(),
            scale.to_string(),
            format!("{:.0}", o.data_repair_per_rx),
            o.nacks.to_string(),
            o.repairs.to_string(),
            o.dropped.to_string(),
            o.unrecovered.to_string(),
            if audit.ok() {
                "ok".to_string()
            } else {
                format!("{} violations", audit.violations)
            },
        ]);
    }
    println!(
        "SHARQFEC under Gilbert-Elliott burst loss + backbone flap 7s-9s \
         ({packets} packets, Figure 10, seed {seed})"
    );
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
