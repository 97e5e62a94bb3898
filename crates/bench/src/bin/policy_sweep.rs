//! Injection-policy ablation: the three [`sharqfec::InjectionPolicy`]
//! implementations (EWMA / percentile / optimizing) crossed with the
//! Gilbert–Elliott mean-burst ladder, plus a Bernoulli "base" cell that
//! reproduces the ablation sweep's EWMA baseline cell bit-exactly.
//!
//! Reports repair traffic, NACK exposure, and the stream's
//! time-to-complete per cell; a machine-readable summary lands in
//! `results/BENCH_policy_sweep.json` (schema-gated in CI via
//! `--check`).
//!
//! Run: `cargo run -p sharqfec-bench --release --bin policy_sweep -- [--seed S] [--threads N] [--packets P] [--out DIR]`
//! Gate: `policy_sweep --check results/BENCH_policy_sweep.json`

use sharqfec_analysis::table::Table;
use sharqfec_bench::cli::{self, SweepArgs};
use sharqfec_bench::policy;

fn main() {
    let mut check: Option<String> = None;
    let SweepArgs {
        seed,
        threads,
        packets,
        policy: override_policy,
        out,
    } = SweepArgs::parse_with(256, |flag, cur| match flag {
        "--check" => {
            check = Some(cur.value("--check takes a summary JSON path").to_string());
            true
        }
        _ => false,
    });

    if let Some(path) = check {
        cli::check_summary(&path, policy::check);
        return;
    }

    // `--policy` narrows the grid to one arm (useful for tuning); the
    // default run compares all three.
    let specs = cli::apply_policy_override(policy::plan(packets), override_policy.as_ref());
    let results = cli::run_scenario_sweep(&specs, seed, threads, |s, seed| s.run(seed));

    let threads_used = results.threads;
    let wall = results.wall;
    cli::report_summary(results.write_json(&out, policy::SWEEP_NAME, |o| {
        let audit = o.audit.as_ref();
        vec![
            ("data_repair_per_rx".into(), o.data_repair_per_rx),
            ("nacks".into(), o.nacks as f64),
            ("repairs".into(), o.repairs as f64),
            ("unrecovered".into(), o.unrecovered as f64),
            (
                "time_to_complete_s".into(),
                o.time_to_complete.unwrap_or(-1.0),
            ),
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
        "policy",
        "loss",
        "data+repair/rx",
        "NACKs",
        "repairs",
        "ttc (s)",
        "unrecovered",
        "audit",
    ]);
    for o in results.into_values() {
        let (policy, cell) = o.label.split_once('/').expect("label is policy/cell");
        let audit = o.audit.as_ref().expect("every cell is audited");
        if !audit.ok() {
            audit_failures.push(format!("{}: {}", o.label, audit.summary));
        }
        t.row(vec![
            policy.to_string(),
            cell.to_string(),
            format!("{:.0}", o.data_repair_per_rx),
            o.nacks.to_string(),
            o.repairs.to_string(),
            o.time_to_complete
                .map_or("-".to_string(), |s| format!("{s:.2}")),
            o.unrecovered.to_string(),
            if audit.ok() {
                "ok".to_string()
            } else {
                format!("{} violations", audit.violations)
            },
        ]);
    }
    println!(
        "SHARQFEC injection-policy ablation ({packets} packets, Figure 10, \
         Gilbert-Elliott burst ladder, seed {seed})"
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
