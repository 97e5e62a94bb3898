//! Regenerates the paper's Figures 14–21 (§6.2): data/repair and NACK
//! traffic for SRM and the SHARQFEC ablation ladder on the Figure 10
//! network under the paper's workload (1024 × 1000 B packets at
//! 800 kbit/s, groups of 16, joins at t = 1 s, data from t = 6 s).
//!
//! Run: `cargo run -p sharqfec-bench --release --bin fig14_21_traffic -- [--fig N] [--packets P] [--seed S] [--threads N] [--shards K] [--tsv] [--out DIR]`
//!
//! Without `--fig` all eight figures are printed.  `--tsv` emits the raw
//! binned series for plotting.  The protocol runs are independent, so
//! they fan out over the parallel sweep runner
//! (`sharqfec_netsim::runner`); per-run totals land in
//! `results/fig14_21_traffic.json`.  Results are identical at any
//! `--threads` value: each cell is a pure function of (scenario, seed) —
//! and at any `--shards` value, which shards each engine over the
//! Figure 10 backbone subtrees (conservative PDES, bit-identical).

use sharqfec::{SharqfecConfig, Variant};
use sharqfec_analysis::spark::spark_row;
use sharqfec_analysis::table::Table;
use sharqfec_bench::cli::{self, SweepArgs};
use sharqfec_bench::{Scenario, TrafficRun, Workload};
use sharqfec_srm::SrmConfig;
use std::num::NonZeroUsize;

struct Args {
    fig: Option<u32>,
    packets: u32,
    seed: u64,
    threads: NonZeroUsize,
    shards: usize,
    tsv: bool,
    policy: Option<sharqfec::PolicyConfig>,
    out: std::path::PathBuf,
}

fn parse_args() -> Args {
    let mut fig = None;
    let mut tsv = false;
    let mut shards = 1usize;
    let shared = SweepArgs::parse_with(1024, |flag, cur| match flag {
        "--fig" => {
            fig = Some(
                cur.value("--fig takes a number 14..=21")
                    .parse()
                    .expect("--fig takes a number 14..=21"),
            );
            true
        }
        "--tsv" => {
            tsv = true;
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
    Args {
        fig,
        packets: shared.packets,
        seed: shared.seed,
        threads: shared.threads,
        shards,
        tsv,
        policy: shared.policy,
        out: shared.out,
    }
}

/// Which series a figure plots: receiver data+repair, NACKs, or the
/// source's view.
enum Series {
    DataRepair,
    Nacks,
    SourceDataRepair,
    SourceNacks,
}

fn series_of(run: &TrafficRun, which: &Series) -> Vec<f64> {
    match which {
        Series::DataRepair => run.data_repair.clone(),
        Series::Nacks => run.nacks.clone(),
        Series::SourceDataRepair => run.source_data_repair.clone(),
        Series::SourceNacks => run.source_nacks.clone(),
    }
}

fn print_figure(fig: u32, runs: &[&TrafficRun], which: Series, caption: &str, tsv: bool) {
    println!("=== Figure {fig}: {caption} ===");
    for r in runs {
        if r.unrecovered > 0 {
            // SRM's exponential backoff leaves a long repair tail (the
            // paper's Figure 14 remarks on it); packets still in flight at
            // the measurement horizon are reported, not hidden.
            println!(
                "note: {} still had {} packets in recovery at the horizon",
                r.label, r.unrecovered
            );
        }
    }
    if tsv {
        let mut header = vec!["t".to_string()];
        header.extend(runs.iter().map(|r| r.label.clone()));
        let mut t = Table::new(header);
        let series: Vec<Vec<f64>> = runs.iter().map(|r| series_of(r, &which)).collect();
        for (i, &mid) in runs[0].time.iter().enumerate() {
            let mut row = vec![format!("{mid:.2}")];
            for s in &series {
                row.push(format!("{:.3}", s[i]));
            }
            t.row(row);
        }
        println!("{}", t.to_tsv());
    } else {
        let mut t = Table::new(vec![
            "protocol",
            "total",
            "peak/bin",
            "mean/bin",
            "repairs sent",
            "NACKs sent",
            "unrecovered",
        ]);
        for r in runs {
            let s = series_of(r, &which);
            let total: f64 = s.iter().sum();
            let peak = s.iter().copied().fold(0.0, f64::max);
            let mean = total / s.len().max(1) as f64;
            t.row(vec![
                r.label.clone(),
                format!("{total:.1}"),
                format!("{peak:.2}"),
                format!("{mean:.3}"),
                r.total_repairs.to_string(),
                r.total_nacks.to_string(),
                r.unrecovered.to_string(),
            ]);
        }
        println!("{}", t.to_aligned());
        // Shared-scale sparklines of the binned series (the figure's shape).
        let series: Vec<Vec<f64>> = runs.iter().map(|r| series_of(r, &which)).collect();
        let max = series
            .iter()
            .flat_map(|s| s.iter().copied())
            .fold(0.0, f64::max);
        for (r, s) in runs.iter().zip(&series) {
            println!("{}", spark_row(&r.label, s, max, 72));
        }
        println!();
    }
}

fn main() {
    let args = parse_args();
    let w = Workload {
        packets: args.packets,
        seed: args.seed,
        tail_secs: 45,
    };
    let want = |f: u32| args.fig.is_none() || args.fig == Some(f);

    // Run each protocol at most once and reuse across figures; the
    // independent runs fan out across the sweep runner's workers, each
    // cell keyed by its scenario's label.
    let sf = |v: Variant| {
        Scenario::sharqfec(v.label(), SharqfecConfig::variant(v), w)
            .audited()
            .with_shards(args.shards)
    };
    let mut scenarios = Vec::new();
    if want(14) || want(15) {
        scenarios.push(
            Scenario::srm("SRM", SrmConfig::default(), w)
                .audited()
                .with_shards(args.shards),
        );
    }
    scenarios.push(sf(Variant::Ecsrm));
    if want(16) {
        scenarios.push(sf(Variant::NoScopingNoInjection));
        scenarios.push(sf(Variant::NoScoping));
    }
    if want(18) {
        scenarios.push(sf(Variant::NoInjection));
    }
    scenarios.push(sf(Variant::Full));

    let scenarios = cli::apply_policy_override(scenarios, args.policy.as_ref());
    let results = cli::run_scenario_sweep(&scenarios, args.seed, args.threads, |s, seed| {
        s.run_traffic(seed)
    });
    cli::report_summary(results.write_json(&args.out, "fig14_21_traffic", |r| {
        let audit = r.audit.as_ref();
        vec![
            ("total_repairs".into(), r.total_repairs as f64),
            ("total_nacks".into(), r.total_nacks as f64),
            ("unrecovered".into(), r.unrecovered as f64),
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
    let mut by_label = std::collections::HashMap::new();
    for o in results.outcomes {
        match o.result {
            Ok(run) => {
                if let Some(a) = run.audit.as_ref() {
                    if !a.ok() {
                        audit_failures.push(format!("{}: {}", o.cell.scenario, a.summary));
                    }
                }
                by_label.insert(o.cell.scenario, run);
            }
            Err(e) => panic!("{e}"),
        }
    }
    let srm = by_label.remove("SRM");
    let ecsrm = by_label
        .remove(Variant::Ecsrm.label())
        .expect("ecsrm always runs");
    let ns_ni = by_label.remove(Variant::NoScopingNoInjection.label());
    let ns = by_label.remove(Variant::NoScoping.label());
    let ni = by_label.remove(Variant::NoInjection.label());
    let full = by_label
        .remove(Variant::Full.label())
        .expect("full always runs");

    if want(14) {
        print_figure(
            14,
            &[srm.as_ref().unwrap(), &ecsrm],
            Series::DataRepair,
            "data and repair traffic — SRM vs SHARQFEC(ns,ni,so)/ECSRM",
            args.tsv,
        );
    }
    if want(15) {
        print_figure(
            15,
            &[srm.as_ref().unwrap(), &ecsrm],
            Series::Nacks,
            "NACK traffic — SRM vs SHARQFEC(ns,ni,so)/ECSRM",
            args.tsv,
        );
    }
    if want(16) {
        print_figure(
            16,
            &[ns_ni.as_ref().unwrap(), ns.as_ref().unwrap()],
            Series::DataRepair,
            "data and repair traffic — SHARQFEC(ns,ni) vs SHARQFEC(ns)",
            args.tsv,
        );
    }
    if want(17) {
        print_figure(
            17,
            &[&ecsrm, &full],
            Series::DataRepair,
            "data and repair traffic — SHARQFEC(ns,ni,so) vs SHARQFEC",
            args.tsv,
        );
    }
    if want(18) {
        print_figure(
            18,
            &[ni.as_ref().unwrap(), &full],
            Series::DataRepair,
            "data and repair traffic — SHARQFEC(ni) vs SHARQFEC",
            args.tsv,
        );
    }
    if want(19) {
        print_figure(
            19,
            &[&ecsrm, &full],
            Series::Nacks,
            "NACK traffic — SHARQFEC(ns,ni,so) vs SHARQFEC",
            args.tsv,
        );
    }
    if want(20) {
        print_figure(
            20,
            &[&ecsrm, &full],
            Series::SourceDataRepair,
            "data and repair traffic seen by the source",
            args.tsv,
        );
    }
    if want(21) {
        print_figure(
            21,
            &[&ecsrm, &full],
            Series::SourceNacks,
            "NACK traffic seen by the source",
            args.tsv,
        );
    }

    cli::exit_on_audit_failures(&audit_failures);
}
