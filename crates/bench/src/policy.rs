//! The injection-policy ablation grid (`policy_sweep` binary).
//!
//! Three [`sharqfec::InjectionPolicy`] implementations — the paper's
//! EWMA, the quantile tracker, and the TAROT-style optimizing
//! controller — run the same workload over the Gilbert–Elliott burst
//! ladder from `fault_sweep` (no faults: this grid isolates the
//! predictor), plus a Bernoulli "base" cell that is configured
//! identically to the ablation sweep's EWMA baseline so the two sweeps
//! pin each other.  Compared per cell: repair traffic, NACK count, and
//! the stream's time-to-complete.
//!
//! [`check`] is the CI gate over `results/BENCH_policy_sweep.json`:
//! schema, the EWMA baseline's bit-exact historical numbers, and the
//! redesign's payoff criterion (the optimizing policy spends fewer
//! repair packets than the EWMA on the long-burst cells at full
//! delivery).

use crate::{Scenario, Workload};
use sharqfec::{PolicyConfig, SharqfecConfig};
use sharqfec_netsim::runner::SweepSummary;
use sharqfec_topology::Figure10Params;

/// Sweep name; the summary lands in `results/BENCH_policy_sweep.json`.
pub const SWEEP_NAME: &str = "BENCH_policy_sweep";

/// The policies compared, by [`PolicyConfig::named`] name.
pub const POLICIES: [&str; 3] = ["ewma", "percentile", "optimizing"];

/// The loss cells: the Bernoulli baseline plus the Gilbert–Elliott
/// mean-burst ladder (packets per burst; equal mean loss throughout).
pub const CELLS: [(&str, Option<f64>); 5] = [
    ("base", None),
    ("mb=1", Some(1.0)),
    ("mb=4", Some(4.0)),
    ("mb=8", Some(8.0)),
    ("mb=16", Some(16.0)),
];

/// The `ewma/base` cell must reproduce the ablation sweep's EWMA
/// baseline ("zlc EWMA gain/w=0.25", seed 42, 256 packets) bit-exactly:
/// same scenario, same seed, different harness.
pub const EWMA_BASE_PINS: [(&str, &str); 5] = [
    ("data_repair_per_rx", "341.7857142857143"),
    ("nacks", "209"),
    ("repairs", "562"),
    ("unrecovered", "0"),
    ("audit_events", "5923"),
];

/// Metric keys every cell must carry.
pub const REQUIRED_METRICS: [&str; 7] = [
    "data_repair_per_rx",
    "nacks",
    "repairs",
    "unrecovered",
    "time_to_complete_s",
    "audit_events",
    "audit_violations",
];

/// The full grid: `policy/cell` labelled scenarios, every cell audited
/// and streaming (metrics come from the recorder's O(1) totals).
pub fn plan(packets: u32) -> Vec<Scenario> {
    let workload = Workload {
        packets,
        seed: 0, // per-cell seeds come from runner::Cell
        tail_secs: 51,
    };
    let mut cells = Vec::new();
    for policy in POLICIES {
        for (cell, mean_burst) in CELLS {
            let mut s =
                Scenario::sharqfec(format!("{policy}/{cell}"), SharqfecConfig::full(), workload)
                    .with_policy(PolicyConfig::named(policy).expect("known policy"))
                    .with_params(Figure10Params::default().scaled_loss(1.0))
                    .streaming()
                    .audited();
            if let Some(mb) = mean_burst {
                s = s.with_burst(mb);
            }
            cells.push(s);
        }
    }
    cells
}

/// Validates a `BENCH_policy_sweep.json` summary (seed-42 defaults):
/// the shared schema, exactly the grid's cells each with the required
/// metrics, zero audit violations, the `ewma/base` cell bit-identical to
/// the pre-redesign ablation baseline, and the optimizing policy beating
/// the EWMA's repair bill on the long-burst cells (mb ≥ 8) at full
/// delivery.  Returns problems (empty = pass).
pub fn check(summary: &SweepSummary) -> Vec<String> {
    let mut problems = summary.schema_problems(SWEEP_NAME);
    let total = POLICIES.len() * CELLS.len();
    if summary.cells.len() != total {
        problems.push(format!(
            "expected {total} cells, found {}",
            summary.cells.len()
        ));
    }
    for policy in POLICIES {
        for (cell, _) in CELLS {
            let label = format!("{policy}/{cell}");
            let Some(c) = summary.cell(&label) else {
                problems.push(format!("missing cell {label:?}"));
                continue;
            };
            for m in REQUIRED_METRICS {
                if c.metric(m).is_none() {
                    problems.push(format!("missing metric {m:?} (cell {label:?})"));
                }
            }
            if c.metric("audit_violations") != Some(0.0) {
                problems.push(format!("cell {label:?} has audit violations"));
            }
        }
    }
    // The EWMA arm must not have moved: its base cell re-runs the
    // ablation sweep's historical baseline under a different harness.
    if let Some(c) = summary.cell("ewma/base") {
        for (key, value) in EWMA_BASE_PINS {
            if c.metric(key) != value.parse().ok() {
                problems.push(format!(
                    "ewma/base {key} drifted from the pinned baseline {value}"
                ));
            }
        }
    }
    // The redesign's payoff: under sustained bursts the optimizing
    // controller must deliver everything with a smaller repair bill.
    for cell in ["mb=8", "mb=16"] {
        let (Some(ewma), Some(opt)) = (
            summary.cell(&format!("ewma/{cell}")),
            summary.cell(&format!("optimizing/{cell}")),
        ) else {
            continue; // already reported as missing
        };
        if opt.metric("unrecovered") != Some(0.0) {
            problems.push(format!("optimizing/{cell} did not deliver everything"));
            continue;
        }
        match (ewma.metric("repairs"), opt.metric("repairs")) {
            (Some(e), Some(o)) if o < e => {}
            (e, o) => problems.push(format!(
                "optimizing/{cell} repairs ({o:?}) not below ewma ({e:?})"
            )),
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Protocol;

    #[test]
    fn plan_covers_the_policy_by_burst_grid() {
        let specs = plan(256);
        assert_eq!(specs.len(), 15);
        for policy in POLICIES {
            for (cell, mb) in CELLS {
                let s = specs
                    .iter()
                    .find(|s| s.label == format!("{policy}/{cell}"))
                    .expect("cell planned");
                assert_eq!(s.mean_burst, mb);
                assert!(s.audit);
                let Protocol::Sharqfec(cfg) = &s.protocol else {
                    panic!("policy sweep is SHARQFEC-only");
                };
                assert_eq!(cfg.policy.name(), policy);
            }
        }
    }

    /// The pinned value of one `ewma/base` metric.
    fn pinned(key: &str) -> &'static str {
        EWMA_BASE_PINS
            .iter()
            .find(|(k, _)| *k == key)
            .expect("key is pinned")
            .1
    }

    /// A summary that satisfies every check, for exercising the gate
    /// logic.  Metric values come from [`EWMA_BASE_PINS`] so re-deriving
    /// the pins never breaks the fixture.
    fn good_summary() -> SweepSummary {
        let pin = |key| pinned(key).parse::<f64>().expect("pins are numbers");
        let cells = POLICIES
            .iter()
            .flat_map(|p| CELLS.iter().map(move |(c, _)| format!("{p}/{c}")))
            .map(|label| {
                let repairs = match label.as_str() {
                    l if l.starts_with("optimizing/") => 500.0,
                    "ewma/base" => pin("repairs"),
                    _ => 900.0,
                };
                let metrics = vec![
                    ("data_repair_per_rx", pin("data_repair_per_rx")),
                    ("nacks", pin("nacks")),
                    ("repairs", repairs),
                    ("unrecovered", 0.0),
                    ("time_to_complete_s", 9.5),
                    ("audit_events", pin("audit_events")),
                    ("audit_violations", 0.0),
                ];
                (label, metrics)
            })
            .collect();
        crate::summary_fixture(SWEEP_NAME, cells)
    }

    #[test]
    fn checker_accepts_a_conforming_summary() {
        // The pinned EWMA numbers double as this fixture's values, so a
        // conforming summary passes clean.
        assert_eq!(check(&good_summary()), Vec::<String>::new());
    }

    #[test]
    fn checker_flags_schema_and_criterion_breaks() {
        assert!(!check(&crate::summary_fixture(SWEEP_NAME, Vec::new())).is_empty());

        // Drift in the pinned EWMA baseline is caught…
        let mut drifted = good_summary();
        crate::set_metric(&mut drifted, "ewma/base", "data_repair_per_rx", 340.0);
        assert!(check(&drifted)
            .iter()
            .any(|p| p.contains("drifted from the pinned baseline")));

        // …and so is an optimizing arm that stopped paying for itself.
        let mut regressed = good_summary();
        crate::set_metric(&mut regressed, "optimizing/mb=8", "repairs", 900.0);
        assert!(check(&regressed)
            .iter()
            .any(|p| p.contains("not below ewma")));
    }
}
