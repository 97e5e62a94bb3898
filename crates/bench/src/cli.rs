//! Shared command-line and sweep plumbing for the harness binaries.
//!
//! Every sweep binary used to hand-roll the same `--seed`/`--threads`
//! argv loop, cell construction, JSON-summary reporting, and
//! audit-failure exit.  This module centralizes that plumbing; binaries
//! keep only their scenario grids and table formatting.  Defaults are
//! chosen so a flagless run of any binary is byte-identical to the
//! pre-refactor output (seed 42, all cores, the bin's historical packet
//! count).

use crate::Scenario;
use sharqfec::PolicyConfig;
use sharqfec_netsim::runner::{default_threads, run_sweep, Cell, SweepResults, SweepSummary};
use std::num::NonZeroUsize;
use std::path::PathBuf;

/// The flags every sweep binary understands.
#[derive(Clone, Debug)]
pub struct SweepArgs {
    /// Root RNG seed shared by every cell (default 42).
    pub seed: u64,
    /// Worker threads for the sweep runner (default: all cores).
    pub threads: NonZeroUsize,
    /// Data packets per run (each binary passes its historical default).
    pub packets: u32,
    /// Injection-policy override for every SHARQFEC cell (`--policy
    /// ewma|percentile|optimizing`); `None` keeps each cell's own
    /// configuration.
    pub policy: Option<PolicyConfig>,
    /// Directory the JSON summary is written to (`--out`, default
    /// `results`).
    pub out: PathBuf,
}

/// Cursor over `argv` used by bin-specific flag handlers to consume flag
/// values (see [`SweepArgs::parse_with`]).
pub struct ArgCursor {
    argv: Vec<String>,
    i: usize,
}

impl ArgCursor {
    /// Consumes and returns the value following the current flag;
    /// `usage` is the panic message when the value is missing.
    pub fn value(&mut self, usage: &str) -> &str {
        self.i += 1;
        match self.argv.get(self.i) {
            Some(v) => v,
            None => panic!("{usage}"),
        }
    }
}

impl SweepArgs {
    /// Parses the shared flags (`--seed`, `--threads`, `--packets`,
    /// `--policy`, `--out`) from the process arguments, panicking on
    /// anything else.
    pub fn parse(default_packets: u32) -> SweepArgs {
        SweepArgs::parse_with(default_packets, |_, _| false)
    }

    /// Like [`SweepArgs::parse`], but hands unrecognized flags to
    /// `extra` first — return `true` to claim one (consuming its value
    /// via [`ArgCursor::value`] if it takes one), `false` to reject.
    pub fn parse_with(
        default_packets: u32,
        mut extra: impl FnMut(&str, &mut ArgCursor) -> bool,
    ) -> SweepArgs {
        let mut args = SweepArgs {
            seed: 42,
            threads: default_threads(),
            packets: default_packets,
            policy: None,
            out: PathBuf::from("results"),
        };
        let mut cur = ArgCursor {
            argv: std::env::args().collect(),
            i: 1,
        };
        while cur.i < cur.argv.len() {
            let flag = cur.argv[cur.i].clone();
            match flag.as_str() {
                "--seed" => {
                    args.seed = cur
                        .value("--seed takes a number")
                        .parse()
                        .expect("--seed takes a number");
                }
                "--threads" => {
                    let n: usize = cur
                        .value("--threads takes a count")
                        .parse()
                        .expect("--threads takes a count");
                    args.threads = NonZeroUsize::new(n).expect("--threads must be >= 1");
                }
                "--packets" => {
                    args.packets = cur
                        .value("--packets takes a count")
                        .parse()
                        .expect("--packets takes a count");
                }
                "--policy" => {
                    let name = cur.value("--policy takes ewma|percentile|optimizing");
                    args.policy = Some(
                        PolicyConfig::named(name)
                            .unwrap_or_else(|| panic!("unknown policy {name}")),
                    );
                }
                "--out" => {
                    args.out = cur.value("--out takes a directory").into();
                }
                other => {
                    if !extra(other, &mut cur) {
                        panic!("unknown argument {other}");
                    }
                }
            }
            cur.i += 1;
        }
        args
    }
}

/// Applies a `--policy` override (when given) to every SHARQFEC
/// scenario in a grid; SRM cells pass through untouched.  A cell that
/// had injection disabled (the ablation ladders' "no injection"
/// variants) stays disabled — the override swaps the predictor, not the
/// arm's on/off gate.
pub fn apply_policy_override(specs: Vec<Scenario>, policy: Option<&PolicyConfig>) -> Vec<Scenario> {
    let Some(p) = policy else {
        return specs;
    };
    specs
        .into_iter()
        .map(|s| match &s.protocol {
            crate::Protocol::Sharqfec(cfg) => {
                let mut p = p.clone();
                p.enabled &= cfg.policy.enabled;
                s.with_policy(p)
            }
            crate::Protocol::Srm(_) => s,
        })
        .collect()
}

/// Fans the scenario grid out over the parallel sweep runner, one cell
/// per scenario (keyed by label), every cell at the same root seed.
pub fn run_scenario_sweep<T: Send>(
    specs: &[Scenario],
    seed: u64,
    threads: NonZeroUsize,
    run: impl Fn(&Scenario, u64) -> T + Sync,
) -> SweepResults<T> {
    let cells: Vec<Cell> = specs
        .iter()
        .map(|s| Cell::new(s.label.clone(), seed))
        .collect();
    run_sweep(cells, threads, |cell| {
        let spec = specs
            .iter()
            .find(|s| s.label == cell.scenario)
            .expect("cell matches a planned scenario");
        run(spec, cell.seed)
    })
}

/// Reports where the machine-readable summary landed (or why it
/// couldn't), on stderr so tables stay pipeable.
pub fn report_summary(written: std::io::Result<PathBuf>) {
    match written {
        Ok(path) => eprintln!("summary: {}", path.display()),
        Err(e) => eprintln!("could not write results JSON: {e}"),
    }
}

/// The `--check FILE` mode of a gated sweep binary: parses the summary
/// at `path`, runs `check` over it, prints the verdict, and exits with
/// status 2 on any problem (an unreadable or malformed file included).
pub fn check_summary(path: &str, check: fn(&SweepSummary) -> Vec<String>) {
    let problems = std::fs::read_to_string(path)
        .map_err(|e| format!("could not read: {e}"))
        .and_then(|text| SweepSummary::parse(&text))
        .map_or_else(|e| vec![e], |summary| check(&summary));
    if problems.is_empty() {
        println!("{path}: ok");
        return;
    }
    eprintln!("{path}: {} problem(s):", problems.len());
    for p in &problems {
        eprintln!("  {p}");
    }
    std::process::exit(2);
}

/// Prints any invariant-auditor violations and exits with status 2 —
/// sweep binaries treat a violated invariant as a failed run.
pub fn exit_on_audit_failures(failures: &[String]) {
    if !failures.is_empty() {
        eprintln!("invariant auditor found violations:");
        for f in failures {
            eprintln!("  {f}");
        }
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;
    use sharqfec::SharqfecConfig;

    #[test]
    fn scenario_sweep_runs_every_cell_at_the_root_seed() {
        let w = Workload {
            packets: 1,
            seed: 0,
            tail_secs: 1,
        };
        let specs = vec![
            Scenario::sharqfec("a", SharqfecConfig::full(), w),
            Scenario::sharqfec("b", SharqfecConfig::full(), w),
        ];
        let results = run_scenario_sweep(&specs, 7, NonZeroUsize::MIN, |s, seed| {
            (s.label.clone(), seed)
        });
        assert_eq!(
            results.into_values(),
            vec![("a".to_string(), 7), ("b".to_string(), 7)]
        );
    }

    #[test]
    fn policy_override_rewrites_sharqfec_cells_only() {
        use crate::Protocol;
        use sharqfec::PolicyConfig;
        use sharqfec_srm::SrmConfig;

        let w = Workload {
            packets: 1,
            seed: 0,
            tail_secs: 1,
        };
        let specs = vec![
            Scenario::sharqfec("sf", SharqfecConfig::full(), w),
            Scenario::srm("srm", SrmConfig::default(), w),
        ];
        let out = apply_policy_override(specs, Some(&PolicyConfig::optimizing()));
        match &out[0].protocol {
            Protocol::Sharqfec(cfg) => assert_eq!(cfg.policy.name(), "optimizing"),
            Protocol::Srm(_) => unreachable!(),
        }
        assert!(matches!(out[1].protocol, Protocol::Srm(_)));

        let kept = apply_policy_override(
            vec![Scenario::sharqfec("sf", SharqfecConfig::full(), w)],
            None,
        );
        match &kept[0].protocol {
            Protocol::Sharqfec(cfg) => assert_eq!(cfg.policy.name(), "ewma"),
            Protocol::Srm(_) => unreachable!(),
        }
    }

    #[test]
    fn policy_override_preserves_a_cells_disabled_injection_gate() {
        use crate::Protocol;
        use sharqfec::Variant;

        let w = Workload {
            packets: 1,
            seed: 0,
            tail_secs: 1,
        };
        let no_injection = SharqfecConfig::variant(Variant::NoInjection);
        let out = apply_policy_override(
            vec![Scenario::sharqfec("sf", no_injection, w)],
            Some(&PolicyConfig::optimizing()),
        );
        match &out[0].protocol {
            Protocol::Sharqfec(cfg) => {
                assert_eq!(cfg.policy.name(), "optimizing");
                assert!(!cfg.policy.enabled, "--policy must not re-enable injection");
            }
            Protocol::Srm(_) => unreachable!(),
        }
    }
}
