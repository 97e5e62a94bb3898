//! The large-n scaling sweep (`scale_sweep` binary): SHARQFEC vs SRM on
//! the hierarchical `topology::scaled` generator at n ∈ {10², 10³, 10⁴,
//! 10⁵, opt-in 10⁶} receivers.
//!
//! This is the measurement the paper could only argue analytically (§5.1):
//! session traffic O(Σ n_α²) for scoped announcements against SRM's
//! global O(n²), and per-receiver resident state bounded by zone size
//! against SRM's full-membership peer table.  Each cell runs the same
//! short CBR workload on the same generated tree, with the protocol's
//! session layer on, and reports
//!
//! * `session_deliveries` — session-class packets delivered, as measured;
//! * `session_norm` — the full-fidelity estimate `measured ×
//!   announce_stride` (see below; stride is 1 wherever feasible);
//! * `state_bytes_per_rx` — mean [`Agent::state_bytes`] across receivers
//!   via the [`Engine::state_bytes`] accounting hooks;
//! * `events` / `events_per_sec` — simulator throughput.
//!
//! **Lossless links.**  The sweep isolates the *session plane*, where the
//! scaling claim lives.  The repair plane is exercised by the paper-scale
//! sweeps (ablation/fault/policy); at n = 10⁵ a single global SRM
//! request/repair round costs O(n) deliveries per loss, which would
//! swamp the event budget without adding information about session
//! scaling.
//!
//! **Announcer sampling.**  A full SRM announce round is n multicasts × n
//! deliveries = O(n²) simulated events — at n = 10⁵ that is 10¹⁰ events
//! per round, infeasible to simulate honestly.  Large SRM cells therefore
//! rotate announcers ([`SrmConfig::announce_stride`]): each interval a
//! deterministic 1/stride of the membership announces, every residue
//! class getting its turn.  The measured traffic times the stride is an
//! unbiased estimate of the full-fidelity traffic and is reported as
//! `session_norm`; peer tables fill with every announcer actually heard,
//! so the *measured* state is a lower bound at strided cells (the
//! strides in [`announce_stride`] keep it monotone through n = 10⁵).
//! SHARQFEC cells never stride — zone-scoped announcements are O(n·z̄)
//! per round and simulate in full at every n.
//!
//! [`check`] gates the emitted `results/BENCH_scale_sweep.json`:
//! every cell audited clean at full delivery, SHARQFEC's session traffic
//! below SRM's at the crossover bound n = 10⁴ (and at the largest common
//! cell), a smaller fitted session-traffic exponent, SHARQFEC state flat
//! in n while SRM's grows.
//!
//! [`Agent::state_bytes`]: sharqfec_netsim::Agent::state_bytes
//! [`Engine::state_bytes`]: sharqfec_netsim::Engine::state_bytes
//! [`SrmConfig::announce_stride`]: sharqfec_srm::SrmConfig::announce_stride

use crate::AuditOutcome;
use sharqfec::{setup_sharqfec_builder, SfAgent, SharqfecConfig};
use sharqfec_netsim::probe::AuditConfig;
use sharqfec_netsim::runner::SweepSummary;
use sharqfec_netsim::{RecorderMode, RunSpec, SimDuration, SimTime, TrafficClass};
use sharqfec_srm::{setup_srm_builder, SrmConfig, SrmReceiver};
use sharqfec_topology::{scaled_tree, ScaledTreeParams};
use std::time::Instant;

/// Sweep name; the summary lands in `results/BENCH_scale_sweep.json`.
pub const SWEEP_NAME: &str = "BENCH_scale_sweep";

/// Default receiver counts (the opt-in 10⁶ cell is appended by
/// `--mega`).
pub const SIZES: [usize; 4] = [100, 1_000, 10_000, 100_000];

/// The CI smoke grid (`--smoke`): small enough for every run of ci.sh.
pub const SMOKE_SIZES: [usize; 2] = [100, 1_000];

/// The crossover bound the paper claims and [`check`] enforces:
/// SHARQFEC session traffic must be below SRM's by this n.
pub const CROSSOVER_N: usize = 10_000;

/// One cell of the sweep.
#[derive(Clone, Copy, Debug)]
pub struct ScaleCell {
    /// Receiver count (hubs + leaf receivers).
    pub receivers: usize,
    /// SRM baseline (`true`) or SHARQFEC (`false`).
    pub srm: bool,
}

impl ScaleCell {
    /// The cell's sweep label, `protocol/n=<receivers>`.
    pub fn label(&self) -> String {
        let proto = if self.srm { "srm" } else { "sharqfec" };
        format!("{proto}/n={}", self.receivers)
    }
}

/// Both protocols at every size, SHARQFEC first (cheapest cells first
/// within a protocol so smoke failures surface fast).
pub fn plan(sizes: &[usize]) -> Vec<ScaleCell> {
    let mut cells = Vec::new();
    for &srm in &[false, true] {
        for &receivers in sizes {
            cells.push(ScaleCell { receivers, srm });
        }
    }
    cells
}

/// SRM announcer-rotation stride per receiver count (see the module docs
/// for why and how this keeps the measurement honest).  Strides through
/// n = 10⁵ are chosen so every residue class still announces within the
/// ~5-round horizon or the sampled peer tables stay monotone in n; the
/// opt-in 10⁶ cell trades table size for feasibility.
pub fn announce_stride(receivers: usize) -> u64 {
    match receivers {
        0..=9_999 => 1,
        10_000..=49_999 => 5,
        50_000..=499_999 => 50,
        _ => 5_000,
    }
}

/// What one cell measured.
#[derive(Clone, Debug)]
pub struct ScaleOutcome {
    /// The cell's label.
    pub label: String,
    /// Receiver count.
    pub receivers: usize,
    /// Session-class deliveries, as simulated.
    pub session_deliveries: usize,
    /// Announcer-rotation stride the cell ran with (1 = full fidelity).
    pub announce_stride: u64,
    /// Full-fidelity session-traffic estimate
    /// (`session_deliveries × announce_stride`).
    pub session_norm: f64,
    /// Data + repair deliveries.
    pub data_repair: usize,
    /// NACK transmissions.
    pub nacks: usize,
    /// Packets unrecovered across all receivers (must be 0).
    pub unrecovered: u64,
    /// Mean resident protocol-state bytes per receiver.
    pub state_bytes_per_rx: f64,
    /// Mean session peer-table entries per receiver (SRM cells; 0 for
    /// SHARQFEC, whose session state is inside `state_bytes_per_rx`).
    pub peers_per_rx: f64,
    /// Events processed.
    pub events: u64,
    /// Events per wall-clock second (machine-dependent; excluded from
    /// every [`check`] assertion).
    pub events_per_sec: f64,
    /// Engine shards the cell ran with (1 = serial).  Results are
    /// bit-identical at any shard count; only throughput may differ.
    pub shards: usize,
    /// The invariant auditor's verdict.
    pub audit: AuditOutcome,
}

/// The session-announce interval both protocols run at (the SHARQFEC
/// session default is uniform 0.9–1.1 s; SRM announces at the same mean
/// rate so raw traffic is comparable).
const SRM_ANNOUNCE: SimDuration = SimDuration::from_millis(1_000);

fn scale_params(receivers: usize) -> ScaledTreeParams {
    ScaledTreeParams {
        // Lossless: see the module docs.
        hub_loss: (0.0, 0.0),
        leaf_loss: (0.0, 0.0),
        ..ScaledTreeParams::for_receivers(receivers)
    }
}

const JOIN_AT: SimTime = SimTime::from_secs(1);
const HORIZON: SimTime = SimTime::from_secs(8);

/// Runs one cell: generate the tree, run the protocol with its session
/// layer on, collect aggregate metrics.  Deterministic in
/// `(cell, seed)` at any `shards` value — the sharded engine is
/// bit-identical to serial; only `events_per_sec` varies across machines
/// and shard counts.
pub fn run_cell(cell: ScaleCell, seed: u64, packets: u32, shards: usize) -> ScaleOutcome {
    let built = scaled_tree(&scale_params(cell.receivers), seed).built;
    let plan = std::sync::Arc::new(built.shard_plan(shards.max(1)));
    let spec = || RunSpec::to(HORIZON).with_plan(std::sync::Arc::clone(&plan));
    let started = Instant::now();
    let (events, session, data_repair, nacks, unrecovered, state_sum, peers_sum, audit) =
        if cell.srm {
            let cfg = SrmConfig {
                total_packets: packets,
                session_announce: Some(SRM_ANNOUNCE),
                announce_stride: announce_stride(cell.receivers),
                ..SrmConfig::default()
            };
            let mut builder = setup_srm_builder(&built, seed, cfg, JOIN_AT);
            builder
                .recorder_mode(RecorderMode::Aggregate)
                .audit_streaming(AuditConfig::default());
            let mut engine = builder.build();
            let events = engine.advance(spec());
            let mut unrecovered = 0u64;
            let mut peers = 0u64;
            for &r in &built.receivers {
                let a = engine.agent::<SrmReceiver>(r).expect("receiver");
                unrecovered += u64::from(a.missing());
                peers += a.session_peer_count() as u64;
            }
            collect(&engine, &built, events, unrecovered, peers)
        } else {
            let cfg = SharqfecConfig {
                total_packets: packets,
                ..SharqfecConfig::full()
            };
            let mut builder = setup_sharqfec_builder(&built, seed, cfg, JOIN_AT);
            builder
                .recorder_mode(RecorderMode::Aggregate)
                .audit_streaming(AuditConfig::default());
            let mut engine = builder.build();
            let events = engine.advance(spec());
            let mut unrecovered = 0u64;
            for &r in &built.receivers {
                unrecovered += u64::from(engine.agent::<SfAgent>(r).expect("receiver").missing());
            }
            collect(&engine, &built, events, unrecovered, 0)
        };
    let wall = started.elapsed().as_secs_f64().max(1e-9);
    let n = cell.receivers as f64;
    let stride = if cell.srm {
        announce_stride(cell.receivers)
    } else {
        1
    };
    ScaleOutcome {
        label: cell.label(),
        receivers: cell.receivers,
        session_deliveries: session,
        announce_stride: stride,
        session_norm: session as f64 * stride as f64,
        data_repair,
        nacks,
        unrecovered,
        state_bytes_per_rx: state_sum as f64 / n,
        peers_per_rx: peers_sum as f64 / n,
        events,
        events_per_sec: events as f64 / wall,
        shards: plan.shard_count(),
        audit,
    }
}

type Collected = (u64, usize, usize, usize, u64, u64, u64, AuditOutcome);

fn collect<M: sharqfec_netsim::Classify + Clone + 'static>(
    engine: &sharqfec_netsim::Engine<M>,
    built: &sharqfec_topology::BuiltTopology,
    events: u64,
    unrecovered: u64,
    peers_sum: u64,
) -> Collected {
    let rec = engine.recorder();
    let state_sum: u64 = built
        .receivers
        .iter()
        .map(|&r| engine.agent_state_bytes(r) as u64)
        .sum();
    let audit = engine
        .audit_report()
        .map(|r| AuditOutcome {
            events: r.events,
            violations: r.violations.len(),
            summary: r.summary(),
        })
        .expect("every scale cell is audited");
    (
        events,
        rec.total_delivered(TrafficClass::Session),
        rec.total_delivered(TrafficClass::Data) + rec.total_delivered(TrafficClass::Repair),
        rec.total_sent(TrafficClass::Nack),
        unrecovered,
        state_sum,
        peers_sum,
        audit,
    )
}

/// The per-cell numbers published to the summary JSON.
pub fn metrics(o: &ScaleOutcome) -> Vec<(String, f64)> {
    vec![
        ("receivers".into(), o.receivers as f64),
        ("session_deliveries".into(), o.session_deliveries as f64),
        ("announce_stride".into(), o.announce_stride as f64),
        ("session_norm".into(), o.session_norm),
        ("data_repair".into(), o.data_repair as f64),
        ("nacks".into(), o.nacks as f64),
        ("unrecovered".into(), o.unrecovered as f64),
        ("state_bytes_per_rx".into(), o.state_bytes_per_rx),
        ("peers_per_rx".into(), o.peers_per_rx),
        ("events".into(), o.events as f64),
        ("events_per_sec".into(), o.events_per_sec),
        ("shards".into(), o.shards as f64),
        ("audit_events".into(), o.audit.events as f64),
        ("audit_violations".into(), o.audit.violations as f64),
    ]
}

/// Splits a cell label `protocol/n=<receivers>` into `(srm, receivers)`.
fn parse_label(label: &str) -> Option<(bool, usize)> {
    let (proto, n) = label.split_once("/n=")?;
    let srm = match proto {
        "sharqfec" => false,
        "srm" => true,
        _ => return None,
    };
    Some((srm, n.parse().ok()?))
}

/// Least-squares slope of ln(y) against ln(x) — the fitted power-law
/// exponent.  `None` with fewer than two usable points.
fn loglog_slope(points: &[(f64, f64)]) -> Option<f64> {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|&(x, y)| (x.ln(), y.ln()))
        .collect();
    if pts.len() < 2 {
        return None;
    }
    let n = pts.len() as f64;
    let (sx, sy): (f64, f64) = pts.iter().fold((0.0, 0.0), |(a, b), (x, y)| (a + x, b + y));
    let (sxx, sxy): (f64, f64) = pts
        .iter()
        .fold((0.0, 0.0), |(a, b), (x, y)| (a + x * x, b + x * y));
    let denom = n * sxx - sx * sx;
    (denom.abs() > 1e-12).then(|| (n * sxy - sx * sy) / denom)
}

/// Fitted-exponent margin [`check`] demands between SRM's and
/// SHARQFEC's session-traffic growth (measured: ~2.0 vs ~1.4).
pub const EXPONENT_MARGIN: f64 = 0.25;

/// Validates a `BENCH_scale_sweep.json` summary (either the committed
/// full sweep or a `--smoke` run): sweep-runner schema, every cell ok at
/// full delivery with zero audit violations, both protocols at every
/// size, SHARQFEC session traffic below SRM's at every size ≥
/// [`CROSSOVER_N`] and at the largest size present, and — when three or
/// more sizes are present — a smaller fitted session-traffic exponent
/// plus flat-vs-growing per-receiver state.  Returns problems (empty =
/// pass).
pub fn check(summary: &SweepSummary) -> Vec<String> {
    let mut problems = summary.schema_problems(SWEEP_NAME);
    let cells: Vec<_> = summary
        .cells
        .iter()
        .filter_map(|c| parse_label(&c.scenario).map(|(_, n)| (n, c)))
        .collect();
    if cells.is_empty() {
        problems.push("no scale cells found".to_string());
        return problems;
    }
    let mut sizes: Vec<usize> = cells.iter().map(|(n, _)| *n).collect();
    sizes.sort_unstable();
    sizes.dedup();

    // Failed cells are already named by the schema check.
    for (_, c) in cells.iter().filter(|(_, c)| c.result.is_ok()) {
        let label = &c.scenario;
        if c.metric("audit_violations") != Some(0.0) {
            problems.push(format!("cell {label:?} has audit violations"));
        }
        if c.metric("unrecovered") != Some(0.0) {
            problems.push(format!("cell {label:?} did not deliver everything"));
        }
    }

    // A metric for one (protocol, size), when that cell exists and is ok.
    let lookup = |srm: bool, receivers: usize, key: &str| -> Option<f64> {
        summary
            .cell(&ScaleCell { receivers, srm }.label())?
            .metric(key)
    };

    let mut sf_traffic = Vec::new();
    let mut srm_traffic = Vec::new();
    let mut sf_state = Vec::new();
    let mut srm_state = Vec::new();
    for &n in &sizes {
        let (Some(sf), Some(srm)) = (
            lookup(false, n, "session_norm"),
            lookup(true, n, "session_norm"),
        ) else {
            problems.push(format!("size n={n} missing one of the two protocols"));
            continue;
        };
        sf_traffic.push((n as f64, sf));
        srm_traffic.push((n as f64, srm));
        if let (Some(a), Some(b)) = (
            lookup(false, n, "state_bytes_per_rx"),
            lookup(true, n, "state_bytes_per_rx"),
        ) {
            sf_state.push((n, a));
            srm_state.push((n, b));
        }
        // The paper's crossover: scoped session traffic must be the
        // cheaper one from CROSSOVER_N up, and already at the largest
        // cell any run produces.
        if (n >= CROSSOVER_N || n == *sizes.last().expect("nonempty")) && sf >= srm {
            problems.push(format!(
                "no crossover at n={n}: sharqfec session {sf} >= srm {srm}"
            ));
        }
    }

    if sizes.len() >= 3 {
        match (loglog_slope(&sf_traffic), loglog_slope(&srm_traffic)) {
            (Some(sf), Some(srm)) if sf + EXPONENT_MARGIN < srm => {}
            (sf, srm) => problems.push(format!(
                "session-traffic exponents do not separate: sharqfec {sf:?} vs srm {srm:?} \
                 (need srm > sharqfec + {EXPONENT_MARGIN})"
            )),
        }
        // State: SHARQFEC flat in n (zone-bounded; zone sizes drift with
        // the generator's tiering, hence the loose factor), SRM growing
        // with the membership it must track.
        let ratio = |v: &[(usize, f64)]| -> Option<f64> {
            let lo = v.first()?.1;
            let hi = v.last()?.1;
            (lo > 0.0).then(|| hi / lo)
        };
        match ratio(&sf_state) {
            Some(r) if r < 8.0 => {}
            r => problems.push(format!(
                "sharqfec per-receiver state not flat in n (max/min {r:?}, need < 8)"
            )),
        }
        match ratio(&srm_state) {
            Some(r) if r > 10.0 => {}
            r => problems.push(format!(
                "srm per-receiver state not growing with n (max/min {r:?}, need > 10)"
            )),
        }
        for ((n, sf), (_, srm)) in sf_state.iter().zip(&srm_state) {
            if *n >= CROSSOVER_N && sf >= srm {
                problems.push(format!(
                    "at n={n} sharqfec state {sf} should be below srm {srm}"
                ));
            }
        }
    }

    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_orders_cheap_cells_first_within_each_protocol() {
        let cells = plan(&SIZES);
        assert_eq!(cells.len(), 2 * SIZES.len());
        assert!(!cells[0].srm && cells[0].receivers == 100);
        assert_eq!(cells[0].label(), "sharqfec/n=100");
        assert_eq!(cells[SIZES.len()].label(), "srm/n=100");
    }

    #[test]
    fn strides_are_full_fidelity_through_the_crossover_bound() {
        assert_eq!(announce_stride(100), 1);
        assert_eq!(announce_stride(1_000), 1);
        // 10⁴ rotates but the ~5-round horizon still covers every
        // residue class, so peer tables stay complete.
        assert!(announce_stride(10_000) <= 5);
        assert!(announce_stride(100_000) > announce_stride(10_000));
    }

    #[test]
    fn loglog_slope_recovers_power_laws() {
        let quad: Vec<(f64, f64)> = [1e2, 1e3, 1e4].iter().map(|&n| (n, 3.0 * n * n)).collect();
        assert!((loglog_slope(&quad).unwrap() - 2.0).abs() < 1e-9);
        let lin: Vec<(f64, f64)> = [1e2, 1e3, 1e4].iter().map(|&n| (n, 7.0 * n)).collect();
        assert!((loglog_slope(&lin).unwrap() - 1.0).abs() < 1e-9);
        assert!(loglog_slope(&[(1.0, 1.0)]).is_none());
    }

    /// An all-healthy summary from `(protocol, n, session_norm,
    /// state_bytes_per_rx)` rows.
    fn synthetic(cells: &[(&str, usize, f64, f64)]) -> SweepSummary {
        let cells = cells
            .iter()
            .map(|&(proto, n, session, state)| {
                let metrics = vec![
                    ("session_norm", session),
                    ("state_bytes_per_rx", state),
                    ("unrecovered", 0.0),
                    ("audit_violations", 0.0),
                ];
                (format!("{proto}/n={n}"), metrics)
            })
            .collect();
        crate::summary_fixture(SWEEP_NAME, cells)
    }

    #[test]
    fn check_passes_a_healthy_sweep_and_catches_a_missing_crossover() {
        // SHARQFEC ~n^1.3, SRM ~n^2, SF state flat, SRM state linear.
        let good = synthetic(&[
            ("sharqfec", 100, 4e3, 2000.0),
            ("sharqfec", 1000, 8e4, 3000.0),
            ("sharqfec", 10000, 1.6e6, 4000.0),
            ("srm", 100, 5e4, 3000.0),
            ("srm", 1000, 5e6, 30000.0),
            ("srm", 10000, 5e8, 300000.0),
        ]);
        assert_eq!(check(&good), Vec::<String>::new());

        // SHARQFEC above SRM at the crossover bound must fail.
        let mut crossed = good;
        crate::set_metric(&mut crossed, "sharqfec/n=10000", "session_norm", 6e8);
        assert!(check(&crossed)
            .iter()
            .any(|p| p.contains("no crossover at n=10000")));

        // An audit violation must fail.
        let mut violated = synthetic(&[("sharqfec", 100, 1.0, 1.0)]);
        crate::set_metric(&mut violated, "sharqfec/n=100", "audit_violations", 2.0);
        assert!(check(&violated)
            .iter()
            .any(|p| p.contains("audit violations")));
    }

    /// The sharded engine must not change a single published number:
    /// every field of [`ScaleOutcome`] except throughput (and the shard
    /// count itself) is bit-identical between serial and 4-shard runs,
    /// for both protocols.
    #[test]
    fn sharded_scale_cell_matches_serial() {
        for srm in [false, true] {
            let cell = ScaleCell {
                receivers: 100,
                srm,
            };
            let serial = run_cell(cell, 42, 24, 1);
            let sharded = run_cell(cell, 42, 24, 4);
            assert_eq!(serial.shards, 1);
            assert!(sharded.shards > 1, "the scaled tree must actually shard");
            assert_eq!(serial.label, sharded.label);
            assert_eq!(serial.session_deliveries, sharded.session_deliveries);
            assert_eq!(serial.session_norm, sharded.session_norm);
            assert_eq!(serial.data_repair, sharded.data_repair);
            assert_eq!(serial.nacks, sharded.nacks);
            assert_eq!(serial.unrecovered, sharded.unrecovered);
            assert_eq!(serial.state_bytes_per_rx, sharded.state_bytes_per_rx);
            assert_eq!(serial.peers_per_rx, sharded.peers_per_rx);
            assert_eq!(serial.events, sharded.events);
            assert_eq!(serial.audit, sharded.audit);
        }
    }

    #[test]
    fn smoke_sized_summaries_skip_the_exponent_fit() {
        // Two sizes: crossover at the largest is enforced, exponents are
        // not (the fit needs three points).
        let smoke = synthetic(&[
            ("sharqfec", 100, 4e3, 2000.0),
            ("sharqfec", 1000, 8e4, 3000.0),
            ("srm", 100, 5e4, 3000.0),
            ("srm", 1000, 5e6, 30000.0),
        ]);
        assert_eq!(check(&smoke), Vec::<String>::new());

        let mut inverted = smoke;
        crate::set_metric(&mut inverted, "sharqfec/n=1000", "session_norm", 9e6);
        assert!(check(&inverted)
            .iter()
            .any(|p| p.contains("no crossover at n=1000")));
    }
}
