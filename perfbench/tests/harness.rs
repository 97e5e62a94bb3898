//! The traced-run harness changes nothing it measures: the benchmark's
//! agent setup equals the protocol crate's own scenario setup, and the
//! timing wrapper is event-for-event and metric-for-metric invisible, on
//! small cells of every workload shape (one of them on two shards).

use sharqfec::{setup_sharqfec_scenario_builder, SfMsg};
use sharqfec_netsim::prelude::*;
use sharqfec_perfbench::run::{needs_decode, run_sim};
use sharqfec_perfbench::workload::{sf_agent, sharqfec_builder, Cell, Shape, Workload};

/// Small cells of each workload: the same construction at test size.
fn small(w: Workload) -> Shape {
    match w {
        Workload::SessionScale => Shape {
            receivers: 200,
            packets: 32,
            horizon: SimTime::from_secs(4),
            shards: 1,
        },
        Workload::RepairStorm => Shape {
            receivers: 112,
            packets: 64,
            horizon: SimTime::from_secs(30),
            shards: 1,
        },
        Workload::FlashSharded => Shape {
            receivers: 320,
            packets: 32,
            horizon: SimTime::from_secs(15),
            shards: 2,
        },
    }
}

/// Everything observable about a finished engine: events, recorder
/// totals, the probe stream, the audit verdict and every receiver's held
/// indices.
#[derive(Debug, PartialEq)]
struct Observed {
    events: u64,
    sent: Vec<usize>,
    delivered: Vec<usize>,
    dropped: Vec<usize>,
    probes: Vec<ProbeRecord>,
    audit: String,
    held: Vec<Vec<u32>>,
}

fn observe(cell: &Cell, mut builder: EngineBuilder<SfMsg>) -> Observed {
    builder
        .recorder_mode(cell.recorder)
        .fault_plan(cell.faults.clone())
        .audit(cell.audit.clone());
    let mut engine = builder.build();
    let events = engine.advance(cell.spec(cell.horizon));
    let rec = engine.recorder();
    let per_class =
        |f: &dyn Fn(TrafficClass) -> usize| TrafficClass::ALL.iter().map(|&c| f(c)).collect();
    let held = cell
        .built
        .receivers
        .iter()
        .flat_map(|&r| {
            let a = sf_agent(&engine, r);
            (0..cell.cfg.group_count()).map(move |g| a.held_indices(g))
        })
        .collect();
    Observed {
        events,
        sent: per_class(&|c| rec.total_sent(c)),
        delivered: per_class(&|c| rec.total_delivered(c)),
        dropped: per_class(&|c| rec.total_dropped(c)),
        probes: engine.probe_records().to_vec(),
        audit: engine.audit_report().expect("audited").summary(),
        held,
    }
}

#[test]
fn benchmark_setup_and_timing_wrapper_match_the_crate_setup() {
    for w in Workload::ALL {
        let seed = 5;
        let cell = Cell::new(w, small(w), seed);
        let crate_setup = observe(
            &cell,
            setup_sharqfec_scenario_builder(
                &cell.built,
                seed,
                cell.cfg.clone(),
                SimTime::from_secs(1),
                cell.plan.clone(),
                None,
            ),
        );
        assert!(crate_setup.events > 0);
        let plain = observe(
            &cell,
            sharqfec_builder(&cell.built, seed, &cell.cfg, cell.plan.clone(), false),
        );
        assert_eq!(plain, crate_setup, "{}: benchmark setup differs", w.name());
        let timed = observe(
            &cell,
            sharqfec_builder(&cell.built, seed, &cell.cfg, cell.plan.clone(), true),
        );
        assert_eq!(
            timed,
            crate_setup,
            "{}: timing wrapper perturbs the run",
            w.name()
        );
    }
}

#[test]
fn traced_and_untraced_runs_report_identical_simulated_metrics() {
    for w in Workload::ALL {
        let shape = small(w);
        let plain = run_sim(w, shape, 3, false);
        let traced = run_sim(w, shape, 3, true);
        assert_eq!(plain.sim, traced.sim, "{}", w.name());
        assert!(plain.ok(), "{}: {}", w.name(), plain.sim.audit_summary);
        assert!(plain.replay_ok && traced.replay_ok, "{}", w.name());
        let planes = traced.planes.expect("traced run times its callbacks");
        assert!(planes.total_calls() > 0 && planes.total_calls() <= traced.sim.events);
        // Tree forwarding needs no SPTs; a sharded run's trees live in its
        // per-advance shard engines, which the public counter cannot see.
        match w {
            Workload::SessionScale => assert_eq!(traced.counters.spts, 0),
            Workload::RepairStorm => assert!(traced.counters.spts > 0),
            Workload::FlashSharded => {}
        }
    }
}

#[test]
fn decode_groups_count_complete_groups_missing_a_data_index() {
    assert!(!needs_decode(&[0, 1, 2, 3], 4));
    assert!(!needs_decode(&[0, 1, 2, 3, 5], 4));
    assert!(needs_decode(&[0, 2, 3, 4], 4));
    assert!(
        !needs_decode(&[0, 4, 5], 4),
        "incomplete groups cannot decode"
    );

    // Lossless: every receiver holds every data packet.
    let lossless = run_sim(
        Workload::SessionScale,
        small(Workload::SessionScale),
        1,
        false,
    );
    assert_eq!(lossless.sim.decode_groups, 0);
    // Burst loss: some complete groups were finished by repairs.
    let lossy = run_sim(
        Workload::RepairStorm,
        small(Workload::RepairStorm),
        1,
        false,
    );
    assert!(lossy.sim.decode_groups > 0);
    assert!(lossy.sim.decode_groups <= lossy.sim.pairs_complete);
}

/// At seed 42, `session_scale` is exactly the committed `scale_sweep`
/// cell `sharqfec/n=10000` (results/BENCH_scale_sweep.json).  About 30 s
/// of release-mode simulation: `cargo test --release -- --ignored`.
#[test]
#[ignore]
fn session_scale_at_seed_42_is_the_committed_scale_cell() {
    let w = Workload::SessionScale;
    let run = run_sim(w, w.shape(), 42, false);
    assert!(run.ok(), "{}", run.sim.audit_summary);
    assert_eq!(run.sim.events, 12_913_475);
    assert_eq!(run.sim.session_rx, 11_164_051);
}
