//! Running simulations and reducing them to the benchmark's metrics.
//!
//! A run's simulations use consecutive seeds from the workload seed.  The
//! first [`Workload::seeds`] of them are the run's fixed seed set: its
//! simulated metrics are pooled over them, so they are a pure function
//! of `(workload, seed)`.  An untraced run keeps adding seeds while
//! another simulation fits in the time budget, and reports host metrics
//! as medians per simulation, which a rare straggler seed does not move.
//! A traced run makes the fixed seed set untraced and traced ([`Timed`])
//! and reports per-layer metrics; the two must agree on every event count
//! and simulated metric.

use crate::codec;
use crate::host;
use crate::probes;
use crate::stats::{median, quantile};
use crate::timed::{Plane, PlaneStats, Timed};
use crate::workload::{set_up, sf_agent, Cell, Ready, SetupTimes, Shape, Workload};
use sharqfec::SfMsg;
use sharqfec_netsim::prelude::*;
use sharqfec_netsim::routing::DistanceOracle;
use std::time::{Duration, Instant};

/// Horizon slices of a traced serial simulation; engine counters are
/// sampled at every slice boundary.
const SLICES: u64 = 100;

/// Horizon slices of a traced sharded simulation.  Every sharded
/// `advance` re-partitions the engine and its shards rebuild their
/// routing trees, so slicing it finely would swamp what it samples.
const SHARDED_SLICES: u64 = 5;

/// Simulated time a run is extended by, per step, while a receiver is
/// still incomplete at the horizon.
const OVERTIME_STEP: SimDuration = SimDuration::from_secs(5);

/// How far past the horizon a run may be extended.
const OVERTIME_CAP: SimDuration = SimDuration::from_secs(1_800);

/// Set-ups timed before the measured simulations, so `setup_s` is a median
/// even for a workload whose fixed seed set is a single simulation.
pub const EXTRA_SETUPS: usize = 32;

/// Everything one simulation produces that must repeat exactly at a
/// fixed seed, traced or not.
#[derive(Clone, Debug, PartialEq)]
pub struct SimMetrics {
    /// Events the engine processed.
    pub events: u64,
    /// Receivers in the session.
    pub receivers: u64,
    /// Packet groups in the stream.
    pub groups: u64,
    /// (receiver, group) pairs reconstructable at the horizon.
    pub pairs_complete: u64,
    /// Per receiver, simulated seconds from the source's last fresh send
    /// to that receiver's completion (complete receivers only).
    pub done_s: Vec<f64>,
    /// Per (receiver, group) recovery latency in simulated ms.
    pub recovery_ms: Vec<f64>,
    /// Data, repair and NACK transmissions.
    pub data_tx: u64,
    /// Repair transmissions (source redundancy, injection, replies).
    pub repair_tx: u64,
    /// NACK transmissions.
    pub nack_tx: u64,
    /// Session-announcement deliveries.
    pub session_rx: u64,
    /// Simulated seconds covered.
    pub sim_secs: f64,
    /// Summed `Agent::state_bytes` over receivers at the horizon.
    pub state_bytes: u64,
    /// Complete (receiver, group) pairs missing some data index, i.e.
    /// the pairs a byte-carrying receiver would have to decode.
    pub decode_groups: u64,
    /// Probe records kept.
    pub probe_records: u64,
    /// Inline auditor verdict: events seen and one-line summary.
    pub audit_events: u64,
    /// Inline auditor one-line verdict.
    pub audit_summary: String,
    /// Whether the inline auditor found no violation.
    pub audit_ok: bool,
}

impl SimMetrics {
    /// (receiver, group) pairs attempted.
    pub fn pairs_attempted(&self) -> u64 {
        self.receivers * self.groups
    }
}

/// Engine counters sampled at horizon-slice boundaries (traced runs).
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    /// High-water pending timers.
    pub pending_timers: usize,
    /// High-water lazily-cancelled timers.
    pub cancelled_timers: usize,
    /// High-water packets in flight.
    pub in_flight: usize,
    /// High-water cached shortest-path trees.
    pub spts: usize,
    /// Recorder footprint at the horizon.
    pub recorder_bytes: usize,
}

impl Counters {
    fn sample<M: Classify + Clone + 'static>(&mut self, e: &Engine<M>) {
        self.pending_timers = self.pending_timers.max(e.pending_timer_count());
        self.cancelled_timers = self.cancelled_timers.max(e.cancelled_timer_count());
        self.in_flight = self.in_flight.max(e.packets_in_flight());
        self.spts = self.spts.max(e.cached_spt_count());
        self.recorder_bytes = e.recorder().resident_bytes();
    }

    fn merge(&mut self, o: &Counters) {
        self.pending_timers = self.pending_timers.max(o.pending_timers);
        self.cancelled_timers = self.cancelled_timers.max(o.cancelled_timers);
        self.in_flight = self.in_flight.max(o.in_flight);
        self.spts = self.spts.max(o.spts);
        self.recorder_bytes = self.recorder_bytes.max(o.recorder_bytes);
    }
}

/// One simulation's results.
#[derive(Clone, Debug)]
pub struct SimRun {
    /// What must repeat exactly.
    pub sim: SimMetrics,
    /// Set-up cost.
    pub setup: SetupTimes,
    /// Host seconds inside `Engine::advance`.
    pub wall_s: f64,
    /// Process CPU seconds over the same span (all threads).
    pub cpu_s: Option<f64>,
    /// Whether replaying the probe stream reproduced the inline verdict.
    pub replay_ok: bool,
    /// Host seconds the replay auditor spent ingesting.
    pub replay_s: f64,
    /// Callback time per plane (traced runs only).
    pub planes: Option<PlaneStats>,
    /// Sampled engine counters (traced runs only).
    pub counters: Counters,
}

impl SimRun {
    /// Whether this simulation passed every check of its own.
    pub fn ok(&self) -> bool {
        self.sim.audit_ok && self.replay_ok && self.sim.pairs_complete == self.sim.pairs_attempted()
    }
}

/// Sets up and runs one simulation.
pub fn run_sim(w: Workload, shape: Shape, seed: u64, traced: bool) -> SimRun {
    let Ready {
        cell,
        mut engine,
        times,
    } = set_up(w, shape, seed, traced);
    let mut counters = Counters::default();
    let cpu0 = host::cpu_seconds();
    let t = Instant::now();
    let mut events = if traced {
        let mut events = 0;
        let slices = if cell.shard_plan.shard_count() > 1 {
            SHARDED_SLICES
        } else {
            SLICES
        };
        for i in 1..=slices {
            let until = if i == slices {
                cell.horizon
            } else {
                SimTime(cell.horizon.0 / slices * i)
            };
            events += engine.advance(cell.spec(until));
            counters.sample(&engine);
        }
        events
    } else {
        engine.advance(cell.spec(cell.horizon))
    };
    // A closed run ends when every receiver holds the whole stream: a
    // straggler in deep request backoff extends it, up to a cap past
    // which the missing groups count as undelivered.
    let mut end = cell.horizon;
    while end < cell.horizon + OVERTIME_CAP && !all_complete(&cell, &engine) {
        end += OVERTIME_STEP;
        events += engine.advance(cell.spec(end));
        if traced {
            counters.sample(&engine);
        }
    }
    let wall_s = t.elapsed().as_secs_f64();
    let cpu_s = cpu0.zip(host::cpu_seconds()).map(|(a, b)| b - a);
    counters.sample(&engine);

    let planes = traced.then(|| {
        let mut planes = PlaneStats::default();
        for m in cell.built.members() {
            planes.merge(&engine.agent::<Timed>(m).expect("traced agent").stats);
        }
        planes
    });
    let (sim, replay) = collect(&cell, &engine, events);
    let replay_ok = replay.events == sim.audit_events && replay.summary == sim.audit_summary;
    SimRun {
        sim,
        setup: times,
        wall_s,
        cpu_s,
        replay_ok,
        replay_s: replay.ingest_s,
        planes,
        counters,
    }
}

/// Whether a receiver holding the sorted, distinct indices `held` of a
/// `k`-packet group could reconstruct it only by decoding: it holds `k`
/// indices but not every data index `0..k`.
pub fn needs_decode(held: &[u32], k: u32) -> bool {
    held.len() as u32 >= k && held.iter().take_while(|&&i| i < k).count() < k as usize
}

fn all_complete(cell: &Cell, engine: &Engine<SfMsg>) -> bool {
    cell.built
        .receivers
        .iter()
        .all(|&r| sf_agent(engine, r).complete())
}

fn collect(cell: &Cell, engine: &Engine<SfMsg>, events: u64) -> (SimMetrics, probes::Replay) {
    let cfg = &cell.cfg;
    let built = &cell.built;
    let groups = cfg.group_count();
    let mut pairs_complete = 0;
    let mut decode_groups = 0;
    let mut state_bytes = 0u64;
    let mut done = Vec::new();
    for &r in &built.receivers {
        let a = sf_agent(engine, r);
        for g in 0..groups {
            let k = cfg.packets_in_group(g);
            let held = a.held_indices(g);
            if held.len() as u32 >= k {
                pairs_complete += 1;
            }
            if needs_decode(&held, k) {
                decode_groups += 1;
            }
        }
        done.extend(a.completion_time());
        state_bytes += engine.agent_state_bytes(r) as u64;
    }
    let records = engine.probe_records();
    let last_send = records
        .iter()
        .filter(|r| r.node == built.source && matches!(r.event, ProbeEvent::Sender { .. }))
        .map(|r| r.time)
        .max();
    let done_s = last_send.map_or(Vec::new(), |sent| {
        done.iter()
            .map(|t| t.saturating_since(sent).as_secs_f64())
            .collect()
    });
    let report = engine.audit_report().expect("every workload is audited");
    let rec = engine.recorder();
    let sim = SimMetrics {
        events,
        receivers: built.receivers.len() as u64,
        groups: u64::from(groups),
        pairs_complete,
        done_s,
        recovery_ms: probes::recovery_ms(records, built.source, cfg.group_size, cfg.total_packets),
        data_tx: rec.total_sent(TrafficClass::Data) as u64,
        repair_tx: rec.total_sent(TrafficClass::Repair) as u64,
        nack_tx: rec.total_sent(TrafficClass::Nack) as u64,
        session_rx: rec.total_delivered(TrafficClass::Session) as u64,
        sim_secs: engine.now().as_secs_f64(),
        state_bytes,
        decode_groups,
        probe_records: records.len() as u64,
        audit_events: report.events,
        audit_summary: report.summary(),
        audit_ok: report.ok(),
    };
    let replay = probes::replay(records, cell.effective_audit(), engine.now());
    (sim, replay)
}

/// Runs the simulations at seeds `seed + from .. seed + to`.
fn run_seeds(
    w: Workload,
    shape: Shape,
    seed: u64,
    from: u64,
    to: u64,
    traced: bool,
) -> Vec<SimRun> {
    (from..to)
        .map(|i| run_sim(w, shape, seed.wrapping_add(i), traced))
        .collect()
}

/// A named metric value with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Value {
    /// Metric name.
    pub name: &'static str,
    /// The measured value (`None`: unavailable on this host).
    pub value: Option<f64>,
}

fn v(name: &'static str, value: f64) -> Value {
    Value {
        name,
        value: Some(value),
    }
}

/// The outcome of one benchmark invocation.
#[derive(Clone, Debug)]
pub struct Report {
    /// Every check held.
    pub correct: bool,
    /// Simulations run.
    pub attempted: u64,
    /// Simulations that failed a check.
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Vec<Value>,
    /// Recovery samples behind the percentiles (fixed seed set).
    pub recovery_samples: usize,
}

/// The simulated metrics of a seed set, pooled over its simulations.
fn simulated(sims: &[SimRun]) -> Vec<Value> {
    let sum = |f: &dyn Fn(&SimMetrics) -> u64| sims.iter().map(|r| f(&r.sim)).sum::<u64>() as f64;
    let attempted = sum(&|s| s.pairs_attempted());
    let receivers = sum(&|s| s.receivers);
    let recovery: Vec<f64> = sims
        .iter()
        .flat_map(|r| r.sim.recovery_ms.iter().copied())
        .collect();
    let done: Vec<f64> = sims
        .iter()
        .flat_map(|r| r.sim.done_s.iter().copied())
        .collect();
    let rx_secs: f64 = sims
        .iter()
        .map(|r| r.sim.receivers as f64 * r.sim.sim_secs)
        .sum();
    vec![
        v("delivery_ratio", sum(&|s| s.pairs_complete) / attempted),
        v("ttc_s", median(&done).unwrap_or(f64::NAN)),
        v(
            "recovery_p50_ms",
            quantile(&recovery, 0.50).unwrap_or(f64::NAN),
        ),
        v(
            "recovery_p99_ms",
            quantile(&recovery, 0.99).unwrap_or(f64::NAN),
        ),
        v(
            "repair_overhead",
            sum(&|s| s.repair_tx) / sum(&|s| s.data_tx),
        ),
        // One NACK added keeps the lossless workload's value non-zero.
        v(
            "nacks_per_group",
            (sum(&|s| s.nack_tx) + 1.0) / sum(&|s| s.groups),
        ),
        v("session_rx_per_rx", sum(&|s| s.session_rx) / rx_secs),
        v(
            "state_kb_per_rx",
            sum(&|s| s.state_bytes) / 1024.0 / receivers,
        ),
    ]
}

/// An untraced run: extra set-ups, the fixed seed set, then further
/// seeds while another simulation fits in `budget`.  Simulated metrics
/// pool the fixed seed set; host metrics are medians per simulation over
/// every simulation run.
pub fn untraced(w: Workload, shape: Shape, seed: u64, budget: Duration) -> Report {
    let started = Instant::now();
    let mut setups: Vec<f64> = (0..EXTRA_SETUPS)
        .map(|_| set_up(w, shape, seed, false).times.total())
        .collect();
    let mut sims = run_seeds(w, shape, seed, 0, w.seeds(), false);
    loop {
        let per_sim = started.elapsed() / sims.len() as u32;
        if started.elapsed() + per_sim > budget {
            break;
        }
        let next = sims.len() as u64;
        sims.extend(run_seeds(w, shape, seed, next, next + 1, false));
    }
    let failed = sims.iter().filter(|r| !r.ok()).count() as u64;
    setups.extend(sims.iter().map(|r| r.setup.total()));
    let per_sim = |f: &dyn Fn(&SimRun) -> Option<f64>| -> Option<f64> {
        median(&sims.iter().map(f).collect::<Option<Vec<f64>>>()?)
    };
    let mut metrics = vec![
        v(
            "wall_s",
            per_sim(&|r| Some(r.wall_s)).expect("at least one simulation"),
        ),
        Value {
            name: "cpu_s",
            value: per_sim(&|r| r.cpu_s),
        },
        v("setup_s", median(&setups).expect("set-ups were timed")),
        Value {
            name: "peak_rss_mb",
            value: host::peak_rss_mb(),
        },
    ];
    let fixed = &sims[..w.seeds() as usize];
    metrics.extend(simulated(fixed));
    let recovery_samples = fixed.iter().map(|r| r.sim.recovery_ms.len()).sum();
    finish(sims.len() as u64, failed, metrics, recovery_samples, true)
}

fn finish(
    attempted: u64,
    failed: u64,
    metrics: Vec<Value>,
    recovery_samples: usize,
    extra_ok: bool,
) -> Report {
    let finite = metrics
        .iter()
        .all(|m| m.value.is_none_or(|x| x.is_finite()));
    Report {
        correct: failed == 0 && finite && extra_ok,
        attempted,
        failed,
        metrics,
        recovery_samples,
    }
}

/// A traced run: the fixed seed set untraced and traced, compared
/// simulation by simulation, reduced to per-layer metrics.
pub fn traced(w: Workload, shape: Shape, seed: u64) -> Report {
    let plain = run_seeds(w, shape, seed, 0, w.seeds(), false);
    let timed = run_seeds(w, shape, seed, 0, w.seeds(), true);
    let mut failed = 0;
    for (a, b) in plain.iter().zip(&timed) {
        if !a.ok() || !b.ok() || a.sim != b.sim {
            failed += 1;
        }
    }
    let attempted = (plain.len() + timed.len()) as u64;

    let total = |p: &[SimRun], f: &dyn Fn(&SimRun) -> f64| p.iter().map(f).sum::<f64>();
    let wall = total(&plain, &|r| r.wall_s);
    let traced_wall = total(&timed, &|r| r.wall_s);
    let cpu = total(&plain, &|r| r.cpu_s.unwrap_or(f64::NAN));
    let traced_cpu = total(&timed, &|r| r.cpu_s.unwrap_or(f64::NAN));
    let events = total(&timed, &|r| r.sim.events as f64);
    let mut planes = PlaneStats::default();
    let mut counters = Counters::default();
    for r in &timed {
        planes.merge(r.planes.as_ref().expect("traced simulation"));
        counters.merge(&r.counters);
    }
    let setup_median = |f: &dyn Fn(&SetupTimes) -> f64| {
        median(&plain.iter().map(|r| f(&r.setup)).collect::<Vec<_>>()).expect("nonempty seed set")
    };

    let cell = Cell::new(w, shape, seed);
    let oracle_s = median(
        &(0..3)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(DistanceOracle::compute(&cell.built.topology));
                t.elapsed().as_secs_f64()
            })
            .collect::<Vec<_>>(),
    )
    .expect("three timings");
    let plan = &cell.shard_plan;
    let shards = plan.shard_count();
    let mut per_shard = vec![0usize; shards];
    for n in 0..plan.node_count() {
        per_shard[plan.owner(NodeId(n as u32)) as usize] += 1;
    }
    let imbalance = *per_shard.iter().max().expect("a shard") as f64
        / (plan.node_count() as f64 / shards as f64);

    let codec = codec::measure(
        cell.cfg.group_size as usize,
        cell.cfg.packet_bytes as usize,
        2_000,
        seed,
    );
    let repair_encodes = total(&plain, &|r| r.sim.repair_tx as f64);
    let decode_groups = total(&plain, &|r| r.sim.decode_groups as f64);
    let records = total(&plain, &|r| r.sim.probe_records as f64);
    let replay_s = total(&plain, &|r| r.replay_s);

    let mut m = vec![
        v("netsim.events", events),
        v("netsim.ns_per_event", wall / events * 1e9),
        v("netsim.self_s", traced_cpu - planes.total_secs()),
        v(
            "netsim.callback_share",
            planes.total_calls() as f64 / events,
        ),
        v("netsim.pending_timers_hwm", counters.pending_timers as f64),
        v(
            "netsim.cancelled_timers_hwm",
            counters.cancelled_timers as f64,
        ),
        v("netsim.in_flight_hwm", counters.in_flight as f64),
        v(
            "netsim.recorder_kb",
            counters.recorder_bytes as f64 / 1024.0,
        ),
        v("netsim.spts_cached", counters.spts as f64),
        v("netsim.oracle_s", oracle_s),
        v("probe.records", records),
        v("probe.audit_ns_per_record", replay_s / records * 1e9),
        v("shard.count", shards as f64),
        v("shard.imbalance", imbalance),
        v("shard.idle_s", shards as f64 * wall - cpu),
    ];
    for plane in Plane::ALL.into_iter().filter(|&p| p != Plane::Start) {
        let i = plane.index();
        let calls = planes.calls[i];
        let ns = if calls == 0 {
            0.0
        } else {
            planes.nanos[i] as f64 / calls as f64
        };
        m.push(v(plane.calls_metric(), calls as f64));
        m.push(v(plane.ns_metric(), ns));
    }
    m.extend([
        v("topology.build_s", setup_median(&|s| s.topology_s)),
        v("setup.agents_s", setup_median(&|s| s.agents_s)),
        v("setup.engine_build_s", setup_median(&|s| s.engine_build_s)),
        v("fec.encode_us", codec.encode_us),
        v("fec.decode_us", codec.decode_us),
        v("fec.repair_encodes", repair_encodes),
        v("fec.decode_groups", decode_groups),
        v(
            "fec.shadow_share",
            (repair_encodes * codec.encode_us + decode_groups * codec.decode_us) * 1e-6 / wall,
        ),
        v("gf256.mul_acc_gbps", codec.mul_acc_gbps),
        v("trace.overhead", traced_wall / wall - 1.0),
    ]);
    let recovery_samples = plain.iter().map(|r| r.sim.recovery_ms.len()).sum();
    finish(attempted, failed, m, recovery_samples, codec.verified)
}
