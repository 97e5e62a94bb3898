//! The benchmark's three workloads and the agent setup they share.
//!
//! Every workload is a closed batch run per seed: build the workload's
//! network, attach one SHARQFEC agent per member, run the engine to the
//! workload's horizon, and on past it in 5 s steps while some receiver is
//! still missing part of the stream.  The networks are part of the
//! workload's definition (the scaled trees are generated from a fixed
//! seed, like the fixed Figure 10 network); the run seed drives loss,
//! timers and churn.
//!
//! * `session_scale` — the `scale_sweep` cell `sharqfec/n=10000`: full
//!   SHARQFEC on the lossless scaled tree, serial engine, aggregate
//!   recorder, 32 packets, 8 s horizon.  The session plane dominates and
//!   agent state far exceeds the CPU caches; NACKs, SPT routing, shard
//!   sync and the codec are off its path.  At seed 42 it is exactly the
//!   committed sweep cell.
//! * `repair_storm` — `fault_sweep`'s `mb=16/x1` cell at paper length:
//!   the Figure 10 network, Gilbert–Elliott bursts of mean length 16 on
//!   every lossy link, the tree-3 backbone link down from 7 s to 9 s,
//!   1024 packets, aggregate recorder.  The repair and NACK planes
//!   dominate and the working set is cache-sized.
//! * `flash_sharded` — `scenario_sweep`'s cell shape at n = 2,000 on
//!   default lossy links: 125 receivers batch-join mid-stream, churn on
//!   the first leaf zone, a correlated outage of the second, the NACK-cap
//!   auditor, two engine shards on two threads.  The only workload that
//!   exercises shard sync, membership events and late-join repair.  Its
//!   stream is 512 packets, so per-seed NACK and repair counts average
//!   over enough groups to compare runs.

use crate::timed::Timed;
use sharqfec::{member_channels, Role, SfAgent, SfMsg, SharqfecConfig};
use sharqfec_bench::scenario::{churn_pool, flash_joiners, nack_cap, outage_zone};
use sharqfec_netsim::prelude::*;
use sharqfec_session::core::{SessionCore, ZcrSeeding};
use sharqfec_topology::figure10::mesh_node;
use sharqfec_topology::{figure10, scaled_tree, BuiltTopology, Figure10Params, ScaledTreeParams};
use std::sync::Arc;
use std::time::Instant;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Session plane at n = 10⁴ (serial, lossless).
    SessionScale,
    /// Repair plane under burst loss and a backbone flap (Figure 10).
    RepairStorm,
    /// Flash crowd + churn + outage at n = 2,000 on two shards.
    FlashSharded,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::SessionScale,
        Workload::RepairStorm,
        Workload::FlashSharded,
    ];

    /// The workload's command-line and report name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SessionScale => "session_scale",
            Workload::RepairStorm => "repair_storm",
            Workload::FlashSharded => "flash_sharded",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulations in a run's fixed seed set: consecutive seeds from the
    /// workload seed.  Sized so the pooled simulated metrics spread little
    /// across seed sets, at tens of seconds of host time on a 2-core host.
    pub fn seeds(self) -> u64 {
        match self {
            Workload::SessionScale => 1,
            Workload::RepairStorm => 48,
            Workload::FlashSharded => 8,
        }
    }

    /// The stream, horizon and engine shape at full benchmark size.
    pub fn shape(self) -> Shape {
        match self {
            Workload::SessionScale => Shape {
                receivers: 10_000,
                packets: 32,
                horizon: SimTime::from_secs(8),
                shards: 1,
            },
            Workload::RepairStorm => Shape {
                receivers: 112,
                packets: 1024,
                // The stream ends at 16.24 s; by 50 s nearly every seed
                // has completed, the rest run on until they do.
                horizon: SimTime::from_secs(50),
                shards: 1,
            },
            Workload::FlashSharded => Shape {
                receivers: 2_000,
                packets: 512,
                horizon: SimTime::from_secs(25),
                shards: 2,
            },
        }
    }
}

/// The size knobs of a workload; tests shrink them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    /// Receivers (scaled-tree workloads; Figure 10 is fixed at 112).
    pub receivers: usize,
    /// Data packets in the stream.
    pub packets: u32,
    /// Simulated horizon.
    pub horizon: SimTime,
    /// Engine shards (and worker threads).
    pub shards: usize,
}

/// The generated trees are part of a workload's definition, like the
/// fixed Figure 10 network: the run seed drives loss, timers and churn,
/// not the shape of the network.  42 is the seed the committed sweeps use.
const TOPOLOGY_SEED: u64 = 42;

/// Members start their session layer here in every workload.
const JOIN_AT: SimTime = SimTime::from_secs(1);

// flash_sharded's timeline, as in `scenario_sweep`.
const FLASH_DATA_START: SimTime = SimTime::from_secs(2);
const FLASH_AT: SimTime = SimTime::from_millis(2_250);
/// A sixteenth of the session batch-joins (125 receivers at n = 2,000).
const FLASH_SHARE: usize = 16;
const CHURN_WINDOW: (SimTime, SimTime) = (SimTime::from_secs(1), SimTime::from_secs(8));
const CHURN_MEAN_SESSION: SimDuration = SimDuration::from_millis(1_500);
const CHURN_MEAN_DOWN: SimDuration = SimDuration::from_millis(400);
const OUTAGE: (SimTime, SimTime) = (SimTime::from_millis(2_100), SimTime::from_millis(2_600));
const FLASH_MAX_BACKOFF: u32 = 5;

// repair_storm's loss re-model and flap, as in `fault_sweep`.
const STORM_MEAN_BURST: f64 = 16.0;
const FLAP: (SimTime, SimTime) = (SimTime::from_secs(7), SimTime::from_secs(9));

/// A workload instance for one seed, before any agent exists.
pub struct Cell {
    /// Topology, source, receivers, zone hierarchy.
    pub built: BuiltTopology,
    /// Protocol configuration (stream length included).
    pub cfg: SharqfecConfig,
    /// Membership scenario (empty unless the workload has one).
    pub plan: ScenarioPlan,
    /// Link faults.
    pub faults: FaultPlan,
    /// Inline auditor configuration, before the builder excuses the
    /// fault and scenario windows.
    pub audit: AuditConfig,
    /// Recorder storage mode.
    pub recorder: RecorderMode,
    /// Simulated horizon.
    pub horizon: SimTime,
    /// Engine partition (single shard for serial workloads).
    pub shard_plan: Arc<ShardPlan>,
}

impl Cell {
    /// Generates the workload instance for `seed` at the given shape.
    pub fn new(w: Workload, shape: Shape, seed: u64) -> Cell {
        let full = SharqfecConfig {
            total_packets: shape.packets,
            ..SharqfecConfig::full()
        };
        let (built, cfg, plan, faults, audit, recorder) = match w {
            Workload::SessionScale => {
                let params = ScaledTreeParams {
                    hub_loss: (0.0, 0.0),
                    leaf_loss: (0.0, 0.0),
                    ..ScaledTreeParams::for_receivers(shape.receivers)
                };
                let built = scaled_tree(&params, TOPOLOGY_SEED).built;
                (
                    built,
                    full,
                    ScenarioPlan::new(),
                    FaultPlan::new(),
                    AuditConfig::default(),
                    RecorderMode::Aggregate,
                )
            }
            Workload::RepairStorm => {
                let mut built = figure10(&Figure10Params::default());
                for id in 0..built.topology.link_count() {
                    let link = LinkId(id as u32);
                    let rate = built.topology.link(link).params.loss.mean_loss();
                    if rate > 0.0 {
                        built
                            .topology
                            .set_loss_model(link, LossModel::burst(rate, STORM_MEAN_BURST));
                    }
                }
                let tree3 = built
                    .topology
                    .link_between(built.source, mesh_node(3))
                    .expect("figure 10 wires every mesh router to the source");
                let faults = FaultPlan::new().link_flap(tree3, FLAP.0, FLAP.1);
                // Aggregate, not fault_sweep's streaming recorder: a
                // straggler seed runs for up to ~20 simulated minutes, and
                // per-node bins over that span would make the process's
                // peak memory depend on which seeds a run draws.
                (
                    built,
                    full,
                    ScenarioPlan::new(),
                    faults,
                    AuditConfig::default(),
                    RecorderMode::Aggregate,
                )
            }
            Workload::FlashSharded => {
                let topo = scaled_tree(
                    &ScaledTreeParams::for_receivers(shape.receivers),
                    TOPOLOGY_SEED,
                );
                let hier = &topo.built.hierarchy;
                let with_channels = |nodes: Vec<NodeId>| -> Vec<(NodeId, Vec<ChannelId>)> {
                    nodes
                        .into_iter()
                        .map(|n| (n, member_channels(hier, n)))
                        .collect()
                };
                let joins = with_channels(flash_joiners(&topo, shape.receivers / FLASH_SHARE));
                let pool = with_channels(churn_pool(&topo));
                let plan = ScenarioPlan::new()
                    .batch_join(FLASH_AT, joins.iter().map(|(n, c)| (*n, c.as_slice())))
                    .churn(
                        seed,
                        CHURN_WINDOW,
                        CHURN_MEAN_SESSION,
                        CHURN_MEAN_DOWN,
                        pool.iter().map(|(n, c)| (*n, c.as_slice())),
                    );
                let faults =
                    topo.zone_outage(FaultPlan::new(), outage_zone(&topo), OUTAGE.0, OUTAGE.1);
                let audit = AuditConfig {
                    nack_sent_cap: Some(nack_cap(hier.zone_count())),
                    ..AuditConfig::default()
                };
                let cfg = SharqfecConfig {
                    data_start: FLASH_DATA_START,
                    max_backoff: FLASH_MAX_BACKOFF,
                    ..full
                };
                (
                    topo.built,
                    cfg,
                    plan,
                    faults,
                    audit,
                    RecorderMode::Streaming,
                )
            }
        };
        let shard_plan = Arc::new(built.shard_plan(shape.shards));
        Cell {
            built,
            cfg,
            plan,
            faults,
            audit,
            recorder,
            horizon: shape.horizon,
            shard_plan,
        }
    }

    /// The auditor configuration the engine builder ends up with: the
    /// cell's config plus the fault and scenario excuse windows.
    pub fn effective_audit(&self) -> AuditConfig {
        let mut cfg = self.audit.clone();
        cfg.excuse_faults(&self.faults);
        cfg.excuse_scenario(&self.plan);
        cfg
    }

    /// The run spec for `[now, until]` on this cell's partition.
    pub fn spec(&self, until: SimTime) -> RunSpec {
        RunSpec::to(until)
            .with_plan(Arc::clone(&self.shard_plan))
            .with_threads(self.shard_plan.shard_count())
    }
}

/// Agent construction: the same steps as
/// `sharqfec::setup_sharqfec_scenario_builder` (one channel per zone in
/// zone order, one agent per member, designed ZCRs), through the public
/// `SessionCore::new` / `SfAgent::new` / `EngineBuilder::add_agent_at`,
/// optionally wrapping each agent in [`Timed`].
pub fn sharqfec_builder(
    built: &BuiltTopology,
    seed: u64,
    cfg: &SharqfecConfig,
    plan: ScenarioPlan,
    timed: bool,
) -> EngineBuilder<SfMsg> {
    assert!(cfg.scoping, "the benchmark runs scoped SHARQFEC only");
    cfg.validate();
    let hier = Arc::new(built.hierarchy.clone());
    let mut builder: EngineBuilder<SfMsg> = EngineBuilder::new(built.topology.clone(), seed);
    let channels: Vec<ChannelId> = hier
        .zones()
        .iter()
        .map(|z| builder.add_channel(&z.members))
        .collect();
    let channels = Arc::new(channels);
    let seeding = ZcrSeeding::Designed(built.designed_zcrs.clone());
    for member in built.members() {
        let role = if member == built.source {
            Role::Source
        } else {
            Role::Receiver
        };
        let session = SessionCore::new(member, Arc::clone(&hier), cfg.session.clone(), &seeding);
        let agent = SfAgent::new(
            cfg.clone(),
            role,
            session,
            Arc::clone(&hier),
            Arc::clone(&channels),
            built.source,
        );
        let agent: Box<dyn Agent<SfMsg>> = if timed {
            Box::new(Timed::new(agent))
        } else {
            Box::new(agent)
        };
        builder.add_agent_at(member, agent, JOIN_AT);
    }
    builder.scenario(plan);
    builder
}

/// Host seconds of each set-up phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Topology and workload-plan generation.
    pub topology_s: f64,
    /// Session and protocol agent construction.
    pub agents_s: f64,
    /// `EngineBuilder::build` (distance oracle, channels, start events).
    pub engine_build_s: f64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total(&self) -> f64 {
        self.topology_s + self.agents_s + self.engine_build_s
    }
}

/// A built, not yet advanced, workload instance.
pub struct Ready {
    /// The workload instance.
    pub cell: Cell,
    /// The engine, agents attached.
    pub engine: Engine<SfMsg>,
    /// What setting it up cost.
    pub times: SetupTimes,
}

/// Generates, sets up and builds one workload instance, timing each phase.
pub fn set_up(w: Workload, shape: Shape, seed: u64, timed: bool) -> Ready {
    let t = Instant::now();
    let cell = Cell::new(w, shape, seed);
    let topology_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut builder = sharqfec_builder(&cell.built, seed, &cell.cfg, cell.plan.clone(), timed);
    builder
        .recorder_mode(cell.recorder)
        .fault_plan(cell.faults.clone())
        .audit(cell.audit.clone());
    let agents_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let engine = builder.build();
    let engine_build_s = t.elapsed().as_secs_f64();
    Ready {
        cell,
        engine,
        times: SetupTimes {
            topology_s,
            agents_s,
            engine_build_s,
        },
    }
}

/// The protocol agent at `node`, whether or not it is wrapped.
pub fn sf_agent(engine: &Engine<SfMsg>, node: NodeId) -> &SfAgent {
    engine
        .agent::<SfAgent>(node)
        .or_else(|| engine.agent::<Timed>(node).map(|t| &t.inner))
        .expect("every member runs a SHARQFEC agent")
}
