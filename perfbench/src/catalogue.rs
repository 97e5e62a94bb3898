//! The benchmark's metric catalogue: every workload and metric with its
//! unit and direction, the bound of each end-to-end metric, and for each
//! per-layer metric its layer and the end-to-end metrics it should move,
//! on which workloads.
//!
//! `BENCHMARK.json` (the repository root) and `perfbench/catalogue.json`
//! are rendered from these tables by `perfbench --emit benchmark` and
//! `perfbench --emit catalogue`; tests pin both files to the rendering.

use crate::workload::Workload;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// What it measures.
    pub what: &'static str,
}

/// A per-layer metric.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// The layer (crate or module) it measures.
    pub layer: &'static str,
    /// `(end-to-end metric, workload)` pairs this metric should move.
    pub moves: &'static [(&'static str, &'static str)],
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        what,
    }
}

/// The end-to-end metrics, reported by untraced runs.
pub const END_TO_END: [EndToEnd; 12] = [
    e2e("wall_s", "s", Better::Lower, 0.25, "host wall time of Engine::advance per simulation, median over the run, tracing off"),
    e2e("cpu_s", "s", Better::Lower, 0.25, "process user+sys CPU time over the same span, all threads, median per simulation"),
    e2e("setup_s", "s", Better::Lower, 0.25, "topology generation, agent construction and EngineBuilder::build, median over the run's set-ups"),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.25, "peak resident set (VmHWM) of the benchmark process"),
    e2e("delivery_ratio", "ratio", Better::Higher, 0.01, "(receiver, group) pairs reconstructable at the end of the run / pairs attempted"),
    e2e("ttc_s", "sim_s", Better::Lower, 0.25, "source's last fresh send to a receiver's completion of the whole stream, median over the run's (seed, receiver) pairs"),
    e2e("recovery_p50_ms", "sim_ms", Better::Lower, 0.1, "median over (receiver, group) of first complete GroupClose minus the Sender probe of the group's last data packet"),
    e2e("recovery_p99_ms", "sim_ms", Better::Lower, 0.25, "99th percentile of the same samples"),
    e2e("repair_overhead", "ratio", Better::Lower, 0.25, "repair transmissions / data transmissions"),
    e2e("nacks_per_group", "nacks", Better::Lower, 0.25, "(NACK transmissions + 1) / groups sent; the +1 keeps the NACK-free workload non-zero"),
    e2e("session_rx_per_rx", "pkt/rx/s", Better::Lower, 0.05, "session-announcement deliveries per receiver per simulated second"),
    e2e("state_kb_per_rx", "KiB", Better::Lower, 0.05, "mean Agent::state_bytes per receiver at the end of the run"),
];

const SS: &str = "session_scale";
const RS: &str = "repair_storm";
const FS: &str = "flash_sharded";

const WALL_ALL: &[(&str, &str)] = &[("wall_s", SS), ("wall_s", RS), ("wall_s", FS)];
const SETUP_ALL: &[(&str, &str)] = &[("setup_s", SS), ("setup_s", RS), ("setup_s", FS)];
const REPAIR_WALL: &[(&str, &str)] = &[("wall_s", RS)];
const SESSION_WALL: &[(&str, &str)] = &[("wall_s", SS)];
const SHARD_WALL: &[(&str, &str)] = &[("wall_s", FS)];
const QUEUE: &[(&str, &str)] = &[
    ("peak_rss_mb", SS),
    ("wall_s", SS),
    ("peak_rss_mb", FS),
    ("wall_s", FS),
];
const NONE: &[(&str, &str)] = &[];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    moves: &'static [(&'static str, &'static str)],
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        layer,
        moves,
    }
}

use Better::{Higher, Lower};

/// The per-layer metrics, reported by traced runs.
pub const PER_LAYER: [PerLayer; 39] = [
    layer(
        "netsim.events",
        "count",
        Lower,
        "netsim",
        &[
            ("wall_s", SS),
            ("cpu_s", SS),
            ("wall_s", RS),
            ("cpu_s", RS),
            ("wall_s", FS),
            ("cpu_s", FS),
        ],
    ),
    layer("netsim.ns_per_event", "ns", Lower, "netsim", SESSION_WALL),
    layer("netsim.self_s", "s", Lower, "netsim", WALL_ALL),
    layer(
        "netsim.callback_share",
        "ratio",
        Higher,
        "netsim",
        REPAIR_WALL,
    ),
    layer("netsim.pending_timers_hwm", "count", Lower, "netsim", QUEUE),
    layer(
        "netsim.cancelled_timers_hwm",
        "count",
        Lower,
        "netsim",
        QUEUE,
    ),
    layer("netsim.in_flight_hwm", "count", Lower, "netsim", QUEUE),
    layer(
        "netsim.recorder_kb",
        "KiB",
        Lower,
        "netsim",
        &[
            ("peak_rss_mb", SS),
            ("peak_rss_mb", RS),
            ("peak_rss_mb", FS),
        ],
    ),
    layer("netsim.spts_cached", "count", Lower, "netsim", REPAIR_WALL),
    layer("netsim.oracle_s", "s", Lower, "netsim", SETUP_ALL),
    layer(
        "probe.records",
        "count",
        Lower,
        "probe",
        &[("wall_s", FS), ("wall_s", RS)],
    ),
    layer(
        "probe.audit_ns_per_record",
        "ns",
        Lower,
        "probe",
        &[("wall_s", FS), ("wall_s", RS)],
    ),
    layer("shard.count", "count", Higher, "shard", SHARD_WALL),
    layer("shard.imbalance", "ratio", Lower, "shard", SHARD_WALL),
    layer("shard.idle_s", "s", Lower, "shard", SHARD_WALL),
    layer("core.data.calls", "count", Lower, "core", REPAIR_WALL),
    layer("core.data.ns_per_call", "ns", Lower, "core", REPAIR_WALL),
    layer("core.repair.calls", "count", Lower, "core", REPAIR_WALL),
    layer("core.repair.ns_per_call", "ns", Lower, "core", REPAIR_WALL),
    layer("core.nack.calls", "count", Lower, "core", REPAIR_WALL),
    layer("core.nack.ns_per_call", "ns", Lower, "core", REPAIR_WALL),
    layer("core.timer.calls", "count", Lower, "core", REPAIR_WALL),
    layer("core.timer.ns_per_call", "ns", Lower, "core", REPAIR_WALL),
    layer(
        "session.announce.calls",
        "count",
        Lower,
        "session",
        SESSION_WALL,
    ),
    layer(
        "session.announce.ns_per_call",
        "ns",
        Lower,
        "session",
        SESSION_WALL,
    ),
    layer(
        "session.control.calls",
        "count",
        Lower,
        "session",
        &[("wall_s", SS), ("wall_s", FS)],
    ),
    layer(
        "session.control.ns_per_call",
        "ns",
        Lower,
        "session",
        &[("wall_s", SS), ("wall_s", FS)],
    ),
    layer(
        "session.timer.calls",
        "count",
        Lower,
        "session",
        SESSION_WALL,
    ),
    layer(
        "session.timer.ns_per_call",
        "ns",
        Lower,
        "session",
        SESSION_WALL,
    ),
    layer("topology.build_s", "s", Lower, "topology", SETUP_ALL),
    layer("setup.agents_s", "s", Lower, "setup", SETUP_ALL),
    layer("setup.engine_build_s", "s", Lower, "netsim", SETUP_ALL),
    layer("fec.encode_us", "us", Lower, "fec", NONE),
    layer("fec.decode_us", "us", Lower, "fec", NONE),
    layer("fec.repair_encodes", "count", Lower, "fec", NONE),
    layer("fec.decode_groups", "count", Lower, "fec", NONE),
    layer("fec.shadow_share", "ratio", Lower, "fec", NONE),
    layer("gf256.mul_acc_gbps", "GB/s", Higher, "gf256", NONE),
    layer("trace.overhead", "ratio", Lower, "trace", NONE),
];

/// Why each workload is in the benchmark (one line each).
pub fn why(w: Workload) -> &'static str {
    match w {
        Workload::SessionScale => {
            "session plane at n=10^4 on a lossless tree, agent state far above L2; bypasses NACKs, SPT routing, shard sync and the codec"
        }
        Workload::RepairStorm => {
            "Figure 10 under mean-16 burst loss and a backbone flap: repair, NACK and injection planes dominate a cache-sized working set"
        }
        Workload::FlashSharded => {
            "n=2000 flash crowd, churn and zone outage on 2 shards: shard sync, membership events, SPT reroutes and late-join repair"
        }
    }
}

/// The unit of a catalogued metric, end-to-end or per-layer.
pub fn unit(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|&(n, _)| n == name)
        .map(|(_, u)| u)
}

fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn join(items: Vec<String>) -> String {
    items.join(",\n")
}

fn workloads_json(indent: &str) -> String {
    join(
        Workload::ALL
            .iter()
            .map(|&w| {
                format!(
                    "{indent}{{\"name\": {}, \"why\": {}}}",
                    quote(w.name()),
                    quote(why(w))
                )
            })
            .collect(),
    )
}

/// `BENCHMARK.json`: the benchmark contract, with exactly its keys.
pub fn benchmark_json() -> String {
    let e2e = join(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                    quote(m.name),
                    quote(m.unit),
                    quote(m.better.label()),
                    m.bound
                )
            })
            .collect(),
    );
    let layers = join(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                    quote(m.name),
                    quote(m.unit),
                    quote(m.better.label())
                )
            })
            .collect(),
    );
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n  \
         \"paths\": [\"perfbench\"],\n  \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \
         \"end_to_end\": [\n{e2e}\n  ],\n  \"per_layer\": [\n{layers}\n  ]\n}}\n",
        RUN_SECONDS,
        workloads_json("    "),
    )
}

/// How long one run measures (`--seconds`).
pub const RUN_SECONDS: u64 = 20;

/// `perfbench/catalogue.json`: every metric with unit, direction, layer
/// and `moves` links, plus each end-to-end metric's definition.
pub fn catalogue_json() -> String {
    let e2e = join(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}, \"what\": {}}}",
                    quote(m.name),
                    quote(m.unit),
                    quote(m.better.label()),
                    m.bound,
                    quote(m.what)
                )
            })
            .collect(),
    );
    let layers = join(
        PER_LAYER
            .iter()
            .map(|m| {
                let moves: Vec<String> = m
                    .moves
                    .iter()
                    .map(|(metric, w)| {
                        format!("{{\"metric\": {}, \"workload\": {}}}", quote(metric), quote(w))
                    })
                    .collect();
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"layer\": {}, \"moves\": [{}]}}",
                    quote(m.name),
                    quote(m.unit),
                    quote(m.better.label()),
                    quote(m.layer),
                    moves.join(", ")
                )
            })
            .collect(),
    );
    format!(
        "{{\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{e2e}\n  ],\n  \"per_layer\": [\n{layers}\n  ]\n}}\n",
        workloads_json("    ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(valid_name(n), "bad name {n:?}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate name");
        for u in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(valid_unit(u), "bad unit {u:?}");
        }
        for w in Workload::ALL {
            assert!(why(w).len() <= 200 && !why(w).contains('\n'));
        }
    }

    #[test]
    fn every_moves_link_names_a_defined_metric_and_workload() {
        for m in &PER_LAYER {
            for (metric, workload) in m.moves {
                assert!(
                    END_TO_END.iter().any(|e| e.name == *metric),
                    "{}: unknown end-to-end metric {metric}",
                    m.name
                );
                assert!(
                    Workload::parse(workload).is_some(),
                    "{}: unknown workload {workload}",
                    m.name
                );
            }
        }
    }

    #[test]
    fn bounds_stay_within_the_contract_and_setup_has_the_largest() {
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(m.bound <= setup.bound, "{}", m.name);
        }
    }

    #[test]
    fn committed_files_match_the_catalogue() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
        let read = |p: &str| std::fs::read_to_string(format!("{root}/{p}")).expect(p);
        assert_eq!(read("BENCHMARK.json"), benchmark_json());
        assert_eq!(read("perfbench/catalogue.json"), catalogue_json());
    }
}
