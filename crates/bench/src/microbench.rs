//! Hot-path microbenchmark baseline (DESIGN.md §12).
//!
//! Four metric families, one per hot path the engine overhaul targets
//! plus the sweep runner that fans every grid out:
//!
//! * **event_loop** — raw discrete-event throughput: a CBR source
//!   multicasting over the full Figure 10 channel (112 receivers),
//!   measured as processed events per second.
//! * **gf_slice** — GF(256) slice kernels ([`mul_acc_slice`] /
//!   [`mul_slice`]) in GB/s over packet-sized buffers; the inner loop of
//!   every FEC encode and decode.
//! * **fec_codec** — whole-codec throughput in shards per second:
//!   steady-state [`GroupCodec::encode_into`] with reused parity buffers
//!   and [`GroupCodec::decode`] with a reused [`DecodeScratch`], at the
//!   paper's group shape (k = 16) and packet size (1000 B).
//! * **sweep_runner** — thread scaling of [`run_sweep`]: the same
//!   multi-seed full-SHARQFEC sweep on one worker and on every available
//!   core.
//!
//! The run is published through the same sweep-runner JSON schema as the
//! figure sweeps (`results/BENCH_microbench.json`), so the results
//! directory stays uniform.  Wall-clock derived numbers are measured,
//! hence machine-dependent — the committed JSON is a baseline snapshot,
//! not a determinism fixture.  [`check`] validates the schema (CI runs
//! the smoke profile and checks its output).

use crate::{Scenario, Workload};
use sharqfec::Variant;
use sharqfec_fec::{DecodeScratch, GroupCodec};
use sharqfec_gf256::{mul_acc_slice, mul_slice, Gf256};
use sharqfec_netsim::prelude::*;
use sharqfec_netsim::runner::{default_threads, grid, run_sweep, Cell, SweepResults, SweepSummary};
use sharqfec_topology::{figure10, Figure10Params};
use std::num::NonZeroUsize;
use std::time::Instant;

/// Name under which the sweep JSON is published (`<name>.json`).
pub const SWEEP_NAME: &str = "BENCH_microbench";

/// The metric keys every complete run must emit, grouped by cell.
/// [`check`] verifies each cell carries its keys.
const REQUIRED_METRICS: &[(&str, &[&str])] = &[
    ("event_loop", &["events_per_sec", "events"]),
    ("gf_slice", &["mul_acc_gbps", "mul_gbps"]),
    (
        "fec_codec",
        &["encode_shards_per_sec", "decode_shards_per_sec"],
    ),
    (
        "sweep_runner",
        &["workers", "serial_ms", "parallel_ms", "speedup"],
    ),
];

/// Iteration profile: the full baseline or a seconds-scale smoke run.
#[derive(Clone, Copy, Debug, Default)]
pub struct MicrobenchConfig {
    /// Shrink iteration counts so the whole run finishes in well under a
    /// second — CI's schema gate, not a meaningful measurement.
    pub smoke: bool,
}

impl MicrobenchConfig {
    fn storm_packets(&self) -> u32 {
        if self.smoke {
            50
        } else {
            500
        }
    }

    fn storm_iters(&self) -> u32 {
        if self.smoke {
            1
        } else {
            5
        }
    }

    fn slice_passes(&self) -> u32 {
        if self.smoke {
            64
        } else {
            8192
        }
    }

    fn codec_iters(&self) -> u32 {
        if self.smoke {
            32
        } else {
            4096
        }
    }

    /// Seeds and packets per run of the sweep-runner cell's sweep.
    fn sweep_shape(&self) -> (u64, u32) {
        if self.smoke {
            (2, 8)
        } else {
            (8, 32)
        }
    }
}

/// One cell's metrics, in emission order.
pub type Metrics = Vec<(String, f64)>;

/// Runs all four benchmark cells serially (timing must not contend for
/// cores) and returns them in sweep-results form.
pub fn run(cfg: MicrobenchConfig) -> SweepResults<Metrics> {
    let cells: Vec<Cell> = REQUIRED_METRICS
        .iter()
        .map(|(name, _)| Cell::new(*name, 42))
        .collect();
    run_sweep(cells, NonZeroUsize::MIN, |cell| {
        match cell.scenario.as_str() {
            "event_loop" => bench_event_loop(cfg),
            "gf_slice" => bench_gf_slice(cfg),
            "fec_codec" => bench_fec_codec(cfg),
            "sweep_runner" => bench_sweep_runner(cfg),
            other => panic!("unknown microbench cell {other}"),
        }
    })
}

/// Validates a microbench summary: the shared schema, exactly the
/// required cells, and every metric key of each.  Returns one complaint
/// per missing piece (empty means the schema is complete).
pub fn check(summary: &SweepSummary) -> Vec<String> {
    let mut problems = summary.schema_problems(SWEEP_NAME);
    if summary.cells.len() != REQUIRED_METRICS.len() {
        problems.push(format!(
            "expected {} cells, found {}",
            REQUIRED_METRICS.len(),
            summary.cells.len()
        ));
    }
    for (cell, metrics) in REQUIRED_METRICS {
        let Some(c) = summary.cell(cell) else {
            problems.push(format!("missing cell {cell:?}"));
            continue;
        };
        for m in *metrics {
            if c.metric(m).is_none() {
                problems.push(format!("missing metric {m:?} (cell {cell:?})"));
            }
        }
    }
    problems
}

/// The CBR payload for the event-loop storm.
#[derive(Clone, Debug)]
struct Blob;
impl Classify for Blob {
    fn class(&self) -> TrafficClass {
        TrafficClass::Data
    }
}

/// Timer-driven constant-bit-rate source: one 1000 B multicast per
/// millisecond until `left` runs out.
struct Cbr {
    chan: ChannelId,
    left: u32,
}
impl Agent<Blob> for Cbr {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Blob>) {
        ctx.set_timer(SimDuration::from_millis(1), 0);
    }
    fn on_packet(&mut self, _: &mut Ctx<'_, Blob>, _: &Packet<Blob>) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Blob>, _: u64) {
        if self.left > 0 {
            self.left -= 1;
            ctx.multicast(self.chan, Blob, 1000);
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
    }
}

fn bench_event_loop(cfg: MicrobenchConfig) -> Metrics {
    let packets = cfg.storm_packets();
    let built = figure10(&Figure10Params::default());
    let mut events = 0u64;
    let start = Instant::now();
    for _ in 0..cfg.storm_iters() {
        let mut builder: EngineBuilder<Blob> = EngineBuilder::new(built.topology.clone(), 1);
        let chan = builder.add_channel(&built.members());
        builder.add_agent(
            built.source,
            Box::new(Cbr {
                chan,
                left: packets,
            }),
        );
        let mut e = builder.build();
        events += e.advance(RunSpec::drain());
    }
    let secs = start.elapsed().as_secs_f64();
    vec![
        ("events".to_string(), events as f64),
        ("events_per_sec".to_string(), events as f64 / secs),
    ]
}

fn bench_gf_slice(cfg: MicrobenchConfig) -> Metrics {
    const LEN: usize = 64 * 1024;
    let src: Vec<u8> = (0..LEN).map(|i| (i * 31 + 7) as u8).collect();
    let mut dst = vec![0u8; LEN];
    let passes = cfg.slice_passes();

    let start = Instant::now();
    for p in 0..passes {
        // Cycle coefficients so no pass hits the c==0/c==1 fast paths.
        let coeff = Gf256((p % 254 + 2) as u8);
        mul_acc_slice(&mut dst, &src, coeff);
    }
    let acc_secs = start.elapsed().as_secs_f64();
    let acc_gbps = (LEN as u64 * passes as u64) as f64 / acc_secs / 1e9;

    let start = Instant::now();
    for p in 0..passes {
        let coeff = Gf256((p % 254 + 2) as u8);
        mul_slice(&mut dst, coeff);
    }
    let mul_secs = start.elapsed().as_secs_f64();
    let mul_gbps = (LEN as u64 * passes as u64) as f64 / mul_secs / 1e9;

    // Keep the buffer observable so the kernels can't be elided.
    std::hint::black_box(&dst);
    vec![
        ("mul_acc_gbps".to_string(), acc_gbps),
        ("mul_gbps".to_string(), mul_gbps),
    ]
}

fn bench_fec_codec(cfg: MicrobenchConfig) -> Metrics {
    // The paper's group shape and packet size.
    const K: usize = 16;
    const H: usize = 4;
    const LEN: usize = 1000;
    let codec = GroupCodec::new(K, H).expect("paper shape fits MAX_GROUP");
    let data: Vec<Vec<u8>> = (0..K)
        .map(|i| {
            (0..LEN)
                .map(|j| ((i * 131 + j * 17 + 3) % 256) as u8)
                .collect()
        })
        .collect();
    let data_refs: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
    let mut parity = vec![vec![0u8; LEN]; H];
    let iters = cfg.codec_iters();

    let start = Instant::now();
    for _ in 0..iters {
        let mut bufs: Vec<&mut [u8]> = parity.iter_mut().map(|v| v.as_mut_slice()).collect();
        codec
            .encode_into(&data_refs, &mut bufs)
            .expect("encode of well-formed group");
    }
    let enc_secs = start.elapsed().as_secs_f64();
    let encode_rate = (H as u64 * iters as u64) as f64 / enc_secs;

    // Worst-case systematic decode: the first H data shards are lost, so
    // every parity shard participates in the inversion.
    let shards: Vec<(usize, &[u8])> = data
        .iter()
        .enumerate()
        .skip(H)
        .map(|(i, d)| (i, d.as_slice()))
        .chain(
            parity
                .iter()
                .enumerate()
                .map(|(j, p)| (K + j, p.as_slice())),
        )
        .collect();
    let mut scratch = DecodeScratch::default();
    let start = Instant::now();
    for _ in 0..iters {
        let rec = codec
            .decode(&shards, &mut scratch)
            .expect("decode with k shards");
        std::hint::black_box(rec.flat().len());
    }
    let dec_secs = start.elapsed().as_secs_f64();
    let decode_rate = (K as u64 * iters as u64) as f64 / dec_secs;

    vec![
        ("encode_shards_per_sec".to_string(), encode_rate),
        ("decode_shards_per_sec".to_string(), decode_rate),
    ]
}

fn bench_sweep_runner(cfg: MicrobenchConfig) -> Metrics {
    let (seeds, packets) = cfg.sweep_shape();
    let seeds: Vec<u64> = (1..=seeds).collect();
    let sweep_ms = |threads: NonZeroUsize| {
        let start = Instant::now();
        let results = run_sweep(grid(&["full"], &seeds), threads, |cell| {
            let w = Workload {
                packets,
                seed: cell.seed,
                tail_secs: 10,
            };
            Scenario::variant(Variant::Full, w)
                .run_traffic(w.seed)
                .total_repairs
        });
        std::hint::black_box(results.into_values());
        start.elapsed().as_secs_f64() * 1e3
    };
    let workers = default_threads();
    let serial_ms = sweep_ms(NonZeroUsize::MIN);
    let parallel_ms = sweep_ms(workers);
    vec![
        ("workers".to_string(), workers.get() as f64),
        ("serial_ms".to_string(), serial_ms),
        ("parallel_ms".to_string(), parallel_ms),
        ("speedup".to_string(), serial_ms / parallel_ms),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_emits_every_metric_family() {
        let results = run(MicrobenchConfig { smoke: true });
        assert_eq!(results.ok_count(), REQUIRED_METRICS.len());
        let json = results.to_json(SWEEP_NAME, Clone::clone);
        let summary = SweepSummary::parse(&json).expect("writer output parses");
        let problems = check(&summary);
        assert!(problems.is_empty(), "schema gaps: {problems:?}");

        // A dropped cell, a dropped metric, and a foreign sweep are named.
        let mut broken = summary.clone();
        broken.sweep = "other".to_string();
        broken.cells.retain(|c| c.scenario != "event_loop");
        broken.cells_ok -= 1;
        if let Ok(metrics) = &mut broken.cells[0].result {
            metrics.retain(|(k, _)| k != "mul_gbps");
        }
        let problems = check(&broken);
        assert!(problems
            .iter()
            .any(|p| p.contains("expected \"BENCH_microbench\"")));
        assert!(problems
            .iter()
            .any(|p| p.contains("missing cell \"event_loop\"")));
        assert!(problems.iter().any(|p| p.contains("\"mul_gbps\"")));
    }
}
