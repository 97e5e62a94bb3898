//! The shadow codec: what the `fec` and `gf256` layers would cost if the
//! protocol carried real bytes.
//!
//! Protocol runs count packet indices and never call the codec, so these
//! numbers move no end-to-end metric today.  They are timed at the
//! workload's group shape, and every decode is checked against the
//! source bytes so a broken codec cannot look fast.

use sharqfec_fec::{DecodeScratch, GroupCodec};
use sharqfec_gf256::{mul_acc_slice, Gf256};
use sharqfec_netsim::SimRng;
use std::hint::black_box;
use std::time::Instant;

/// Parity packets the shadow codec is built for (one per data packet,
/// more than any repair burst needs).
const PARITY: usize = 16;

/// Codec timings at one group shape.
#[derive(Clone, Copy, Debug)]
pub struct CodecCost {
    /// Host µs to encode one repair packet (`encode_shard_into`).
    pub encode_us: f64,
    /// Host µs to decode one group with `k / 4` data packets replaced by
    /// repairs.
    pub decode_us: f64,
    /// `mul_acc_slice` throughput on packet-sized slices, GB/s.
    pub mul_acc_gbps: f64,
    /// Whether every decode reproduced the source bytes.
    pub verified: bool,
}

/// Times the codec at `k` data packets of `bytes` bytes, repeating each
/// operation `reps` times, on inputs drawn from `seed`.
pub fn measure(k: usize, bytes: usize, reps: usize, seed: u64) -> CodecCost {
    let codec = GroupCodec::new(k, PARITY).expect("shadow codec shape is valid");
    let mut rng = SimRng::new(seed);
    let data: Vec<Vec<u8>> = (0..k)
        .map(|_| (0..bytes).map(|_| rng.next_u64() as u8).collect())
        .collect();
    let views: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();

    // One repair packet per parity index, as repairers generate them.
    let mut parity = vec![vec![0u8; bytes]; PARITY];
    let t = Instant::now();
    for rep in 0..reps {
        let j = rep % PARITY;
        codec
            .encode_shard_into(black_box(&views), k + j, &mut parity[j])
            .expect("encode at a valid index");
    }
    let encode_us = t.elapsed().as_secs_f64() * 1e6 / reps as f64;

    // A receiver that lost every fourth data packet and holds repairs in
    // their place.
    let lost: Vec<usize> = (0..k).step_by(4).collect();
    let mut shards: Vec<(usize, &[u8])> = (0..k)
        .filter(|i| !lost.contains(i))
        .map(|i| (i, views[i]))
        .collect();
    shards.extend((0..lost.len()).map(|j| (k + j, parity[j].as_slice())));
    let mut scratch = DecodeScratch::default();
    let mut verified = reps > 0;
    let t = Instant::now();
    for _ in 0..reps {
        let group = codec
            .decode(black_box(&shards), &mut scratch)
            .expect("k distinct shards decode");
        verified &= group.iter().zip(&views).all(|(got, want)| got == *want);
    }
    let decode_us = t.elapsed().as_secs_f64() * 1e6 / reps as f64;

    let mut acc = vec![0u8; bytes];
    let t = Instant::now();
    for rep in 0..reps * k {
        mul_acc_slice(&mut acc, black_box(views[rep % k]), Gf256(3));
    }
    black_box(&acc);
    let mul_acc_gbps = (reps * k * bytes) as f64 / t.elapsed().as_secs_f64() / 1e9;

    CodecCost {
        encode_us,
        decode_us,
        mul_acc_gbps,
        verified,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shadow_codec_round_trips_at_the_workload_shape() {
        let cost = measure(16, 1000, 8, 7);
        assert!(cost.verified);
        assert!(cost.encode_us > 0.0 && cost.decode_us > 0.0 && cost.mul_acc_gbps > 0.0);
    }
}
