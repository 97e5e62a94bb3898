//! End-to-end and per-layer benchmark of the SHARQFEC simulator and
//! protocol stack.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload (see [`workload`]) and prints, as its last line, a
//! JSON object with the run's verdict and metrics: the end-to-end metrics
//! untraced, the per-layer metrics traced (see [`catalogue`]).  Run it
//! from the repository root with
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- …`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalogue;
pub mod codec;
pub mod host;
pub mod probes;
pub mod run;
pub mod stats;
pub mod timed;
pub mod workload;
