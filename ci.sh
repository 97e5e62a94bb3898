#!/usr/bin/env bash
# Repository CI gate: formatting, lints, and the full test suite.
# Run from the repo root: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --workspace --all-targets (examples, tests, bins link)"
cargo build --workspace --all-targets

echo "==> cargo doc --workspace --no-deps (warnings denied)"
# The vendored proptest stand-in is exempt: its doc comments mirror the
# upstream crate's wording, ambiguous intra-doc links included.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet \
  --exclude proptest

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo test --release (perfbench, the repo benchmark)"
# perfbench is a package of its own outside the workspace, so the stages
# above never compile it; this one fails when an API it uses goes away.
cargo test --release --manifest-path perfbench/Cargo.toml -q

strip_timing() {
  sed -E 's/"(wall_ms|threads|shards|events_per_sec)": [0-9.eE+-]+/"\1": _/g' "$1"
}

echo "==> invariant auditor over the seed-42 sweep grids"
# Each bin attaches the run-attached auditor to every cell and exits
# non-zero if any protocol invariant is violated; summaries (with
# audit_events / audit_violations per cell) land in a scratch directory
# so the committed results/*.json are never rewritten.
cargo build --release -p sharqfec-bench --bins --quiet
mkdir -p target/tmp/bench_ci
./target/release/fault_sweep --seed 42 --out target/tmp/bench_ci > /dev/null
./target/release/ablation_sweep --seed 42 --out target/tmp/bench_ci > /dev/null
./target/release/fig14_21_traffic --seed 42 --packets 128 --out target/tmp/bench_ci > /dev/null

echo "==> injection-policy ablation grid + schema/pin check"
# The policy sweep's gate also pins the EwmaPolicy arm bit-identical to
# the ablation sweep's historical baseline and requires the optimizing
# policy to beat the EWMA's repair bill on the long-burst cells.
./target/release/policy_sweep --seed 42 --out target/tmp/bench_ci > /dev/null
./target/release/policy_sweep --check target/tmp/bench_ci/BENCH_policy_sweep.json

echo "==> seed-42 summaries bit-identical to the committed ones (modulo timing)"
for name in fault_sweep ablation_sweep fig14_21_traffic BENCH_policy_sweep; do
  diff <(strip_timing "results/$name.json") \
       <(strip_timing "target/tmp/bench_ci/$name.json")
done

echo "==> microbench smoke + JSON schema check"
# The smoke profile writes to the scratch directory so the committed
# full-run baseline in results/BENCH_microbench.json is never clobbered.
./target/release/microbench --smoke --out target/tmp/bench_ci > /dev/null
./target/release/microbench --check target/tmp/bench_ci/BENCH_microbench.json
./target/release/microbench --check results/BENCH_microbench.json

echo "==> scaling sweep smoke (10^2/10^3) + crossover check"
# The smoke grid re-measures the SHARQFEC-vs-SRM session crossover at
# CI-sized memberships; the committed full run (through 10^5) carries
# the exponent fit and the state-growth assertions.
./target/release/scale_sweep --smoke --out target/tmp/bench_ci > /dev/null
./target/release/scale_sweep --check target/tmp/bench_ci/BENCH_scale_sweep.json
./target/release/scale_sweep --check results/BENCH_scale_sweep.json

echo "==> workload-scenario sweep smoke + committed-grid check"
# Flash crowds, churn, and regional outages compiled through the
# scenario DSL, every cell audited: the smoke grid runs fresh, the
# committed full grid (with the 10^4-receiver flash-crowd cell) is
# schema- and invariant-checked.
./target/release/scenario_sweep --smoke --out target/tmp/bench_ci > /dev/null
./target/release/scenario_sweep --check target/tmp/bench_ci/BENCH_scenario_sweep.json
./target/release/scenario_sweep --check results/BENCH_scenario_sweep.json

echo "==> sharded engine determinism gate (--shards 4 vs serial)"
# The conservative-PDES shard path must be bit-identical to the serial
# engine: rerun the smoke grid at 4 shards and diff the summaries after
# stripping the fields that legitimately differ (wall clock, thread and
# shard counts, machine-dependent throughput).
mkdir -p target/tmp/bench_ci_sharded
./target/release/scale_sweep --smoke --shards 4 --out target/tmp/bench_ci_sharded > /dev/null
./target/release/scenario_sweep --smoke --shards 4 --out target/tmp/bench_ci_sharded > /dev/null
diff <(strip_timing target/tmp/bench_ci/BENCH_scale_sweep.json) \
     <(strip_timing target/tmp/bench_ci_sharded/BENCH_scale_sweep.json)
diff <(strip_timing target/tmp/bench_ci/BENCH_scenario_sweep.json) \
     <(strip_timing target/tmp/bench_ci_sharded/BENCH_scenario_sweep.json)

echo "CI OK"
