#!/usr/bin/env sh
# Tier-1 verification, fully offline. Any attempt to pull a crates.io
# dependency fails the build immediately — the workspace must stay
# dependency-free (internal path dependencies only). Warnings are
# promoted to errors so zero-warning status is enforced, not incidental.
set -eu

cd "$(dirname "$0")"

export RUSTFLAGS="-D warnings"

cargo build --release --offline --locked --workspace --all-targets

# Contract gate: qserve-lint must find zero unsuppressed violations of the
# determinism/accounting contract before any test runs. Its summary line
# prints the suppression count, so every `lint: allow` stays visible here.
cargo run --release --offline --locked -p qserve-lint

# Tier-1 shape (root package, debug), then the whole workspace in release —
# release reuses the artifacts built above and keeps the heavy bench/model
# suites fast. QSERVE_THREADS=1 pins the golden suite to the sequential
# driver: the reference arm of the determinism contract.
QSERVE_THREADS=1 cargo test -q --offline --locked
QSERVE_THREADS=1 cargo test -q --offline --locked --workspace --release

# The parallel arm of the contract: regenerate and byte-diff every golden
# CSV again with a 4-thread pool (sweep grids fan out cell-per-task and
# the cluster driver ticks replicas in barrier windows — same bytes or
# this fails naming the experiment that drifted).
QSERVE_THREADS=4 cargo test -q --offline --locked --release -p qserve-bench --test golden_snapshots

# The repository benchmark at smoke size: builds perfbench against this
# checkout and runs every workload untraced and traced, so an API change
# that breaks its build, its replay fidelity or its output checks fails
# here. A fresh state dir keeps a digest stored by an older commit from
# tripping the same-seed reproducibility check.
python3 perfbench/run.py --size tiny --workload all --seed 20240603 --seconds 1 --trace 1 \
    --state-dir "$(mktemp -d)" >/dev/null

# Thread-scaling smoke: runs the same trace at 1/2/4 pool threads,
# asserts the reports are identical, and writes the machine-readable
# baseline to results/BENCH_par_scaling.json.
QSERVE_BENCH_FAST=1 cargo bench --offline --locked -p qserve-bench --bench par_scaling >/dev/null
test -s results/BENCH_par_scaling.json

# The reproduce binary is the user-facing entry point; prove it writes CSV.
# Clear the artifact first so a stale file cannot mask a broken write path.
rm -f results/table1.csv
cargo run --release --offline --locked -p qserve-bench --bin reproduce -- table1 >/dev/null
test -s results/table1.csv

# Smoke the prefix-sharing/chunked-prefill grid the same way.
rm -f results/prefix_sweep.csv
cargo run --release --offline --locked -p qserve-bench --bin reproduce -- prefix_sweep >/dev/null
test -s results/prefix_sweep.csv

# And the multi-replica cluster grid.
rm -f results/cluster_sweep.csv
cargo run --release --offline --locked -p qserve-bench --bin reproduce -- cluster_sweep >/dev/null
test -s results/cluster_sweep.csv

# And the heterogeneous-fleet × admission grid (the full grid is small).
rm -f results/hetero_sweep.csv
cargo run --release --offline --locked -p qserve-bench --bin reproduce -- hetero_sweep >/dev/null
test -s results/hetero_sweep.csv

# And the CI-sized mega_sweep (10k requests through the event-driven core;
# the full million-request id is `mega_sweep`, minutes of runtime).
rm -f results/mega_sweep_smoke.csv
cargo run --release --offline --locked -p qserve-bench --bin reproduce -- mega_sweep_smoke >/dev/null
test -s results/mega_sweep_smoke.csv

# And the CI-sized failure sweep (crash/drain/upgrade × recompute/swap on
# the 4-replica fleet; the full-pressure id is `failure_sweep`).
rm -f results/failure_sweep_smoke.csv
cargo run --release --offline --locked -p qserve-bench --bin reproduce -- failure_sweep_smoke >/dev/null
test -s results/failure_sweep_smoke.csv

# And the CI-sized control-plane sweep (deadline routing, prefix
# migration, elastic autoscaling; the full id is `elastic_sweep`).
rm -f results/elastic_sweep_smoke.csv
cargo run --release --offline --locked -p qserve-bench --bin reproduce -- elastic_sweep_smoke >/dev/null
test -s results/elastic_sweep_smoke.csv

# Every example must run end to end, offline (smoke: exit status only).
for ex in quickstart generate kv4_attention paged_serving prefix_caching \
          cluster_serving heterogeneous_fleet roofline serving_throughput \
          ablation replica_failover elastic_fleet; do
    cargo run --release --offline --locked --example "$ex" >/dev/null
done

echo "ci.sh: all green"
