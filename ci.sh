#!/usr/bin/env bash
# Tier-1 gate, runnable from a cold cache with no network: the workspace
# has zero external registry dependencies (see "Hermetic builds" in
# README.md), so everything below must pass with --offline.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --offline --workspace --all-targets -- -D warnings
cargo build --release --offline

# The whole suite runs three times: once with split tasks inline on the
# calling thread and once on pool workers (below), then once more with
# shared parse off, so every test doubles as a differential check. Note
# the root Cargo.toml is both a workspace and a package, so
# bare `cargo test` would only run the root integration tests; --workspace
# covers the crates.
MAXSON_THREADS=1 cargo test -q --offline --workspace
MAXSON_THREADS=4 cargo test -q --offline --workspace

# The third pass: shared parse off, so every test also runs on the naive
# parse-per-call path the differential suites use as their reference.
# Shared parse is on by default: the two passes above already run it.
MAXSON_SHARED_PARSE=0 cargo test -q --offline --workspace

# Reuse-cache matrix: the differential suite proves cache on/off is
# byte-identical whatever the session default, so run it under both env
# settings (the tests also pin the cache explicitly per session, making
# each run meaningful regardless of the inherited default).
MAXSON_RESULT_CACHE=0 cargo test -q --offline --test reuse_differential
MAXSON_RESULT_CACHE=1 cargo test -q --offline --test reuse_differential

# The three-parser differential suite once more with the tape parser as
# the session default, covering the MAXSON_PARSER env-resolution path in
# Session::open (the suite's env test asserts the opened session actually
# runs tape). Only this binary runs under the override: its reference
# sessions pin Jackson explicitly, while e.g. the EXPLAIN ANALYZE goldens
# assume the Jackson default.
MAXSON_PARSER=tape cargo test -q --offline --test tape_differential

# Structural-kernel + mmap matrix: the kernel and tape differential suites
# under the scalar reference tier and the dispatched (auto) tier, crossed
# with part files copied (MAXSON_MMAP=0) and memory-mapped (=1). Results
# must be byte-identical in every cell — both knobs are pure accelerations.
for simd in scalar auto; do
  for mmap in 0 1; do
    MAXSON_SIMD=$simd MAXSON_MMAP=$mmap \
      cargo test -q --offline --test kernel_differential --test tape_differential
  done
done

# The pinned API surface perfbench calls (perfbench/README.md) must still
# build and produce its output schema: one block per workload on 200-row
# tables, offline, ~4 s. A break fails here, not in the benchmark run.
bash perfbench/run.sh --check

# Every smoke below writes its report under a throwaway directory: the
# tracked bench-results/*.json are full-run baselines, and a fast-mode
# smoke must never replace one (asserted at the end of this script).
MAXSON_BENCH_RESULTS="$(mktemp -d)"
export MAXSON_BENCH_RESULTS

# Smoke-run the scaling benchmark (fast mode: 1 run per point); it asserts
# rows are byte-identical across thread counts before reporting walls.
MAXSON_BENCH_FAST=1 cargo run --release --offline -p maxson-bench --bin fig_scaling

# Smoke-run the parser benchmark (fast mode); it asserts the shared-parse
# accounting invariant docs_parsed <= parse_calls on every query, that the
# tape series parses exactly as many documents as the Jackson baseline,
# and that nodes_skipped is positive on tape runs and zero elsewhere.
MAXSON_BENCH_FAST=1 cargo run --release --offline -p maxson-bench --bin fig15_parsers

# Smoke-run the zero-copy scan benchmark (fast mode); it reports scan-only,
# scan+filter, and scan+agg rows/s on the batched columnar pipeline and the
# cells_materialized / batch_rows_skipped work counters.
MAXSON_BENCH_FAST=1 cargo run --release --offline -p maxson-bench --bin fig_scan_throughput

# Tracing smoke: runs a fig12 query untraced and traced, fails on any
# row/counter drift, and validates the exported Chrome trace JSON
# (well-formed, >0 spans, nested parents, named thread tracks).
MAXSON_BENCH_FAST=1 MAXSON_THREADS=4 cargo run --release --offline -p maxson-bench --bin trace_smoke

# Server smoke: starts the TCP query server over a throwaway warehouse,
# replays queries from 8 concurrent clients (results checked against a
# serial reference), then shuts down cleanly and proves no thread leaked.
cargo run --release --offline -p maxson-server --bin server_smoke

# Serving smoke (fast mode): multi-client replay through the server after a
# midnight cycle; asserts byte-identical results, zero footer-cache misses
# in steady state, and reports QPS/p99 per client count.
MAXSON_BENCH_FAST=1 cargo run --release --offline -p maxson-bench --bin fig_serving

# Reuse-cache smoke (fast mode): repeat-heavy / Zipf / no-repeat mixes
# through the server with the reuse cache on; asserts hit p50 >= 5x below
# cold p50, byte-identical responses, bytes within budget, and zero stale
# hits across a mid-stream epoch swap.
MAXSON_BENCH_FAST=1 cargo run --release --offline -p maxson-bench --bin fig_reuse

rm -rf "$MAXSON_BENCH_RESULTS"
git diff --quiet -- bench-results || {
  echo "ci.sh: a smoke changed a tracked file under bench-results/" >&2
  exit 1
}
