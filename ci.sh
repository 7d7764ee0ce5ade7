#!/usr/bin/env bash
# Tier-1 gate, runnable from a cold cache with no network: the workspace
# has zero external registry dependencies (see "Hermetic builds" in
# README.md), so everything below must pass with --offline.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --offline --workspace --all-targets -- -D warnings
# Doc comments are checked too: a link to a deleted or private item fails.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps
cargo build --release --offline

# The whole suite runs twice: once with the calling thread running every
# split task alone and once beside pool workers. Note the root Cargo.toml is both a
# workspace and a package, so bare `cargo test` would only run the root
# integration tests; --workspace covers the crates. The suites that vary
# the reuse cache, the parser and the SIMD tier open one session per
# setting (Session::open_with over Config::from_env) or call
# kernels::set_active, and knob
# resolution is tested over Config::from_lookup, so no other environment
# default needs a pass of its own.
MAXSON_THREADS=1 cargo test -q --offline --workspace
MAXSON_THREADS=4 cargo test -q --offline --workspace

# The pinned API surface perfbench calls (perfbench/README.md) must still
# build and produce its output schema: one block per workload on 200-row
# tables, offline, ~4 s. A break fails here, not in the benchmark run.
bash perfbench/run.sh --check

# Every smoke below writes its report under a throwaway directory: the
# tracked bench-results/*.json are full-run baselines, and a fast-mode
# smoke must never replace one (asserted at the end of this script). The
# smokes also run over a throwaway warehouse: fig15_parsers rebuilds the
# cache under a budget, and the committed cache tables the test passes
# above read must stay as they are (asserted at the end too). It is
# generated, not copied: a clone tracks only the small raw tables, and the
# smokes read all ten (make_warehouse's cache tables are byte-identical to
# the committed ones).
MAXSON_BENCH_RESULTS="$(mktemp -d)"
MAXSON_BENCH_DATA="$MAXSON_BENCH_RESULTS/bench-data"
export MAXSON_BENCH_RESULTS MAXSON_BENCH_DATA
cargo run --release --offline -q -p maxson-bench --bin make_warehouse

# Smoke-run the parser benchmark (fast mode); it asserts the shared-parse
# accounting invariant docs_parsed <= parse_calls on every query, that the
# tape series parses exactly as many documents as the Jackson baseline,
# and that nodes_skipped is positive on tape runs and zero elsewhere.
MAXSON_BENCH_FAST=1 cargo run --release --offline -p maxson-bench --bin fig15_parsers

# Smoke-run the parsing microbenches (fast mode, ~4 s): every kernel tier's
# bitmap build, the validating walk and the compiled projection still run.
MAXSON_BENCH_FAST=1 cargo bench --offline -p maxson-bench --bench parsing

# Smoke-run the wire microbench (fast mode, ~1 s): a Q1-shaped QUERY
# response encodes and decodes back to the same rows through the client's
# one-pass decoder.
MAXSON_BENCH_FAST=1 cargo bench --offline -p maxson-bench --bench wire

# Server smoke: starts the TCP query server over a throwaway warehouse,
# replays queries from 8 concurrent clients (results checked against a
# serial reference), then shuts down cleanly and proves no thread leaked.
cargo run --release --offline -p maxson-server --bin server_smoke

# Serving performance is judged by perfbench's serve_zipf workload alone
# (its reuse hit/miss p50 included); what a served run must get right —
# identical results, zero footer-cache misses in steady state, no stale
# reuse hit across an epoch swap — is asserted by the server_* tests above.

rm -rf "$MAXSON_BENCH_RESULTS"
git diff --quiet -- bench-results bench-data || {
  echo "ci.sh: a smoke changed a tracked file under bench-results/ or bench-data/" >&2
  exit 1
}
