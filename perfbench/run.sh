#!/usr/bin/env bash
# Build both perfbench binaries from source, then run the untraced one with
# the caller's arguments (it hands `--trace 1` runs to perfbench-traced).
# Run from the repository root, as BENCHMARK.json's command does.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --bins --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/perfbench" "$@"
