#!/usr/bin/env bash
# Builds the hamlet-serve server and this benchmark from the checkout in the
# current directory, then runs one benchmark pass:
#
#   bash servebench/run.sh --workload tree-1row --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last line of stdout is the result JSON.
set -euo pipefail
if [ ! -f Cargo.toml ] || [ ! -d crates/serve ] || [ ! -f servebench/Cargo.toml ]; then
    echo "servebench: run from the root of a hamlet checkout" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p hamlet-serve --bin hamlet-serve >&2
cargo build --release --offline --quiet --manifest-path servebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/servebench" \
    --server "$CARGO_TARGET_DIR/release/hamlet-serve" "$@"
