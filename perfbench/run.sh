#!/usr/bin/env bash
# Builds the release `mia` binary and the `perfbench` binary from the
# source tree, then runs `perfbench` with the given arguments:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of the repository. Build output goes to
# $CARGO_TARGET_DIR (default .bench_build); no build time is measured.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p mia-cli --bin mia 1>&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/perfbench" --mia "$CARGO_TARGET_DIR/release/mia" "$@"
