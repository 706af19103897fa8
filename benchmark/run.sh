#!/usr/bin/env bash
# One command for the whole benchmark: builds the harness from source
# (offline, through the repository's .cargo/config.toml shim patches)
# and hands every argument to it. See README.md beside this file.
#
#   benchmark/run.sh [--seed N] [--quick] [--trace] [--workload NAME] [--bless]
#   benchmark/run.sh --compare A.json B.json
#   benchmark/run.sh --selfcheck
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Local runs share the product's target directory; a driver that sets
# CARGO_TARGET_DIR gets its own.
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/sysbench" "$@"
