#!/usr/bin/env bash
# Build the benchmark (offline, release) and run it pinned to one CPU.
#
# Pinning keeps the main thread, the scoped worker the DSE engines hand
# their sweep to, and the calibration ops on the same core: on a shared
# 2-core VM the two vCPUs are often slowed by different amounts, and a
# worker that lands on the other one is not the machine the calibration
# measured. Without `taskset` the benchmark runs unpinned.
#
# Usage: bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/cfdfpga-benchmark"

# First CPU this process may run on ("0-1" -> 0, "2,5" -> 2).
cpu="$(awk '/^Cpus_allowed_list:/ {print $2}' /proc/self/status 2>/dev/null | sed 's/[-,].*//')"
if [ -n "$cpu" ] && command -v taskset >/dev/null 2>&1 && taskset -c "$cpu" true 2>/dev/null; then
    exec taskset -c "$cpu" "$bin" "$@"
fi
exec "$bin" "$@"
