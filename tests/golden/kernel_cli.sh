#!/usr/bin/env bash
# Prints stdout, stderr and exit status of the single-kernel `cfdc`
# surfaces no other golden covers: the `explore` feasibility listing,
# `simulate`, `verify` and `compile --emit report|host` over five
# builtin kernels x {zcu106, pynq-z2, u250}, plus `--kernel` picks,
# invalid, oversized and small-board replications, the tick-clock
# overflow, and a kernel on a board where no replication fits. `kernel_cli.txt` next to this script is its output.
#
#   bash tests/golden/kernel_cli.sh target/release/cfdc > kernel_cli.txt
#   diff kernel_cli.txt tests/golden/kernel_cli.txt
set -uo pipefail
cfdc=$(realpath "$1")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

run() {
    echo "=== cfdc $* ==="
    "$cfdc" "$@" > "$work/stdout" 2> "$work/stderr"
    local status=$?
    cat "$work/stdout"
    if [ -s "$work/stderr" ]; then
        echo "--- stderr ---"
        cat "$work/stderr"
    fi
    echo "--- exit $status ---"
}

for kernel in helmholtz:5 helmholtz:11 axpy:8 sandwich:4 interpolation:4:6; do
    for board in zcu106 pynq-z2 u250; do
        run explore "$kernel" --board "$board"
        run simulate "$kernel" --board "$board" --elements 1000
        run verify "$kernel" --board "$board"
        run compile "$kernel" --board "$board" --emit report
        run compile "$kernel" --board "$board" --emit host
    done
done

for cmd in compile simulate verify; do
    for kernel in interpolate inverse_helmholtz project; do
        run "$cmd" simstep:7 --kernel "$kernel"
    done
    run "$cmd" helmholtz:5 --k 3 --m 7
    run "$cmd" helmholtz:5 --k 64 --m 64
    run "$cmd" helmholtz:5 --board pynq-z2 --k 16 --m 16
done

run simulate helmholtz:11 --board pynq-z2 --no-sharing --elements 10
run simulate helmholtz:11 --k 1 --m 1 --elements 100000000000

tight=(helmholtz:20 --board pynq-z2 --no-sharing)
run explore "${tight[@]}"
run simulate "${tight[@]}" --elements 10
run compile "${tight[@]}" --emit report
run compile "${tight[@]}" --emit host
