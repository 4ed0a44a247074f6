#!/usr/bin/env bash
# Prints the sha256 manifest of `cfdc compile --emit all` over the
# builtin kernels x flag sets x {zcu106, pynq-z2, u250}: one `sha256sum` line
# per emitted file, plus one per run for its stdout, stderr and exit
# status. `compile_catalog.sha256` next to this script is its output.
#
#   bash tests/golden/compile_catalog.sh target/release/cfdc > manifest
#   diff manifest tests/golden/compile_catalog.sha256
set -euo pipefail
cfdc=$(realpath "$1")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
kernels=(helmholtz:3 helmholtz:7 helmholtz:11 interpolation:4:6 interpolation:8:12
    sandwich:4 sandwich:8 axpy:4 axpy:8 simstep:4 simstep:7 simstep:11
    axpychain:4 axpychain:8)
flag_sets=(default --no-factorize --no-sharing --no-decouple --no-cross-sharing)
for kernel in "${kernels[@]}"; do
    for flags in "${flag_sets[@]}"; do
        for board in zcu106 pynq-z2 u250; do
            dir="${kernel//:/_}/${flags#--}/$board"
            mkdir -p "$dir"
            args=(compile "$kernel" --board "$board" --emit all -o "$dir")
            [ "$flags" = default ] || args+=("$flags")
            status=0
            "$cfdc" "${args[@]}" > "$dir/stdout" 2> "$dir/stderr" || status=$?
            echo "$status" > "$dir/status"
        done
    done
done
find . -type f | LC_ALL=C sort | xargs sha256sum
