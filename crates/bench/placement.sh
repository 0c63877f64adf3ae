#!/usr/bin/env bash
# Prints where the CSR hot functions start in a binary: each one's address
# and that address mod 64, its offset into a cache line. Kernel timings
# move with placement alone, so a speed change read beside a placement
# change says little about the code.
#
#   crates/bench/placement.sh <binary>
#
# e.g. crates/bench/placement.sh benchmark/target/release/smm-benchmark
# Exits non-zero when a function is not a symbol of its own (inlined, or
# a binary that does not link smm-sparse).
set -euo pipefail
bin="${1:?usage: $0 <binary>}"
symbols="$(nm -C "$bin")"
status=0
for name in ColumnSlices::gather_through ColumnSlices::gather_group Csr::vecmat_block_into; do
    addr="$(awk -v name="$name" 'substr($0, length($0) - length(name) + 1) == name { print $1; exit }' <<<"$symbols")"
    if [[ -z "$addr" ]]; then
        echo "${name##*::}: no symbol" >&2
        status=1
        continue
    fi
    printf '%-18s 0x%s  mod 64 = %2d\n' "${name##*::}" "$addr" $((16#$addr % 64))
done
exit "$status"
