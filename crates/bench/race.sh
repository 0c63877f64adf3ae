#!/usr/bin/env bash
# Races the `kernels` bench of this working tree against the one of an
# earlier revision, in alternation on one CPU, and prints per case both
# medians, how many rounds the tree won and the revision's spread.
#
#   crates/bench/race.sh <rev> <filter> [--rounds N]
#
# e.g. crates/bench/race.sh HEAD~1 csr_build --rounds 10
#
# <rev> is checked out into a temporary `git worktree` (removed on exit)
# and built offline with the same profile as the tree (`cargo bench`).
# Both sides build against this tree's `vendor/criterion`, so the filter
# and the output format are the same on both. <filter> is the harness's
# name filter: only the benchmarks whose label contains it are timed
# (every group's setup and asserts still run). Each of the N rounds
# (default 10) runs both binaries under `taskset -c 1`, the revision
# first in odd rounds and the tree first in even ones.
#
# Per case: the median over the rounds of each side's per-round median,
# their ratio, the rounds the tree was faster (x/N), the revision's
# interquartile range, and a verdict: `faster` or `slower` only when the
# tree won (or lost) at least nine rounds in ten and the medians differ
# by more than that range, else `no change`. Then the placement of the
# CSR hot functions in each binary (`placement.sh`), since placement
# alone moves kernel timings. The temporary directory is made under
# $TMPDIR (default /tmp) and holds the revision's build.
set -euo pipefail
usage="usage: $0 <rev> <filter> [--rounds N]"
[[ $# -ge 2 ]] || { echo "$usage" >&2; exit 2; }
rev="$1" filter="$2"
shift 2
rounds=10
if [[ $# -gt 0 ]]; then
    [[ $# -eq 2 && "$1" == --rounds ]] || { echo "$usage" >&2; exit 2; }
    rounds="$2"
fi
[[ "$rounds" =~ ^[1-9][0-9]*$ ]] || { echo "$usage" >&2; exit 2; }

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(git -C "$here" rev-parse --show-toplevel)"
commit="$(git -C "$root" rev-parse --verify --quiet "$rev^{commit}")" \
    || { echo "race: $rev is not a commit" >&2; exit 2; }
work="$(mktemp -d "${TMPDIR:-/tmp}/race.XXXXXX")"
cleanup() {
    git -C "$root" worktree remove --force "$work/tree" 2>/dev/null || true
    git -C "$root" worktree prune
    rm -rf "$work"
}
trap cleanup EXIT
git -C "$root" worktree add --quiet --detach "$work/tree" "$commit"
rm -rf "$work/tree/vendor/criterion"
cp -R "$root/vendor/criterion" "$work/tree/vendor/criterion"

# Builds the kernels bench of tree $1 (into target dir $2 if given) and
# prints the binary's path.
build() {
    (cd "$1" && CARGO_TARGET_DIR="${2:-${CARGO_TARGET_DIR:-$1/target}}" \
        cargo bench --offline -q -p smm-bench --bench kernels --no-run --message-format=json) \
        | sed -n 's/.*"executable":"\([^"]*\/kernels-[0-9a-f]*\)".*/\1/p' | tail -n 1
}
echo "race: building $rev ($commit) and the working tree" >&2
base="$(build "$work/tree" "$work/target")"
change="$(build "$root")"
[[ -x "$base" && -x "$change" ]] || { echo "race: a kernels bench did not build" >&2; exit 1; }

# One run of binary $2 as side $1 in round $3: "side round label ns" per
# timed benchmark.
run() {
    taskset -c 1 "$2" "$filter" --bench | awk -v side="$1" -v round="$3" '
        $2 == "time:" && $3 == "[median" {
            scale = ($5 == "ns") ? 1 : ($5 == "µs") ? 1e3 : ($5 == "ms") ? 1e6 : 1e9
            print side, round, $1, $4 * scale
        }'
}
for ((i = 1; i <= rounds; i++)); do
    if ((i % 2)); then
        run base "$base" "$i"
        run change "$change" "$i"
    else
        run change "$change" "$i"
        run base "$base" "$i"
    fi
    echo "race: round $i/$rounds done" >&2
done >"$work/samples"
[[ -s "$work/samples" ]] || { echo "race: no benchmark label contains '$filter'" >&2; exit 1; }

awk -v rounds="$rounds" '
    function sorted(list, s,    n, i, j, v) {
        n = split(list, s, " ")
        for (i = 2; i <= n; i++) {
            v = s[i]
            for (j = i - 1; j >= 1 && s[j] > v; j--) s[j + 1] = s[j]
            s[j + 1] = v
        }
        return n
    }
    # The p-quantile of a sorted list of n, interpolated.
    function quantile(s, n, p,    at, lo) {
        at = (n - 1) * p + 1
        lo = int(at)
        return lo >= n ? s[n] : s[lo] + (s[lo + 1] - s[lo]) * (at - lo)
    }
    function show(ns) {
        return ns >= 1e6 ? sprintf("%.3f ms", ns / 1e6) : ns >= 1e3 ? sprintf("%.2f us", ns / 1e3) : sprintf("%.1f ns", ns)
    }
    {
        if (!($3 in seen)) { seen[$3] = 1; order[++cases] = $3 }
        time[$1, $2, $3] = $4
        list[$1, $3] = list[$1, $3] " " $4
    }
    END {
        printf "%-44s %12s %12s %7s %6s %11s  %s\n", "case", "rev", "tree", "ratio", "wins", "rev IQR", "verdict"
        for (k = 1; k <= cases; k++) {
            label = order[k]
            nb = sorted(list["base", label], b)
            nc = sorted(list["change", label], c)
            if (nb == 0 || nc == 0) {
                printf "%-44s  timed on one side only (%s)\n", label, nb ? "rev" : "tree"
                continue
            }
            mb = quantile(b, nb, 0.5)
            mc = quantile(c, nc, 0.5)
            iqr = quantile(b, nb, 0.75) - quantile(b, nb, 0.25)
            wins = losses = 0
            for (r = 1; r <= rounds; r++) {
                if (!(("base", r, label) in time) || !(("change", r, label) in time)) continue
                wins += time["change", r, label] < time["base", r, label]
                losses += time["change", r, label] > time["base", r, label]
            }
            verdict = "no change"
            if (wins * 10 >= 9 * rounds && mb - mc > iqr) verdict = "faster"
            if (losses * 10 >= 9 * rounds && mc - mb > iqr) verdict = "slower"
            printf "%-44s %12s %12s %7.3f %6s %11s  %s\n", label, show(mb), show(mc), mc / mb, wins "/" rounds, show(iqr), verdict
        }
    }' "$work/samples"

for side in base change; do
    bin="$base"
    name="$rev"
    if [[ "$side" == change ]]; then bin="$change" name="tree"; fi
    echo "placement, $name:"
    "$here/placement.sh" "$bin" || true
done
