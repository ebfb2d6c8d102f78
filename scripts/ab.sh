#!/usr/bin/env bash
# A/B the repository benchmark: a base revision against the working tree.
#
# Usage:
#   scripts/ab.sh <base-rev> <workload> <seconds> <pairs>
#   scripts/ab.sh HEAD~1 stored_edit 20 4
#
# The base revision's files are exported (`git archive`) to
# .bench_build/ab-base and built there; the candidate is the working tree,
# uncommitted changes included. Both build offline: every dependency is a
# path dependency or one of the shims/ crates. The runs alternate in ABBA
# order (pair i runs base then candidate when i is even, candidate then
# base when it is odd), so a slow drift of the host's speed falls on both
# sides alike. Each run's JSON line is kept in .bench_build/ab/.
#
# The summary prints every run's "correct" flag and then, per end-to-end
# metric of BENCHMARK.json: the base and candidate medians, the median of
# the per-pair ratios candidate/base, the pairs where the candidate was
# better, and the interquartile range of the base runs (a claimed gain
# should beat it).
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 4 ]; then
    echo "usage: $0 <base-rev> <workload> <seconds> <pairs>" >&2
    exit 2
fi
base_rev=$1 workload=$2 seconds=$3 pairs=$4

root=$PWD
base=$root/.bench_build/ab-base
out=$root/.bench_build/ab
rm -rf "$base" "$out"
mkdir -p "$base" "$out"
git archive "$base_rev" | tar -x -C "$base"

build() {
    cargo build --release --offline --quiet --manifest-path "$1/perfbench/Cargo.toml"
}
echo "# building base ($(git rev-parse --short "$base_rev")) and candidate" >&2
build "$base"
build "$root"

# One run from <dir>'s build, in <dir> (perfbench writes below
# .bench_build/ of its working directory); the JSON line goes to <file>.
run() {
    local dir=$1 file=$2
    (cd "$dir" && perfbench/target/release/perfbench \
        --workload "$workload" --seed 1 --seconds "$seconds" --trace 0) |
        tail -n 1 > "$file"
    echo "# $(basename "$file" .json): $(jq -c '{correct, ok_frac: .metrics.ok_frac.value}' "$file")" >&2
}

for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then
        run "$base" "$out/base-$i.json"
        run "$root" "$out/cand-$i.json"
    else
        run "$root" "$out/cand-$i.json"
        run "$base" "$out/base-$i.json"
    fi
done

python3 - "$out" "$pairs" "$root/BENCHMARK.json" <<'EOF'
import json, statistics, sys

out, pairs, spec = sys.argv[1], int(sys.argv[2]), json.load(open(sys.argv[3]))
load = lambda side, i: json.load(open(f"{out}/{side}-{i}.json"))
base = [load("base", i) for i in range(pairs)]
cand = [load("cand", i) for i in range(pairs)]
print("correct: base", [r["correct"] for r in base], "candidate", [r["correct"] for r in cand])

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

print(f"{'metric':<26}{'base':>12}{'cand':>12}{'ratio':>8}{'better':>8}{'base IQR':>12}")
for m in spec["end_to_end"]:
    name = m["name"]
    try:
        b = [r["metrics"][name]["value"] for r in base]
        c = [r["metrics"][name]["value"] for r in cand]
    except KeyError:
        continue
    ratios = [y / x for x, y in zip(b, c) if x]
    lower = m["better"] == "lower"
    better = sum((y < x) if lower else (y > x) for x, y in zip(b, c))
    lo, hi = quartiles(b)
    ratio = f"{statistics.median(ratios):.3f}" if ratios else "-"
    print(f"{name:<26}{statistics.median(b):>12.4g}{statistics.median(c):>12.4g}"
          f"{ratio:>8}{f'{better}/{pairs}':>8}{hi - lo:>12.4g}")
EOF
