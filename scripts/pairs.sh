#!/usr/bin/env bash
# pairs.sh — alternating parent/change pairs of bench/run.sh.
#
# Usage: scripts/pairs.sh [-n PAIRS] [-w WORKLOADS] [-s SEED] [-t SECONDS] [-o DIR] BASE_REV [CHANGE_REV]
#
#   -n PAIRS      pairs per workload (default 10)
#   -w WORKLOADS  comma-separated bench workloads (default campaign)
#   -s SEED       bench -seed (default 1)
#   -t SECONDS    bench -seconds per run (default 20)
#   -o DIR        where the exports and the run outputs go (default: a
#                 new temp directory); must not exist or be empty
#
# Exports BASE_REV and CHANGE_REV (default HEAD) with git archive into
# DIR/a and DIR/b: siblings whose paths have the same length. Neither
# side runs from the working checkout, since a run's checkout directory
# alone has moved campaign's setup_s by tens of percent on unchanged
# code. Per workload it then runs PAIRS pairs of bench/run.sh, one run
# per side, and swaps which side runs first from one pair to the next,
# so drift of the host lands on both sides alike. Each run's standard
# output is kept as DIR/out/<workload>.<a|b>.<pair>.jsonl.
#
# Last, per workload and end-to-end metric, it prints each side's
# median [q1, q3], the change's median against the base's in percent,
# and the pairs in which the change was better, in the direction
# BENCHMARK.json gives. A run that exits non-zero, reports an output
# its oracle rejects or counts a failed operation stops the script with
# a non-zero exit.
set -euo pipefail

usage() {
	echo "usage: scripts/pairs.sh [-n PAIRS] [-w WORKLOADS] [-s SEED] [-t SECONDS] [-o DIR] BASE_REV [CHANGE_REV]" >&2
	exit 2
}
pairs=10 workloads=campaign seed=1 seconds=20 dir=
while getopts n:w:s:t:o: opt; do
	case $opt in
	n) pairs=$OPTARG ;;
	w) workloads=$OPTARG ;;
	s) seed=$OPTARG ;;
	t) seconds=$OPTARG ;;
	o) dir=$OPTARG ;;
	*) usage ;;
	esac
done
shift $((OPTIND - 1))
[ $# -ge 1 ] && [ $# -le 2 ] || usage

repo=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
base=$(git -C "$repo" rev-parse --verify "$1^{commit}")
change=$(git -C "$repo" rev-parse --verify "${2:-HEAD}^{commit}")
if [ -z "$dir" ]; then
	dir=$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")
elif [ -n "$(ls -A "$dir" 2>/dev/null)" ]; then
	echo "pairs.sh: $dir is not empty" >&2
	exit 2
fi
mkdir -p "$dir/a" "$dir/b" "$dir/out"
dir=$(cd "$dir" && pwd)
git -C "$repo" archive "$base" | tar -x -C "$dir/a"
git -C "$repo" archive "$change" | tar -x -C "$dir/b"
echo "# base a=$base change b=$change in $dir: $pairs pairs, seed $seed, $seconds s" >&2

run() { # side workload pair
	local out="$dir/out/$2.$1.$3.jsonl"
	if ! bash "$dir/$1/bench/run.sh" --workload "$2" --seed "$seed" --seconds "$seconds" --trace 0 >"$out"; then
		echo "pairs.sh: $2 run $3 of side $1 failed; its output is $out" >&2
		exit 1
	fi
}

IFS=, read -r -a wls <<<"$workloads"
for wl in "${wls[@]}"; do
	for ((i = 1; i <= pairs; i++)); do
		if ((i % 2)); then run a "$wl" "$i"; run b "$wl" "$i"; else run b "$wl" "$i"; run a "$wl" "$i"; fi
		echo "# $wl pair $i/$pairs done" >&2
	done
done

python3 - "$dir" "$pairs" "$workloads" <<'EOF'
import json, os, statistics, sys

dir, pairs, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3].split(",")
bench = json.load(open(os.path.join(dir, "b", "BENCHMARK.json")))
better = {m["name"]: m["better"] for m in bench["end_to_end"]}

def summary(path):
    for line in open(path):
        d = json.loads(line)
        if "metrics" in d and "correct" in d:
            if not d["correct"] or d["failed"]:
                sys.exit("pairs.sh: %s: correct=%s failed=%s" % (path, d["correct"], d["failed"]))
            return {k: v["value"] for k, v in d["metrics"].items()}
    sys.exit("pairs.sh: %s has no summary line" % path)

def quartiles(v):
    med = statistics.median(v)
    if len(v) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(v, n=4)
    return med, q1, q3

for wl in workloads:
    runs = {s: [summary(os.path.join(dir, "out", "%s.%s.%d.jsonl" % (wl, s, i))) for i in range(1, pairs + 1)] for s in "ab"}
    print("== %s: %d pairs, every run correct with 0 failed" % (wl, pairs))
    print("%-14s %-28s %-28s %8s %6s" % ("metric", "base median [q1, q3]", "change median [q1, q3]", "delta %", "wins"))
    for m in better:
        a, b = [r[m] for r in runs["a"]], [r[m] for r in runs["b"]]
        sign = 1 if better[m] == "lower" else -1
        wins = sum(sign * (x - y) > 0 for x, y in zip(a, b))
        cells = ["%.4g [%.4g, %.4g]" % quartiles(v) for v in (a, b)]
        ma, mb = statistics.median(a), statistics.median(b)
        delta = 100 * (mb - ma) / ma if ma else float("nan")
        print("%-14s %-28s %-28s %+8.1f %3d/%d" % (m, cells[0], cells[1], delta, wins, pairs))
EOF
