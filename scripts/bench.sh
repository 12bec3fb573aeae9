#!/bin/sh
# bench.sh — run the benchmark suite and record the perf trajectory.
#
# Emits BENCH_<YYYY-MM-DD>.<run>.json in the repo root (or $1 if
# given): one JSON object per benchmark holding the median over COUNT
# runs of ns/op, bytes/op, allocs/op and every custom b.ReportMetric
# unit (under "metrics"), plus host metadata — CPU, GOMAXPROCS, run
# count — for comparing runs. The
# run suffix is monotonic per day, so same-day re-runs never clash and
# "latest" is decided by the (date, run) in the name — not by mtime,
# which a git checkout flattens. If a previous BENCH_*.json exists, a
# report-only delta table against the latest one is printed after the
# run. Keep the JSON files out of git or check them in deliberately;
# EXPERIMENTS.md quotes the headline numbers.
#
# Usage: scripts/bench.sh [-universe huge] [outfile]
#        scripts/bench.sh -ab BASEDIR BASE.json HEAD.json
#        scripts/bench.sh -compare OLD.json NEW.json
#        scripts/bench.sh -gate [OLD.json] NEW.json
#        scripts/bench.sh -latest
#   BENCH=<regex>       benchmarks to run in . and ./internal/scan (default:
#                       the counting/selection core and the pacer)
#   BENCHTIME=<n>       -benchtime value (default: go test's heuristic)
#   COUNT=<n>           runs per benchmark; the record keeps medians (default: 5)
#   GATE_THRESHOLD=<p>  -gate failure threshold in percent (default: 15)
#
# -ab measures two checkouts on one machine: COUNT rounds, each running
# every benchmark once here and once in BASEDIR (another checkout of
# the repository, e.g. the base commit), so host drift over the run
# lands on both sides alike. It writes one record per side.
#
# -universe huge switches to the lazy-census tier: a ~50M-host synthetic
# census (TASS_HUGE_HOSTS overrides) measured by BenchmarkOpenSnapshot
# (cold-open latency, lazy vs eager), BenchmarkLazyCount (first-touch
# decode cost and resident block count) and BenchmarkVarintDecode. The
# tier writes the same JSON shape; records from different tiers simply
# share no benchmark names.
#
# -compare prints a report-only ns/op delta table. -gate prints the
# same table but exits non-zero when any benchmark present in both
# files regressed by more than GATE_THRESHOLD percent; with one
# argument the old side defaults to the latest committed BENCH_*.json.
# A tier absent from the baseline (no common benchmarks at all) is
# skipped with a warning, not failed — a new tier's first record has
# nothing to regress against. Absolute ns/op only means something on
# comparable hardware, so when the two records name different CPUs the
# gate downgrades itself to report-only instead of failing on the
# machine gap. -latest prints the name of the latest record and exits.
set -eu

cd "$(dirname "$0")/.."

# host_cpu: this machine's CPU model, for gate comparability checks.
host_cpu() {
    awk -F': *' '/model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null ||
        uname -m
}

# record_cpu FILE: the "cpu" field of a record ("" on older records).
record_cpu() {
    awk '/"cpu":/ { split($0, q, "\""); print q[4]; exit }' "$1"
}

# latest_bench: newest record by the (date, run) encoded in the name.
latest_bench() {
    ls -1 BENCH_*.json 2>/dev/null | awk '{
        d = $0
        sub(/^BENCH_/, "", d)
        sub(/\.json$/, "", d)
        n = 1
        if (match(d, /\.[0-9]+$/)) {
            n = substr(d, RSTART + 1) + 0
            d = substr(d, 1, RSTART - 1)
        }
        printf "%s.%09d %s\n", d, n, $0
    }' | sort | tail -n 1 | cut -d" " -f2
}

# delta OLD NEW THRESHOLD: print a ns/op delta table; exit 1 when
# THRESHOLD >= 0 and any common benchmark regressed past it, or when a
# threshold is set but no benchmark was comparable at all (a gate that
# compared nothing must not pass vacuously). Names are normalized by
# stripping go test's -GOMAXPROCS suffix, so records from hosts with
# different core counts still line up.
delta() {
    awk -v thr="$3" '
        FNR == 1 { fi++ }
        /"name":/ {
            split($0, q, "\"")
            name = q[4]
            sub(/-[0-9]+$/, "", name)
            if (match($0, /"ns_per_op": *[0-9.eE+-]+/)) {
                val = substr($0, RSTART, RLENGTH)
                sub(/.*: */, "", val)
                if (fi == 1) { old[name] = val }
                else if (!(name in new)) { new[name] = val; order[n++] = name }
            }
        }
        END {
            fail = 0
            compared = 0
            printf "%-55s %14s %14s %9s\n", "benchmark", "old ns/op", "new ns/op", "delta"
            for (i = 0; i < n; i++) {
                name = order[i]
                if (name in old) {
                    compared++
                    d = (new[name] - old[name]) / old[name] * 100
                    flag = ""
                    if (thr >= 0 && d > thr) { flag = "  REGRESSION"; fail = 1 }
                    printf "%-55s %14.0f %14.0f %+8.1f%%%s\n", name, old[name], new[name], d, flag
                } else {
                    printf "%-55s %14s %14.0f %9s\n", name, "-", new[name], "(new)"
                }
            }
            if (thr >= 0 && compared == 0) {
                # A disjoint benchmark set means a different tier (e.g.
                # the first huge-tier record with only default-tier
                # baselines committed): nothing to regress against, so
                # skip rather than fail.
                print "gate: no benchmark of this tier in the baseline; skipping" > "/dev/stderr"
            }
            exit fail
        }' "$1" "$2"
}

tier=""
if [ "${1:-}" = "-universe" ]; then
    tier="${2:?bench.sh: -universe needs a tier name (huge)}"
    shift 2
fi

case "${1:-}" in
-compare)
    delta "$2" "$3" -1
    exit 0
    ;;
-gate)
    thr="${GATE_THRESHOLD:-15}"
    if [ $# -ge 3 ]; then
        old="$2" new="$3"
    else
        old=$(latest_bench)
        new="$2"
        if [ -z "$old" ]; then
            echo "bench.sh: -gate: no committed BENCH_*.json to compare against" >&2
            exit 0
        fi
    fi
    oldcpu=$(record_cpu "$old")
    newcpu=$(record_cpu "$new")
    # Downgrade only on a *proven* CPU mismatch. A record without the
    # field (pre-gate bench.sh, e.g. the base-commit side of the CI
    # A/B) stays gating: the comparison may well be same-machine, and
    # an unprovable one should fail closed, not pass vacuously.
    if [ -n "$oldcpu" ] && [ -n "$newcpu" ] && [ "$oldcpu" != "$newcpu" ]; then
        echo "gate: baseline CPU ($oldcpu) != this CPU ($newcpu); report-only" >&2
        delta "$old" "$new" -1 || true
        exit 0
    fi
    echo "gate: $old -> $new (fail above +$thr% ns/op)" >&2
    delta "$old" "$new" "$thr"
    exit $?
    ;;
-latest)
    latest_bench
    exit 0
    ;;
esac

mode=""
if [ "${1:-}" = "-ab" ]; then
    mode=ab
    abdir="${2:?bench.sh: -ab needs BASEDIR BASE.json HEAD.json}"
    abbase="${3:?bench.sh: -ab needs BASEDIR BASE.json HEAD.json}"
    set -- "${4:?bench.sh: -ab needs BASEDIR BASE.json HEAD.json}"
fi

# Default output name: a monotonic per-day run suffix, never clobbering
# or shadowing an existing record.
if [ -n "${1:-}" ]; then
    out="$1"
else
    day=$(date +%Y-%m-%d)
    run=$(ls -1 "BENCH_$day".json "BENCH_$day".*.json 2>/dev/null | awk '{
        d = $0
        sub(/^BENCH_[0-9-]*/, "", d)
        sub(/\.json$/, "", d)
        sub(/^\./, "", d)
        n = (d == "") ? 1 : d + 0
        if (n > max) max = n
    } END { print max + 1 }')
    out="BENCH_$day.$run.json"
fi
if [ "$tier" = "huge" ]; then
    export TASS_BENCH_UNIVERSE=huge
    bench="${BENCH:-BenchmarkOpenSnapshot|BenchmarkLazyCount|BenchmarkVarintDecode}"
elif [ -n "$tier" ]; then
    echo "bench.sh: unknown -universe tier \"$tier\" (want huge)" >&2
    exit 2
else
    bench="${BENCH:-BenchmarkSparseCount|BenchmarkIntersect|BenchmarkSelect$|BenchmarkSelect6$|BenchmarkRank$|BenchmarkRunAll$|BenchmarkBuildWorld$|BenchmarkChurnStep$|BenchmarkScanCycle|BenchmarkChurnToSelect|BenchmarkIncrementalRank|BenchmarkAblationCounting|BenchmarkPolicyLimiter|BenchmarkVarintDecode|BenchmarkReadDelta|BenchmarkCounterPass}"
fi
benchtime="${BENCHTIME:-}"
count="${COUNT:-5}"

args="-run=^$ -bench=$bench -benchmem"
if [ -n "$benchtime" ]; then
    args="$args -benchtime=$benchtime"
fi

# run_bench DIR RAW N: run the benchmarks N times in checkout DIR, over
# the root package and internal/scan (BenchmarkPolicyLimiter, the pacer
# as a Scanner worker runs it), appending go test's output to RAW (and
# echoing it).
run_bench() {
    # shellcheck disable=SC2086 # args are intentionally word-split
    (cd "$1" && go test $args -count="$3" . ./internal/scan) | tee -a "$2"
}

# write_record RAW OUT: turn raw go test output into a JSON record, one
# object per benchmark with the median of every value/unit pair across
# its runs. GOMAXPROCS is the -N suffix go test puts on every name (no
# suffix means 1).
write_record() {
    {
        printf '{\n'
        printf '  "date": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
        printf '  "goos": "%s",\n' "$(go env GOOS)"
        printf '  "goarch": "%s",\n' "$(go env GOARCH)"
        printf '  "go": "%s",\n' "$(go env GOVERSION)"
        printf '  "cpu": "%s",\n' "$(host_cpu)"
        awk 'BEGIN { p = 0 }
        $1 ~ /^Benchmark/ && $4 == "ns/op" {
            p = 1
            if (match($1, /-[0-9]+$/)) p = substr($1, RSTART + 1) + 0
            exit
        }
        END { printf "  \"gomaxprocs\": %d,\n", p }' "$1"
        printf '  "count": %s,\n' "$count"
        printf '  "benchmarks": [\n'
        awk '
        # median of the n values v[1..n], sorted in place (n is small).
        function median(v, n,    i, j, x) {
            for (i = 2; i <= n; i++) {
                x = v[i]
                for (j = i - 1; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]
                v[j + 1] = x
            }
            return (n % 2) ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2
        }
        $1 ~ /^Benchmark/ && $4 == "ns/op" {
            name = $1
            if (!(name in runs)) order[nb++] = name
            r = ++runs[name]
            iters[name, r] = $2
            for (f = 3; f < NF; f += 2) {
                unit = $(f + 1)
                if (!((name, unit) in seen)) {
                    seen[name, unit] = 1
                    units[name] = units[name] " " unit
                }
                nv[name, unit]++
                val[name, unit, nv[name, unit]] = $f
            }
        }
        END {
            for (b = 0; b < nb; b++) {
                name = order[b]
                for (i = 1; i <= runs[name]; i++) w[i] = iters[name, i]
                printf "    {\"name\": \"%s\", \"runs\": %d, \"iterations\": %d", name, runs[name], median(w, runs[name])
                nu = split(substr(units[name], 2), us, " ")
                custom = ""
                for (u = 1; u <= nu; u++) {
                    unit = us[u]
                    n = nv[name, unit]
                    for (i = 1; i <= n; i++) w[i] = val[name, unit, i]
                    m = median(w, n)
                    if (unit == "ns/op") printf ", \"ns_per_op\": %.10g", m
                    else if (unit == "B/op") printf ", \"bytes_per_op\": %.10g", m
                    else if (unit == "allocs/op") printf ", \"allocs_per_op\": %.10g", m
                    else custom = custom sprintf("%s\"%s\": %.10g", (custom == "" ? "" : ", "), unit, m)
                }
                if (custom != "") printf ", \"metrics\": {%s}", custom
                printf "}%s\n", (b < nb - 1 ? "," : "")
            }
        }' "$1"
        printf '  ]\n'
        printf '}\n'
    } > "$2"
    echo "wrote $2" >&2
}

tmp=$(mktemp)
tmpbase=$(mktemp)
trap 'rm -f "$tmp" "$tmpbase"' EXIT

if [ "$mode" = "ab" ]; then
    i=0
    while [ "$i" -lt "$count" ]; do
        run_bench . "$tmp" 1
        run_bench "$abdir" "$tmpbase" 1
        i=$((i + 1))
    done
    write_record "$tmpbase" "$abbase"
    write_record "$tmp" "$out"
    exit 0
fi

# The most recent previous record, for the post-run delta table.
prev=$(latest_bench | grep -Fxv "$out" || true)

run_bench . "$tmp" "$count"
write_record "$tmp" "$out"

if [ -n "$prev" ]; then
    echo "" >&2
    echo "delta vs $prev (report-only):" >&2
    delta "$prev" "$out" -1 >&2 || true
fi
