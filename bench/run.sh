#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from anywhere:
#
#   bash bench/run.sh --workload campaign --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write — Go build cache, binary, temp
# census files, coordinator state — stays under .bench_build/ at the
# root of the checkout.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gotmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/gotmp" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false

rev=unknown
if [ -d "$root/.git" ] && head=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
	rev=$head
	[ -z "$(git -C "$root" status --porcelain 2>/dev/null)" ] || rev="$rev-dirty"
fi

(cd "$root/bench" && go build -o "$out/tassbench" .)
exec "$out/tassbench" -commit "$rev" "$@"
