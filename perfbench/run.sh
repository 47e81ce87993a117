#!/usr/bin/env bash
# Builds the simulator benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload fig13-sort --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache, CPU
# profiles and Chrome traces stay under .bench_build/ in the checkout.
set -euo pipefail

# The standard Go install location, for shells that do not have it on PATH.
command -v go >/dev/null || export PATH="$PATH:/usr/local/go/bin"

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp" PPROF_TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOENV=off GOFLAGS=
export PERFBENCH_ROOT="$root" PERFBENCH_OUT="$out"

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
