#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload point-serve --seed 1 --seconds 25 --trace 0
#
# Every build product and cache stays inside the checkout, under
# .bench_build/ (the directory CARGO_TARGET_DIR names, when set).
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in /*) ;; *) out="$root/$out" ;; esac
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: run from the repository root; the program's sources are missing" >&2
	exit 2
fi
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
# The toolchain's per-user files (telemetry counters) go here too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
export PERFBENCH_TMP="$out/tmp" PERFBENCH_TRACES="$out/traces"
exec "$out/perfbench" "$@"
