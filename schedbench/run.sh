#!/usr/bin/env bash
# Builds the schedule-service benchmark from the checkout's sources and runs
# it. Run from the repository root:
#
#   bash schedbench/run.sh --workload serve-warm --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory (Go build cache included). The last line of standard
# output is the JSON result; the human-readable report goes to standard error.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
# The go command keeps its env file and telemetry under the user config dir.
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

(cd "$root/schedbench" && go build -o "$build/schedbench" .)
exec "$build/schedbench" --root "$root" "$@"
