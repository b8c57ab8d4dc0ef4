#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the arguments
# given; invoked from the root of a checkout as
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build writes — cache, temporary files, the toolchain's own
# configuration — goes under .bench_build/, nothing under $HOME or /tmp.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/rhbenchmark" .)
exec "$out/rhbenchmark" "$@"
