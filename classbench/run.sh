#!/usr/bin/env bash
# Builds cmd/chatserver, cmd/gateway and the classroom benchmark from
# the source tree it is run in, then runs the benchmark with the given
# arguments. Run from the repository root:
#
#   bash classbench/run.sh --workload lecture --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# current directory (CARGO_TARGET_DIR-style build root).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/chatserver" || ! -d "$root/cmd/gateway" ]]; then
	echo "classbench: run from the repository root (go.mod, cmd/chatserver and cmd/gateway are missing)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
# The go command's caches, its config and its telemetry counters stay
# under the build root too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOPATH="$build/gopath"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -o "$build/bin/chatserver" ./cmd/chatserver
go build -o "$build/bin/gateway" ./cmd/gateway
(cd "$root/classbench" && go build -o "$build/bin/classbench" .)

exec "$build/bin/classbench" -root "$root" -bin "$build/bin" -work "$build/work" "$@"
