#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it. Run from the repository root; arguments pass through, e.g.
#
#   bash perfbench/run.sh --workload hub-sdp --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (the Go build cache, temporary files, the
# binary) stays under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C "$root/perfbench" build -o "$build/perfbench" . >&2

commit=unknown
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
# A digest of the Go sources and module files identifies the code measured
# even where the checkout carries no git metadata.
source=$(find "$root" -path "$build" -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
	LC_ALL=C sort | xargs sha256sum | sed "s|  $root/|  |" | sha256sum | cut -c1-16)

PERFBENCH_COMMIT=$commit PERFBENCH_SOURCE=$source exec "$build/perfbench" "$@"
