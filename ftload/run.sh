#!/usr/bin/env bash
# Builds the ftload benchmark from source and runs it. Run from the root of
# a checkout:
#
#   bash ftload/run.sh --workload jobs-cold --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build and telemetry caches, the binary, the servers'
# temporary stores and the traced run's span files.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/service" || ! -f "$root/ftload/go.mod" ]]; then
	echo "ftload: run from the repository root (go.mod, internal/service and ftload/ must be present)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/xdg-config" "$build/xdg-cache"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/go-tmp" GOMODCACHE="$build/go-mod"
export XDG_CONFIG_HOME="$build/xdg-config" XDG_CACHE_HOME="$build/xdg-cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

go -C ftload build -o "$build/ftload" .
exec "$build/ftload" --out "$build/ftload-run" "$@"
