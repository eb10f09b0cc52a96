#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload churn --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write
# stays under .bench_build/ in the current directory. PERFBENCH_TAGS
# selects build tags (e.g. dimmunix.fp for the frame-pointer capture build).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
commit=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
go -C "$root/perfbench" build -tags "${PERFBENCH_TAGS:-}" \
	-ldflags "-X main.gitCommit=$commit" -o "$out/perfbench" .
exec "$out/perfbench" "$@"
