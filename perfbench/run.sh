#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the
# given arguments (see perfbench/README.md). Run from the repository
# root:
#
#   bash perfbench/run.sh --workload figures-warm --seed 1 --seconds 10 --trace 0
#
# Every build artefact, cache and scratch store stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0

go -C "$root/perfbench" build -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" -root "$root" "$@"
