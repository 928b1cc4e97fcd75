#!/usr/bin/env bash
# Builds the benchmark of record and psserve from the sources of this
# checkout, then runs one workload. Run it from the repository root:
#
#   bash benchmark/run.sh --workload train-fast-q17 --seed 1 --seconds 30 --trace 0
#   bash benchmark/run.sh --sweep
#
# Everything the Go toolchain writes (build cache, binaries, temp files)
# stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOFLAGS= GOTOOLCHAIN=local CGO_ENABLED=0

(cd "$root/benchmark" && go build -o "$out/psbenchrec" . && go build -o "$out/psserve" parallelspikesim/cmd/psserve) >&2

exec "$out/psbenchrec" --psserve "$out/psserve" --workdir "$out/tmp" "$@"
