#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's sources and runs it.
# Run from the root of the repository:
#
#   bash perfbench/run.sh --workload serve-smallnet --seed 1 --seconds 10 --trace 0
#
# Every file the Go toolchain and the benchmark write lands under
# .bench_build/ in the checkout: build cache, temporary files, the
# binary, trace files and the cross-run repeat records.
set -euo pipefail

root="$(pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/tmp" "${build}/config"
export GOCACHE="${build}/gocache"
export GOMODCACHE="${build}/gomodcache"
export GOPATH="${build}/gopath"
export GOTMPDIR="${build}/tmp"
export TMPDIR="${build}/tmp"
export XDG_CONFIG_HOME="${build}/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off

(cd "${root}/perfbench" && go build -o "${build}/perfbench/perfbench" .)
exec "${build}/perfbench/perfbench" "$@"
