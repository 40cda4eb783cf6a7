#!/usr/bin/env bash
# Builds the GRAFICS benchmark from the checkout it sits in, then runs it
# from the checkout root:
#
#   bash perfbench/run.sh --workload read-sharded --seed 1 --seconds 8 --trace 0
#
# The Go build cache, the binary, and everything a run writes (state
# directories, WALs, span files) stay under .bench_build/ at the root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/gocache" "${out}/gomod" "${out}/tmp" "${out}/config"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files here too.
export GOCACHE="${out}/gocache" GOMODCACHE="${out}/gomod" GOTMPDIR="${out}/tmp" TMPDIR="${out}/tmp"
export XDG_CONFIG_HOME="${out}/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C "${root}/perfbench" build -o "${out}/perfbench" .
cd "${root}"
exec "${out}/perfbench" "$@"
