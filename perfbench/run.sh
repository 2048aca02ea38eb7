#!/usr/bin/env bash
# Builds the benchmark from the repository's sources and runs it. Every
# build artefact (binary, Go build cache, span files) stays under
# .bench_build/ at the repository root. Usage, from anywhere:
#
#   bash perfbench/run.sh --workload stack-mixed --seed 1 --seconds 10 --trace 0
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build/perfbench"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
cd "$root"
exec "$build/perfbench" "$@"
