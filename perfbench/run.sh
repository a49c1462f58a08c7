#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root: bash perfbench/run.sh --workload suite_sim
# Build outputs and the Go build cache go to .bench_build/ under the
# current directory, so the run reads and writes nothing outside it
# except the Go toolchain itself.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off
# The go command's config and local telemetry live under the user config
# directory; point it inside the build directory too.
(cd "$here" && XDG_CONFIG_HOME="$out/config" go build -o "$out/perfbench-bin" .) >&2
exec "$out/perfbench-bin" "$@"
