#!/usr/bin/env bash
# Launcher named by BENCHMARK.json. Builds the benchmark binary from
# source into .bench_build/ at the checkout root and runs it from the
# checkout root with the given arguments. Everything the go tool writes —
# build cache, temp files, module path, its own config and telemetry —
# is pointed into .bench_build/ too, so nothing outside the checkout is
# touched. Fails before printing any result when the engine's sources are
# not next to this directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$build/cgdqp-bench" .)
cd "$root"
exec "$build/cgdqp-bench" "$@"
