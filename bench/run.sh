#!/usr/bin/env bash
# Entry point of the benchmark driver (BENCHMARK.json "command"): builds the
# bench package from source into the checkout's .bench_build directory, with
# the Go build cache kept there too so nothing outside the checkout is
# written, then runs it from the checkout root with the driver's arguments.
# The first call in a checkout pays for the build; later calls only re-check it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/fedbench" .)
cd "$root"
exec "$build/fedbench" "$@"
