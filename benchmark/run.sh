#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from the
# checkout's root. The build cache and the binary live in .bench_build, so
# nothing is read or written outside the checkout.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "benchmark: $root is not a checkout of the repository (no go.mod and internal/)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOWORK=off
(cd "$here" && go build -o "$build/dosn-benchmark" .)
cd "$root"
exec "$build/dosn-benchmark" "$@"
