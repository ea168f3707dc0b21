#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds and runs the benchmark from
# its own module, keeping the Go build cache inside the checkout
# (.bench_build/) so nothing outside it is read or written.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/workbench" ] || [ ! -d "$root/cmd/sweepd" ]; then
	echo "benchmark: $root is not an rmalocks checkout (need go.mod, cmd/workbench, cmd/sweepd)" >&2
	exit 2
fi
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache" GOPROXY=off GOTOOLCHAIN=local
cd "$here"
exec go run . "$@"
