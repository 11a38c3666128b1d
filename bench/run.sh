#!/usr/bin/env bash
# The benchmark's one command. From the root of a checkout:
#
#   bench/run.sh                    every workload untraced, then traced; every metric printed
#   bench/run.sh --repeat 2         two full sets, compared against the bounds in BENCHMARK.json
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#                                   one run; its last line is the result object
#
# It builds bench/ and cmd/db2rdf-server from source first. Everything
# it writes stays inside the checkout: build outputs, the Go caches and
# the runs' scratch files under .bench_build/, results under bench/out/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"

# A home of its own keeps the go tool's caches, environment file and
# telemetry out of the user's; nothing is fetched (the repository has
# no dependencies).
gobuild() {
	HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
		GOENV=off GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off \
		go build -C "$root/bench" -o "$1" "$2"
}
gobuild "$build/bench" .
gobuild "$build/db2rdf-server" db2rdf/cmd/db2rdf-server

if [ -z "${BENCH_COMMIT:-}" ] && [ -e "$root/.git" ]; then
	BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || true)"
fi
export BENCH_COMMIT="${BENCH_COMMIT:-unknown}"
export TMPDIR="$build/tmp"

case " $* " in
*" --workload "* | *" -workload "*) exec "$build/bench" "$@" ;;
*) exec "$build/bench" -all "$@" ;;
esac
