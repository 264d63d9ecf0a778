#!/usr/bin/env bash
# Builds the benchmark and the cachemindd daemon it drives from this
# checkout, then runs one benchmark invocation. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload hot-sessions --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binaries, the Go build cache, traces)
# stays under .bench_build in the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/cachemindd ] || [ ! -d internal/engine ]; then
	echo "perfbench: run from the root of a CacheMind checkout" >&2
	exit 2
fi
out="$(pwd)/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
mkdir -p "$out/bin" "$out/tmp"
go build -o "$out/bin/cachemindd" ./cmd/cachemindd >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" --daemon "$out/bin/cachemindd" --out "$out" "$@"
