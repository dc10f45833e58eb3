#!/usr/bin/env bash
# Builds the EMISSARY benchmark from the source in this checkout and
# runs it, passing every argument through. Run it from the repository
# root, for example:
#
#   bash perfbench/run.sh --workload tomcat-emissary --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and trace spans all stay under
# .bench_build/ in the checkout. The benchmark is its own Go module that
# builds the simulator from the parent directory, so it fails to build
# (and exits non-zero) when the simulator source is absent.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/perfbench/go.mod" ]; then
	echo "run.sh: run from the repository root (no perfbench/go.mod under $root)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"

export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly CGO_ENABLED=0
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"

(cd "$root/perfbench" && go build -o "$out/emissary-perfbench" .)
exec "$out/emissary-perfbench" "$@"
