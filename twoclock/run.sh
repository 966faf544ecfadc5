#!/usr/bin/env bash
# Builds the two-clock benchmark from the checkout it sits in and runs it.
# Usage, from the root of the checkout:
#   bash twoclock/run.sh --workload power --seed 1 --seconds 20 --trace 0
# Everything the build and the run write lands under .bench_build/.
set -euo pipefail

root=$PWD
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

# The module replaces r3bench with the checkout root; outside a checkout
# the build fails here and no result is printed.
(cd "$here" && go build -o "$out/twoclock" .) >&2
exec "$out/twoclock" -out "$out/results" "$@"
