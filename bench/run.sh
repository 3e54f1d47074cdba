#!/usr/bin/env bash
# Builds the benchmark from source inside bench/ (its own module; the build
# cache stays under bench/.build so nothing outside the checkout is written)
# and runs it with the arguments given. BENCHMARK.json names this script.
set -euo pipefail
cd "$(dirname "$0")"
export GOCACHE="$PWD/.build/gocache" GOTOOLCHAIN=local GOWORK=off
go build -o .build/bench .
exec .build/bench "$@"
