#!/usr/bin/env bash
# Builds the host-cost benchmark from this checkout and runs it:
#
#   bash hostbench/run.sh --workload mix|pack|storm --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Everything the build and the run
# write (Go build cache, binary, span dumps) goes under
# $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config" GOPATH="$out/home/go"
export GOTOOLCHAIN=local GOFLAGS= GOTELEMETRY=off
export HOSTBENCH_OUT="$out"

(cd "$root/hostbench" && go build -o "$out/hostbench" .)
exec "$out/hostbench" "$@"
