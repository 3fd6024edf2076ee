#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments (--workload NAME --seed N --seconds S --trace 0|1).
# Run from the root of the repository. Build outputs, the Go build cache
# and trace files stay under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
export PERFBENCH_OUT="$out/perfbench"

(cd perfbench && go build -o "$out/perfbench.bin" .)
exec "$out/perfbench.bin" "$@"
