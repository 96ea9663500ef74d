#!/usr/bin/env bash
# run.sh — build and run the end-to-end benchmark from the repository root.
#
#   bash perfbench/run.sh --workload dse --seed 1 --seconds 20 --trace 0
#
# The benchmark is its own Go module (perfbench/go.mod) that replaces
# "stemroot" with the checkout it sits in, so it always measures the source
# next to it. The last line of standard output is the result JSON; see
# perfbench/README.md.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod are required)" >&2
	exit 2
fi

# The binary and everything the go command writes — build cache, temporary
# files, module path, telemetry under the config directory — stay in the
# checkout.
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
