#!/usr/bin/env bash
# Builds mwld and the benchmark from this checkout's sources into
# .bench_build/ and runs one workload:
#
#   bash perfbench/run.sh --workload cold-large --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write stays under .bench_build/ (Go build cache included).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/mwld" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/mwld and perfbench/)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOMODCACHE="$out/gomod" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off GOENV=off

go build -o "$out/bin/mwld" ./cmd/mwld >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2

# The checkout may not be a git repository; identify the sources by
# content instead.
src=$(git -C "$root" rev-parse HEAD 2>/dev/null || true)
if [[ -z "$src" ]]; then
	src="tree-sha256:$(find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print | LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
fi
export PERFBENCH_SOURCE="$src"

exec "$out/bin/perfbench" -mwld "$out/bin/mwld" -work "$out" "$@"
