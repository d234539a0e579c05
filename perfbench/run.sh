#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#   bash perfbench/run.sh --workload fleet-week --seed 1 --seconds 25 --trace 0
# Run it from the repository root. The build cache, the binary and the
# benchmark's scratch state all live under .bench_build in that root.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

# The fingerprint's commit: the git revision when the root is a work
# tree, else a digest of the Go sources.
if [ -d "$root/.git" ] && commit=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
	:
else
	commit="src-$(find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
fi
export PERFBENCH_COMMIT="$commit"

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
# Write back what the build left dirty, so drowsyd-mix's fsyncs do not
# pay for flushing it during the measured loop.
sync
exec "$build/perfbench" "$@"
