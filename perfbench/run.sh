#!/usr/bin/env bash
# Builds cmd/gateway, cmd/streamd and the benchmark from this checkout's
# sources, then runs the benchmark. Everything it writes stays under
# .bench_build/ at the checkout root.
#
#   bash perfbench/run.sh --workload live-gating --seed 1 --seconds 10 --trace 0
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
WORK="$ROOT/.bench_build"
mkdir -p "$WORK/bin" "$WORK/tmp"
export GOCACHE="$WORK/gocache" GOPATH="$WORK/gopath" GOMODCACHE="$WORK/gopath/pkg/mod"
export GOTMPDIR="$WORK/tmp" TMPDIR="$WORK/tmp"
export GOTOOLCHAIN=local GOENV=off GOFLAGS=-buildvcs=false GOPROXY=off

(cd "$ROOT" && go build -o "$WORK/bin/" ./cmd/gateway ./cmd/streamd) >&2
(cd "$ROOT/perfbench" && go build -o "$WORK/bin/perfbench" .) >&2

# The revision: git's when the checkout is a repository, else a hash of
# the Go sources and module files.
if ! REV="$(git -C "$ROOT" rev-parse HEAD 2>/dev/null)"; then
	REV="tree-sha256:$(cd "$ROOT" && find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name 'go.mod' \) -print \
		| LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
fi

exec "$WORK/bin/perfbench" --bin "$WORK/bin" --work "$WORK" --rev "$REV" "$@"
