#!/usr/bin/env bash
# Builds perfbench from the checkout's own sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload page-hot --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The binary, the Go build cache,
# FileStore directories and trace dumps all live in .bench_build/, so
# nothing is read or written outside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/rfs" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root; the vkernel sources are not here" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)

commit=unknown
if [[ -d "$root/.git" ]]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$out/perfbench" -root "$root" -work "$out" -commit "$commit" "$@"
