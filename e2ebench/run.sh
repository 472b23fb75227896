#!/usr/bin/env bash
# End-to-end benchmark entry point. Run from the repository root:
#
#   bash e2ebench/run.sh --workload publish --seed 1 --seconds 20 --trace 0
#
# It builds cmd/obfuscate, cmd/evaluate, cmd/queryd and the harness
# from the checkout, then runs one workload (see e2ebench/README.md).
# Everything it builds or writes stays under $CARGO_TARGET_DIR
# (default .bench_build) in the checkout: the Go build cache, the
# binaries, generated inputs, traces and the cross-run records.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/queryd || ! -f e2ebench/go.mod ]]; then
	echo "e2ebench: run from the repository root (go.mod, cmd/ and e2ebench/ must be present)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/bin" "$out/config"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off GOENV=off

go build -o "$out/bin/" ./cmd/obfuscate ./cmd/evaluate ./cmd/queryd >&2
(cd e2ebench && go build -o "$out/bin/e2ebench" .) >&2
exec "$out/bin/e2ebench" -bin "$out/bin" -work "$out/e2ebench" "$@"
