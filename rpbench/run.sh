#!/usr/bin/env bash
# Builds rpbench from this checkout's sources and runs it with the given
# arguments (--workload, --seed, --seconds, --trace). Run from the
# repository root. Build outputs, Go caches and run stores all stay under
# ${CARGO_TARGET_DIR:-.bench_build} inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gomod GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/cache
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/rpbench" && go build -o "$out/rpbench" .) >&2
exec "$out/rpbench" --workdir "$out" "$@"
