#!/usr/bin/env bash
# perfbench entry point. Builds the parcost binary and the perfbench program
# from the checkout it is run in, then runs perfbench:
#
#   bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 10 --trace 0
#
# Run it from the root of a parcost checkout. Binaries, the Go build cache,
# the cached fleet bundle, process logs and span files all stay under
# $CARGO_TARGET_DIR (default .bench_build). Build output goes to stderr so
# the JSON result stays the last line of stdout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/parcost || ! -d internal/guide ]]; then
  echo "perfbench: run from the root of a parcost checkout (go.mod, cmd/parcost not found)" >&2
  exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
  /*) ;;
  *) out="$PWD/$out" ;;
esac
mkdir -p "$out/bin"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod

go build -o "$out/bin/parcost" ./cmd/parcost >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -root "$PWD" -out "$out" "$@"
