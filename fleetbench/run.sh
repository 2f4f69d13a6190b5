#!/usr/bin/env bash
# Builds ssyncd and the fleetbench harness from the checkout this script
# lives in, then runs the harness from the checkout root with the given
# arguments, e.g.
#
#   bash fleetbench/run.sh --workload sweep-cold --seed 1 --seconds 20 --trace 0
#
# The build, its Go caches and every run's files stay under .bench_build/
# at the checkout root.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/ssyncd" ]]; then
  echo "fleetbench: $root is not a source checkout (no go.mod or cmd/ssyncd)" >&2
  exit 2
fi

out="$root/.bench_build/fleetbench"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
  GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

(cd "$root" && go build -o "$out/bin/ssyncd" ./cmd/ssyncd)
(cd "$bench_dir" && go build -o "$out/bin/fleetbench" .)
cd "$root"
exec "$out/bin/fleetbench" -root "$root" -bin "$out/bin" "$@"
