#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-read --seed 1 --seconds 40 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build): the Go build cache, the
# toolchain's temporary files, fabric stores and span files.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-path" "$out/config" "$out/perfbench"

export GOCACHE=$out/go-cache
export GOTMPDIR=$out/go-tmp
export TMPDIR=$out/go-tmp
export GOPATH=$out/go-path
export XDG_CONFIG_HOME=$out/config
export GOFLAGS=
export GOTOOLCHAIN=local
export GOPROXY=off

commit=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
(cd "$root/perfbench" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/perfbench/perfbench" .)

if [ "${1:-}" = compare ]; then
	exec "$out/perfbench/perfbench" "$@"
fi
exec "$out/perfbench/perfbench" --workdir "$out/perfbench" "$@"
