#!/bin/bash
# Builds e2ebench from the checkout's source and runs it with the given
# arguments. Everything the Go toolchain writes — its build cache
# included — stays under .bench_build/ in the checkout, so a run reads
# and writes nothing outside it.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "e2ebench/run.sh: no go.mod in $PWD: run it in a checkout of the commute module" >&2
	exit 1
fi
build=$PWD/.bench_build
mkdir -p "$build/e2ebench"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/e2ebench/e2ebench" ./e2ebench
exec "$build/e2ebench/e2ebench" "$@"
