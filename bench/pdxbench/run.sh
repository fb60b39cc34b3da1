#!/usr/bin/env bash
# Builds pdxbench (Release) under .bench_build/pdxbench, then runs it from
# the repository root with the given arguments. Build output goes to
# stderr, so stdout ends with pdxbench's result line.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="${root}/.bench_build/pdxbench"

cmake -S "${root}/bench/pdxbench" -B "${build}" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "${build}" --target pdxbench -j "$(nproc)" >&2

cd "${root}"
exec "${build}/pdxbench" "$@"
