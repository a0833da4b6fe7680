#!/usr/bin/env bash
# Build the benchmark from source (first run in a checkout; later runs only
# check that the build is current), run its self-tests once per build, and
# run one workload:
#
#   bash perfbench/run.sh --workload pbft_steady --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Build output and run scratch go to
# $CARGO_TARGET_DIR (default .bench_build). The last stdout line is the JSON
# result; a failed build, self-test or correctness gate exits non-zero
# without printing one.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
build="$out/perfbench"
log="$out/perfbench-build.log"
# Keep the compiler's and every child's scratch files inside the checkout.
export TMPDIR="$out/tmp"
mkdir -p "$TMPDIR"

if ! { { [[ -f "$build/Makefile" ]] ||
         cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release; } &&
       cmake --build "$build" -j"$(nproc)"; } >"$log" 2>&1; then
    echo "perfbench: build failed; last lines of $log:" >&2
    tail -n 20 "$log" >&2
    exit 1
fi

stamp="$build/selftest.ok"
if [[ ! -f "$stamp" || "$build/perfbench_tests" -nt "$stamp" ]]; then
    if ! (cd "$out" && "$build/perfbench_tests" --gtest_brief=1) >"$out/perfbench-selftest.log" 2>&1; then
        echo "perfbench: self-tests failed; see $out/perfbench-selftest.log" >&2
        tail -n 20 "$out/perfbench-selftest.log" >&2
        exit 1
    fi
    touch "$stamp"
fi

exec "$build/perfbench" "$@" --node-bin "$build/dlt-node" --work-dir "$out/work"
