#!/usr/bin/env bash
# The benchmark's single entry point: builds `klex-benchmark` (release, once; later calls find
# it up to date) and hands it the arguments.  Without arguments it runs every workload, each
# in a fresh process.
#
#   benchmarks/run.sh                                   # all five workloads, seed 1
#   benchmarks/run.sh run --workload serve_mix --seed 7
#   benchmarks/run.sh trace --all
#   benchmarks/run.sh verify --seed 2
#   benchmarks/run.sh --workload W --seed S --seconds T --trace 0|1   # as BENCHMARK.json calls it
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# glibc's malloc raises its mmap and trim thresholds as large blocks are freed, so how much
# freed memory a process keeps resident depends on the order its threads happened to free
# in: `serve_mix` then peaks anywhere between 59 and 76 MiB for 25 MiB of live data.  Fixed
# thresholds (glibc's own initial values) switch that adaptation off and make `peak_rss_mb`
# a property of the program.
export MALLOC_MMAP_THRESHOLD_="${MALLOC_MMAP_THRESHOLD_:-131072}"
export MALLOC_TRIM_THRESHOLD_="${MALLOC_TRIM_THRESHOLD_:-131072}"
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
if [ $# -eq 0 ]; then
    set -- run --all
fi
exec "${CARGO_TARGET_DIR:-$here/target}/release/klex-benchmark" "$@"
