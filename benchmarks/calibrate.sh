#!/usr/bin/env bash
# Calibrates the bounds on this host: runs every workload N times (default 10), each time with
# another seed, and writes CALIBRATION.json — every run, median, min and max per metric and
# workload, and per metric the bound max(3 %, 2 x largest deviation from the median) <= 10 %
# next to the quartile spread the acceptance check looks at.  Copy the bounds into
# ../BENCHMARK.json by hand; a spread above a third of its bound means "lengthen the rounds",
# not "widen the bound".
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
runs="${1:-10}"
set="$here/out/calibration.jsonl"
mkdir -p "$here/out"
rm -f "$set"
for seed in $(seq 1 "$runs"); do
    "$here/run.sh" run --all --seed "$seed" --out "$set"
done
"$here/run.sh" calibrate "$set" > "$here/CALIBRATION.json"
echo "wrote $here/CALIBRATION.json from $runs runs" >&2
