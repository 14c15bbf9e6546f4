#!/usr/bin/env bash
# Eval of a large CSV in parse parts and on one CPU.
#
# The unit tests force parts only on tiny files; here eval labels a 20 000-row
# file (about 12 MiB, over the 4 MiB of two parts) in the real parse parts of
# this machine's CPUs, and then, under taskset, after the one-process parse:
# the two reports must be the same bytes.  eval of the training file, under
# two parts, labels it on the caller's BLAS thread count; its report must
# equal the run's final evaluation in summary.json.
#
# Needs `crossclust` on PATH and `taskset`; run from anywhere.
set -euo pipefail
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
crossclust generate --n 20000 --d 32 --seed 3 --out "$dir/large.csv"
crossclust generate --n 500 --d 32 --seed 3 --out "$dir/small.csv"
test "$(stat -c %s "$dir/large.csv")" -gt 4194304
crossclust train --data "$dir/small.csv" --label-column label --clusters 5 --init-epochs 1 --c3-epochs 1 --out "$dir/run"
crossclust eval --checkpoint "$dir/run/checkpoint.json" --data "$dir/large.csv" --label-column label > "$dir/parts.json"
taskset -c 0 crossclust eval --checkpoint "$dir/run/checkpoint.json" --data "$dir/large.csv" --label-column label > "$dir/one.json"
cmp "$dir/parts.json" "$dir/one.json"
crossclust eval --checkpoint "$dir/run/checkpoint.json" --data "$dir/small.csv" --label-column label > "$dir/small.json"
python -c 'import json, sys; assert json.load(open(sys.argv[1])) == json.load(open(sys.argv[2]))["final"]' "$dir/small.json" "$dir/run/summary.json"
