#!/bin/sh
# Run every shipped example once and exit nonzero when any of them fails.
# `fuzz_farm` is left out: CI's fuzz-smoke job runs it on a fixed batch.
#
#   sh scripts-run-examples.sh
set -u
failed=""
for ex in quickstart fig1_dll sparse_suite table1 soundness_check leak_hunt barnes_hut annotate_demo; do
  echo "=== example: $ex ==="
  out="${TMPDIR:-/tmp}/example_$ex.out"
  if cargo run --release --example "$ex" >"$out" 2>&1; then
    echo OK
  else
    echo FAILED
    tail -5 "$out"
    failed="$failed $ex"
  fi
done
if [ -n "$failed" ]; then
  echo "failed examples:$failed" >&2
  exit 1
fi
