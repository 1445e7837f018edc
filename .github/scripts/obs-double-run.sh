#!/usr/bin/env bash
# Run one experiment binary twice with its JSONL telemetry stream on and
# check the observability contract (OBSERVABILITY.md): the stream is
# non-empty, every line parses as JSON with a gap-free `seq` and a known
# `type`, and the rerun reproduces the stream byte for byte.
#
# Usage: obs-double-run.sh <binary> [NFM_THREADS]
#   <binary>       an nfm-bench binary, e.g. exp_e15
#   [NFM_THREADS]  worker count for both runs; omit to leave it unset
set -euo pipefail

bin="$1"
threads="${2:-}"
if [ -n "$threads" ]; then
    export NFM_THREADS="$threads"
fi

for run in 1 2; do
    NFM_OBS_OUT="${bin}_run${run}.jsonl" cargo run --release -p nfm-bench --bin "$bin"
done
test -s "${bin}_run1.jsonl"
python3 - "${bin}_run1.jsonl" <<'EOF'
import json
import sys

path = sys.argv[1]
for n, line in enumerate(open(path)):
    rec = json.loads(line)
    assert rec["seq"] == n, f"seq gap at line {n}: {rec}"
    assert rec["type"] in ("event", "span", "table", "row", "metric"), rec
print(f"{path}: {n + 1} records, all valid JSON")
EOF
cmp "${bin}_run1.jsonl" "${bin}_run2.jsonl"
