#!/bin/sh
# caa-report --compare, the perf-record gate of tools/check.sh, must skip
# wall-clock leaves and flag drifted deterministic ones.
#
#   caa_report_compare_test.sh CAA_REPORT FIXTURE_DIR
set -u
report="$1"
dir="$2"

"${report}" --compare "${dir}/compare_base.json" \
  "${dir}/compare_wall_drift.json" \
  || { echo "drifted wall-clock leaves failed the gate" >&2; exit 1; }

out="$("${report}" --compare "${dir}/compare_base.json" \
  "${dir}/compare_count_drift.json")"
status=$?
echo "${out}"
[ "${status}" -eq 1 ] \
  || { echo "drifted latency[0].count passed the gate" >&2; exit 1; }
echo "${out}" | grep -q '^DRIFT *latency\[0\]\.count:' \
  || { echo "latency[0].count was not the flagged leaf" >&2; exit 1; }
