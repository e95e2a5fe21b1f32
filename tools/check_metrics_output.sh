#!/usr/bin/env bash
# Validates exporter output against a checked-in schema: every non-comment
# line of the schema is an extended regex that must match somewhere in the
# output. Also cross-checks internal consistency of the Prometheus section:
#  - the cumulative +Inf bucket of each histogram must equal its _count
#    sample, per label set for labelled histograms like op latency;
#  - each family has one "# HELP" and one "# TYPE" line, and its samples
#    form one contiguous run (no other family's samples in between).
#
# Usage:
#   tools/check_metrics_output.sh <path-to-metrics_dump> [schema]
#   tools/check_metrics_output.sh --file <output.txt> [schema]
#
# The --file form validates pre-captured text (e.g. a curled /metrics
# scrape of tools/mccuckoo_server's cache port) instead of running a
# binary; pair it with tools/metrics_schema_server.txt for daemon scrapes.

set -euo pipefail

if [ "${1:-}" = "--file" ]; then
  file=${2:?usage: check_metrics_output.sh --file <output.txt> [schema]}
  schema=${3:-"$(dirname "$0")/metrics_schema.txt"}
  out=$(cat "$file")
else
  bin=${1:?usage: check_metrics_output.sh <metrics_dump binary> [schema]}
  schema=${2:-"$(dirname "$0")/metrics_schema.txt"}
  out=$("$bin")
fi
fail=0

while IFS= read -r pattern; do
  case "$pattern" in ''|'#'*) continue ;; esac
  if ! grep -Eq -- "$pattern" <<<"$out"; then
    echo "MISSING: $pattern" >&2
    fail=1
  fi
done < "$schema"

# Histogram invariant: cumulative le="+Inf" bucket == _count, matched per
# full label set so multi-label histograms (op latency) are each checked,
# and label-free daemon scrapes work too.
while IFS= read -r line; do
  hist=$(sed -E 's/^([a-z_]+)_bucket\{.*/\1/' <<<"$line")
  inf=$(awk '{print $2}' <<<"$line")
  if grep -Eq '_bucket\{.+,le="\+Inf"\}' <<<"$line"; then
    labels=$(sed -E 's/^[a-z_]+_bucket\{(.+),le="\+Inf"\} .*/\1/' <<<"$line")
    count=$(grep -F "${hist}_count{${labels}}" <<<"$out" | awk '{print $2}')
  else
    labels=""
    count=$(grep -E "^${hist}_count [0-9]+$" <<<"$out" | awk '{print $2}')
  fi
  if [ -z "$inf" ] || [ -z "$count" ] || [ "$inf" != "$count" ]; then
    echo "INCONSISTENT: ${hist}{${labels}}: +Inf bucket '${inf}' != count '${count}'" >&2
    fail=1
  fi
done < <(grep -E '^[a-z_]+_bucket\{.*le="\+Inf"\} [0-9]+$' <<<"$out")

# Exposition-format rules: a family may not carry a second HELP or TYPE
# line, and no other family's samples may split its samples into two runs.
# A histogram's _bucket/_sum/_count samples belong to its TYPE'd family.
if ! grep -E '^# (HELP|TYPE) |^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? [-+0-9.eEInfa]+$' \
    <<<"$out" | awk '
  $1 == "#" {
    if (++meta[$2 " " $3] > 1) {
      print "DUPLICATE: # " $2 " " $3 > "/dev/stderr"; bad = 1
    }
    if ($2 == "TYPE") type[$3] = $4
    next
  }
  {
    family = $1; sub(/\{.*/, "", family)
    base = family; sub(/_(bucket|sum|count)$/, "", base)
    if (type[base] == "histogram") family = base
    if (family != current) {
      if (family in closed) {
        print "SPLIT: " family " resumes after " current > "/dev/stderr"
        bad = 1
      }
      if (current != "") closed[current] = 1
      current = family
    }
  }
  END { exit bad }'; then
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "metrics output schema check FAILED" >&2
  exit 1
fi
echo "metrics output schema check OK"
