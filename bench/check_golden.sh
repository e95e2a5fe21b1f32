#!/usr/bin/env bash
# Runs one deterministic bench binary at its default flags and diffs its
# stdout against the checked-in golden file.
#
# Usage: check_golden.sh BINARY GOLDEN_FILE
set -euo pipefail
"$1" | diff -u "$2" -
