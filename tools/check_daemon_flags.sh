#!/usr/bin/env bash
# Runs the cache daemon once per out-of-range, malformed, overflowing or
# unknown flag and requires each run to print the usage line and exit 2
# within a timeout, without binding a port.
#
# Usage:
#   tools/check_daemon_flags.sh <path-to-mccuckoo_server>

set -uo pipefail

bin=${1:?usage: check_daemon_flags.sh <mccuckoo_server binary>}
fail=0
for flag in --port=70000 --port=-1 --shards=-1 --shards=0 --shards=65537 \
            --threads=0 --slots=0 --max-bytes=-1 --sweep-ms=-1 \
            --duration=-1 --shard=4 --port=abc \
            --slots=99999999999999999999 --port=99999999999999999999; do
  out=$(timeout 10 "$bin" "$flag" 2>&1)
  code=$?
  if [ "$code" -ne 2 ] || ! grep -q "usage:" <<<"$out" ||
     grep -q "listening on" <<<"$out"; then
    echo "FAIL $flag: exit $code"
    echo "$out"
    fail=1
  else
    echo "ok   $flag: exit 2"
  fi
done
exit "$fail"
