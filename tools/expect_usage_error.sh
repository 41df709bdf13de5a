#!/bin/sh
# Usage: expect_usage_error.sh PATTERN COMMAND [ARGS...]
#
# Passes when COMMAND rejects its command line the way every binary here
# must: exit status 2 with PATTERN (a fixed string, typically the offending
# flag) in its stderr. COMMAND is killed after 10 s, so a binary that
# ignores the bad flag and starts simulating or serving fails instead of
# running on.
pattern=$1
shift
err=$(timeout 10 "$@" 2>&1 >/dev/null)
status=$?
if [ "$status" -ne 2 ]; then
  echo "expected exit 2, got $status from: $*" >&2
  echo "$err" >&2
  exit 1
fi
if ! printf '%s\n' "$err" | grep -qF -- "$pattern"; then
  echo "stderr does not name '$pattern': $err" >&2
  exit 1
fi
echo "$err"
