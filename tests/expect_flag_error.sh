#!/bin/sh
# Usage: expect_flag_error.sh '<command line>'...
# Runs each command line and requires a clean failure on its bad flag:
# exit status 1 and an "error: " line, not an abort from an uncaught
# exception.
status=0
for cmd in "$@"; do
  out=$(sh -c "$cmd" 2>&1)
  code=$?
  if [ "$code" -ne 1 ] || ! printf '%s\n' "$out" | grep -q '^error: '; then
    printf 'FAIL (exit %s): %s\n%s\n' "$code" "$cmd" "$out"
    status=1
  fi
done
exit $status
