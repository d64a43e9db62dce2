#!/bin/sh
# A thread that cannot start must not abort a batch.
#
#   tests/thread_start.sh XICBATCH
#
# Runs `xicbatch --threads 64 --generate 200` under a 120,000 KiB
# address-space cap. 64 threads' stacks do not fit, so some thread
# starts fail; the batch must still finish on the workers that did
# start (or on the caller) and exit 0 or 1, never die on a signal.
# ASan and TSan reserve shadow memory that the cap breaks, so the test is
# registered only for builds without a sanitizer.

set -u
if [ $# -ne 1 ]; then
  echo "usage: $0 XICBATCH" >&2
  exit 2
fi
err=$( (ulimit -v 120000 && exec "$1" --threads 64 --generate 200) \
  2>&1 >/dev/null )
rc=$?
if [ "$rc" -gt 1 ]; then
  echo "xicbatch exited $rc under the address-space cap: $err" >&2
  exit 1
fi
