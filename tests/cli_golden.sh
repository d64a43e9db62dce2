#!/bin/sh
# Golden tests for the xicheck and xicbatch command lines.
#
#   tests/cli_golden.sh XICHECK XICBATCH XICD XICFUZZ XICLINT SOURCE_DIR \
#     [--update]
#
# Each case runs one command from SOURCE_DIR (so file names in the output
# are stable relative paths) and compares stdout, stderr and the exit code
# with tests/cli_golden/<case>.golden. xicbatch's `wall:` and `stage:`
# lines carry timings and are stripped. --update rewrites the goldens
# instead of comparing. The last block asserts the usage-error exit code
# (2; 3 for xiclint) for numeric flags that are negative or out of range.
# xicd and xicfuzz appear only there: a flag they wrongly accept would
# start a daemon or a fuzz run, so never point those cases at a build
# that takes "-1".

set -u
if [ $# -lt 6 ]; then
  echo "usage: $0 XICHECK XICBATCH XICD XICFUZZ XICLINT SOURCE_DIR" \
    "[--update]" >&2
  exit 2
fi
# Binaries may be given relative to the caller's directory.
abs() { (cd "$(dirname "$1")" && echo "$(pwd)/$(basename "$1")"); }
xicheck=$(abs "$1")
xicbatch=$(abs "$2")
xicd=$(abs "$3")
xicfuzz=$(abs "$4")
xiclint=$(abs "$5")
cd "$6" || exit 2
update=${7:-}
golden=tests/cli_golden
tmp=$(mktemp -d) || exit 2
trap 'rm -rf "$tmp"' EXIT
failures=0

# render CMD...: stdout, stderr and exit code of CMD in one text block.
render() {
  "$@" >"$tmp/out" 2>"$tmp/err"
  code=$?
  grep -v '^wall:\|^stage:' "$tmp/out"
  echo "-- stderr --"
  cat "$tmp/err"
  echo "-- exit $code --"
}

# check CASE CMD...: compares (or with --update writes) CASE's golden.
check() {
  name=$1
  shift
  render "$@" >"$tmp/actual"
  if [ "$update" = "--update" ]; then
    cp "$tmp/actual" "$golden/$name.golden"
  elif ! diff -u "$golden/$name.golden" "$tmp/actual"; then
    echo "FAIL: $name: $*"
    failures=$((failures + 1))
  fi
}

# exits WANT CMD...: CMD must exit with code WANT.
exits() {
  want=$1
  shift
  "$@" >/dev/null 2>&1
  code=$?
  if [ "$code" -ne "$want" ]; then
    echo "FAIL: exit $code, want $want: $*"
    failures=$((failures + 1))
  fi
}

# usage_error CMD...: CMD must exit 2.
usage_error() { exits 2 "$@"; }

check demo "$xicheck"
check valid "$xicheck" examples/data/library.xml
check broken "$xicheck" examples/data/library_broken.xml
check repair "$xicheck" --repair examples/data/library_broken.xml
check invalid "$xicheck" tests/cli_golden/invalid.xml
check invalid_repair "$xicheck" --repair tests/cli_golden/invalid.xml
check malformed "$xicheck" tests/cli_golden/malformed.xml
check batch_generate "$xicbatch" --threads 1 --generate 200
check batch_files "$xicbatch" --threads 1 examples/data/library.xml \
  examples/data/library_broken.xml tests/cli_golden/invalid.xml \
  tests/cli_golden/malformed.xml
if [ "$update" != "--update" ]; then
  # The same bytes through the flags that must not change them.
  check batch_generate "$xicbatch" --threads 4 --generate 200
  check batch_generate "$xicbatch" --threads 4 --stream --generate 200
  check batch_files "$xicbatch" --threads 4 examples/data/library.xml \
    examples/data/library_broken.xml tests/cli_golden/invalid.xml \
    tests/cli_golden/malformed.xml
  check repair "$xicheck" --stream --repair examples/data/library_broken.xml
  check invalid "$xicheck" --stream tests/cli_golden/invalid.xml
  check malformed "$xicheck" --stream tests/cli_golden/malformed.xml
  # A budget too large to represent means no deadline.
  check valid "$xicheck" --timeout-ms 18446744073709551615 \
    examples/data/library.xml

  for flag in --max-depth --max-bytes --timeout-ms --spill-mb; do
    usage_error "$xicheck" "$flag" -1 examples/data/library.xml
  done
  usage_error "$xicheck" --spill-mb 17592186044416 examples/data/library.xml
  for flag in --threads --max-depth --max-bytes --timeout-ms --retries \
      --spill-mb; do
    usage_error "$xicbatch" "$flag" -1 --generate 1
  done
  usage_error "$xicbatch" --spill-mb 17592186044416 --generate 1
  usage_error "$xicd" --threads -1
  usage_error "$xicfuzz" --trials -1
  exits 3 "$xiclint" --timeout-ms -1
fi

if [ "$failures" -ne 0 ]; then
  echo "$failures CLI golden check(s) failed"
  exit 1
fi
echo "CLI goldens OK"
