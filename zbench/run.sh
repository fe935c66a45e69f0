#!/usr/bin/env bash
# Builds the rewriter and the benchmark program from source, then runs one
# workload:
#
#   bash zbench/run.sh --workload scale-cold|large-par|serve-mix \
#     --seed N --seconds S --trace 0|1
#
# Run it from the root of a checkout.  Build output goes to standard
# error; the last line of standard output is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
if [ ! -f dune-project ]; then
  echo "zbench: $(pwd) is not a checkout of the rewriter (no dune-project)" >&2
  exit 2
fi
dune build --root . --profile release ./bin/ziprtool.exe ./zbench/main.exe 1>&2
exec ./_build/default/zbench/main.exe "$@"
