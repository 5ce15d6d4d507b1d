#!/bin/sh
# Build the benchmark from this source tree and run one workload:
#   sh zbench/run.sh --workload market|crowd|sync --seed N --seconds S --trace 0|1
# Build output goes to stderr; the last line of stdout is the JSON result.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "zbench: needs the full source tree (dune-project and lib/ not found)" >&2
  exit 2
fi
export DUNE_CACHE=disabled
dune build --root . ./zbench/main.exe >&2
if [ -d .git ]; then
  ZBENCH_GIT_COMMIT=$(git rev-parse HEAD 2>/dev/null || echo unknown)
  export ZBENCH_GIT_COMMIT
fi
exec ./_build/default/zbench/main.exe "$@"
