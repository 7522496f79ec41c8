#!/bin/sh
# Build the urs CLI and the benchmark in the release profile, then run
# the benchmark with the given arguments:
#
#   sh perfbench/run.sh --workload exact-ladder|sim-fig8|serve-mix \
#     --seed N --seconds S --trace 0|1
#
# Run from the root of a urs source tree. Build output goes to stderr,
# so the last line of stdout is always the benchmark's JSON result.
set -eu
for f in dune-project lib/core/dune bin/dune perfbench/dune; do
  if [ ! -f "$f" ]; then
    echo "perfbench: $f not found; run from the root of a urs source tree" >&2
    exit 2
  fi
done
# the shared dune cache lives outside the tree; keep the build inside it
DUNE_CACHE=disabled dune build --root . --profile release \
  ./perfbench/main.exe ./bin/urs_cli.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
