#!/usr/bin/env bash
# The benchmark's one command.
#
#   sysbench/run.sh --workload W --seed S --seconds N --trace 0|1
#       one workload in one process; the last line of standard output is
#       the result object (this is how the driver calls it).
#   sysbench/run.sh [--seed S] [--repeat K] [--seconds N]
#       the full set: unit tests first, then every workload measured and
#       traced, each in a fresh process; with --repeat 2 also the
#       repeatability check against the bounds of BENCHMARK.json.
#
# Builds offline from source on every call (a no-op when up to date).
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# Share compiled crates with the repo's own builds unless told otherwise.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
manifest="$here/Cargo.toml"

full_set=1
for arg in "$@"; do
  if [ "$arg" = "--workload" ]; then full_set=0; fi
done

if [ "$full_set" = 1 ]; then
  # A result names the commit it measured; that means nothing if the
  # benchmark's own files differ from it.
  if git -C "$root" rev-parse --is-inside-work-tree >/dev/null 2>&1 &&
    [ -n "$(git -C "$root" status --porcelain -- sysbench BENCHMARK.json)" ]; then
    echo "run.sh: sysbench/ or BENCHMARK.json has uncommitted changes; commit them first" >&2
    exit 1
  fi
  cargo test --offline --quiet --manifest-path "$manifest" >&2
fi

cargo build --release --offline --quiet --manifest-path "$manifest" >&2
bin="$CARGO_TARGET_DIR/release/sysbench"
if [ "$full_set" = 1 ]; then
  exec "$bin" suite "$@"
fi
exec "$bin" "$@"
