#!/bin/sh
# A/A stability check: two interleaved sets of N full runs (default 3) of
# the same build on every workload, every run a fresh process with a seed
# of its own. Prints, per workload x end-to-end metric, both medians, both
# quartile spreads and the difference against the bound in BENCHMARK.json;
# exits non-zero if a difference or a spread exceeds its bound.
#
#   benchmark/aa.sh [N] [--workload <name>] [--seconds <s>] [--seed <first>]
set -eu
here=$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)
runs=${1:-3}
[ $# -gt 0 ] && shift
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- --aa "$runs" "$@"
