#!/usr/bin/env bash
# Regenerates results/: the stdout of each experiment below at its
# default flags, one file per experiment. The tables are pure functions
# of the tree (`kar-bench` reads no environment and --jobs never changes a
# result), so `scripts/results.sh <dir> && diff -r <dir> results` is the
# gate, and EXPERIMENTS.md quotes these files.
#
#   scripts/results.sh <dir>
set -euo pipefail

dir=${1:?usage: scripts/results.sh <dir>}
cd "$(dirname "$0")/.."
cargo build --release -p kar-bench
mkdir -p "$dir"
for name in table1 table2 fig4 fig5 fig7 fig8 ablation_ids detection_delay \
    jitter cc_ablation scalability multi_failure; do
  target/release/kar-bench "$name" --jobs "$(nproc)" > "$dir/$name.txt" 2> /dev/null
done
echo "results.sh: wrote $(ls "$dir" | wc -l) files to $dir" >&2
