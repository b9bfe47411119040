#!/usr/bin/env bash
# Runs every deterministic `kar-bench` experiment at fixed flags and writes
# each stdout (<name>.txt) and each JSON document (<name>.json) into
# <dir>. Two trees produced from the same sources must `diff -r` empty
# whatever --jobs was and whether or not the sweeps resumed from a
# checkpoint, and every file must match scripts/golden.sha256:
#
#   (cd <dir> && sha256sum -c "$OLDPWD/scripts/golden.sha256")
#
# Regenerate the manifest — (cd <dir> && LC_ALL=C sha256sum *) >
# scripts/golden.sha256 — only in a PR that says which outputs it
# changes; the manifest's diff is that list.
#
#   scripts/golden.sh <dir> [--jobs N] [--checkpoints <ckpt-dir>]
#
# --checkpoints gives every sweep `--checkpoint <ckpt-dir>/<name>.ckpt`
# (resume: cut the last line of each file and run the same command again).
# stderr of each run goes to <dir>.log/<name>.log, outside the tree.
# BIN_DIR (default target/release, built first when not given) holds the
# `kar-bench` to run, so one checkout's script can drive another's build.
# Only the flags below shape the outputs: `kar-bench` reads no environment.
set -euo pipefail

dir=${1:?usage: scripts/golden.sh <dir> [--jobs N] [--checkpoints <ckpt-dir>]}
shift
jobs=1
ckpts=
while [ $# -gt 0 ]; do
  case $1 in
    --jobs) jobs=$2; shift 2 ;;
    --checkpoints) ckpts=$2; shift 2 ;;
    *) echo "golden.sh: unexpected argument $1" >&2; exit 2 ;;
  esac
done

cd "$(dirname "$0")/.."
if [ -z "${BIN_DIR:-}" ]; then
  cargo build --release -p kar-bench
  BIN_DIR=target/release
fi
mkdir -p "$dir" "$dir.log"
[ -z "$ckpts" ] || mkdir -p "$ckpts"

# run_as <name> <experiment> [flags...]: stdout → <dir>/<name>.txt.
run_as() {
  local name=$1
  shift
  "$BIN_DIR/kar-bench" "$@" --jobs "$jobs" > "$dir/$name.txt" 2> "$dir.log/$name.log"
}
run() { run_as "$1" "$@"; }
# sweep <experiment> [flags...]: as `run`, plus the document
# (<dir>/<experiment>.json) and, when asked for, the checkpoint.
sweep() {
  if [ -n "$ckpts" ]; then
    run "$@" --out "$dir/$1.json" --checkpoint "$ckpts/$1.ckpt"
  else
    run "$@" --out "$dir/$1.json"
  fi
}

run table1
run table2
run fig4 --pre 2 --fail 2 --post 1
run fig5 --runs 2 --seconds 1
run fig6
run fig7 --runs 2 --seconds 1
run fig8 --runs 2 --seconds 1
run ablation_ids
run detection_delay --probes 100
run jitter --probes 300
run cc_ablation --pre 2 --fail 2 --post 2
run scalability
run_as verify_resilience_k1 verify_resilience
run_as verify_resilience_k2_topo15 verify_resilience --k 2 --topo topo15

sweep multi_failure --runs 3 --probes 40
sweep multi_failure_correlated --runs 2 --probes 20 --groups 2
sweep fig_dynamic
# Default flags: these four documents are the committed BENCH files.
sweep fig_breaking
sweep fig_adversary
sweep fig_hier
sweep fig_scale

echo "golden.sh: wrote $(ls "$dir" | wc -l) files to $dir (jobs=$jobs${ckpts:+, checkpoints in $ckpts})" >&2
