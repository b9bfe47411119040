#!/usr/bin/env bash
# Runs every deterministic experiment binary at fixed knobs and writes
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
# --checkpoints gives every sweep binary `--checkpoint <ckpt-dir>/<name>.ckpt`
# (resume: cut the last line of each file and run the same command again).
# stderr of each binary goes to <dir>.log/<name>.log, outside the tree.
# BIN_DIR (default target/release, built first when unset) picks the
# binaries, so one checkout's script can drive another checkout's build.
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
# Only the knobs set below may shape the outputs.
for v in $(env | grep -o '^KAR_[A-Z_]*' || true); do unset "$v"; done

mkdir -p "$dir" "$dir.log"
[ -z "$ckpts" ] || mkdir -p "$ckpts"

# run <name> <binary> [args...]: stdout → <dir>/<name>.txt.
run() {
  local name=$1 bin=$2
  shift 2
  "$BIN_DIR/$bin" "$@" --jobs "$jobs" > "$dir/$name.txt" 2> "$dir.log/$name.log"
}
# sweep <name> <binary> [args...]: as `run`, plus the document
# (<dir>/<name>.json) and, when asked for, the checkpoint.
sweep() {
  local name=$1
  if [ -n "$ckpts" ]; then
    run "$@" --out "$dir/$name.json" --checkpoint "$ckpts/$name.ckpt"
  else
    run "$@" --out "$dir/$name.json"
  fi
}

run table1 table1
run table2 table2
KAR_PRE=2 KAR_FAIL=2 KAR_POST=1 run fig4 fig4
KAR_RUNS=2 KAR_SECONDS=1 run fig5 fig5
run fig6 fig6
KAR_RUNS=2 KAR_SECONDS=1 run fig7 fig7
KAR_RUNS=2 KAR_SECONDS=1 run fig8 fig8
run ablation_ids ablation_ids
KAR_PROBES=100 run detection_delay detection_delay
KAR_PROBES=300 run jitter jitter
KAR_PRE=2 KAR_FAIL=2 KAR_POST=2 run cc_ablation cc_ablation
run scalability scalability
run verify_resilience_k1 verify_resilience
run verify_resilience_k2_topo15 verify_resilience --k 2 --topo topo15

KAR_RUNS=3 KAR_PROBES=40 sweep multi_failure multi_failure
KAR_RUNS=2 KAR_PROBES=20 KAR_GROUPS=2 sweep multi_failure_correlated multi_failure --correlated
sweep fig_dynamic fig_dynamic
# Default knobs: these four documents are the committed BENCH files.
sweep fig_breaking fig_breaking
sweep fig_adversary fig_adversary
sweep fig_hier fig_hier
sweep fig_scale fig_scale

echo "golden.sh: wrote $(ls "$dir" | wc -l) files to $dir (jobs=$jobs${ckpts:+, checkpoints in $ckpts})" >&2
