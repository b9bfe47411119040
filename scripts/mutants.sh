#!/usr/bin/env bash
# Every check must be able to fail: applies each mutation that
# scripts/mutants.tsv lists to a scratch git worktree of this tree, runs
# the line's command there, and expects it to fail.
#
#   scripts/mutants.sh [LIST]          # LIST defaults to scripts/mutants.tsv
#
# A line of the list is four tab-separated fields: a file (relative to
# the repository root), an anchor that must occur in that file exactly
# once, its replacement, and the command that must fail with the
# mutation in place (run by bash from the worktree's root). In the
# anchor and the replacement, \n stands for a newline, \t for a tab and
# \\ for a backslash. Blank lines and lines that start with # are
# skipped.
#
# Each line reports one of:
#   killed    the mutated tree type-checks and the command failed;
#   survived  the command passed: the check it names cannot see the fault;
#   error     the anchor no longer occurs exactly once (a refactor moved
#             the code: move its mutant with it), or the mutated tree does
#             not type-check (`cargo check --workspace --all-targets`), so
#             a failing command would prove nothing.
# The script exits 1 when any line survived or erred, 0 when every line
# was killed.
#
# The worktree, ${TMPDIR:-/tmp}/kar-mutants/tree, holds the tracked files
# as they are now, uncommitted edits included (`git stash create`), and is
# removed on exit. It builds into kar-mutants/target beside it (or
# CARGO_TARGET_DIR), which is kept: the worktree's path does not change,
# so a second run rebuilds only what its mutations touch. Run one at a
# time.

set -euo pipefail

root=$(git rev-parse --show-toplevel)
list=$(realpath "${1:-$root/scripts/mutants.tsv}")
rev=$(git -C "$root" -c user.name=mutants -c user.email=mutants@invalid stash create)
rev=${rev:-HEAD}
scratch=${TMPDIR:-/tmp}/kar-mutants
work=$scratch/tree
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$scratch/target}
# A run that was killed leaves its worktree behind.
rm -rf "$work" "$scratch/logs"
git -C "$root" worktree prune
mkdir -p "$scratch/logs"
git -C "$root" worktree add --detach -q "$work" "$rev"
trap 'git -C "$root" worktree remove --force "$work"' EXIT

# Replaces the one occurrence of an escaped anchor in a file; exits 3
# (and says how many it found) unless there is exactly one.
apply() {
  python3 - "$@" <<'EOF'
import sys

def unescape(s):
    out, i = [], 0
    while i < len(s):
        if s[i] == "\\" and i + 1 < len(s) and s[i + 1] in "nt\\":
            out.append({"n": "\n", "t": "\t", "\\": "\\"}[s[i + 1]])
            i += 2
        else:
            out.append(s[i])
            i += 1
    return "".join(out)

path, anchor, replacement = sys.argv[1], unescape(sys.argv[2]), unescape(sys.argv[3])
text = open(path, encoding="utf-8").read()
found = text.count(anchor)
if found != 1:
    print(f"anchor occurs {found} times in {path}, not once")
    sys.exit(3)
open(path, "w", encoding="utf-8").write(text.replace(anchor, replacement))
EOF
}

killed=0 survived=0 errors=0 n=0
while IFS= read -r line || [ -n "$line" ]; do
  case $line in '' | '#'*) continue ;; esac
  n=$((n + 1))
  file=$(cut -f1 <<<"$line")
  anchor=$(cut -f2 <<<"$line")
  replacement=$(cut -f3 <<<"$line")
  command=$(cut -f4- <<<"$line")
  label="#$n $file: ${anchor:0:60}"
  log=$scratch/logs/mutant-$n.log
  if ! apply "$work/$file" "$anchor" "$replacement" >"$log" 2>&1; then
    echo "error     $label"
    sed 's/^/          /' "$log"
    errors=$((errors + 1))
  elif ! (cd "$work" && cargo check -q --workspace --all-targets) >"$log" 2>&1; then
    echo "error     $label (the mutant does not type-check)"
    tail -n 20 "$log" | sed 's/^/          /'
    errors=$((errors + 1))
  elif (cd "$work" && bash -c "$command") >"$log" 2>&1; then
    echo "survived  $label"
    echo "          passed: $command"
    survived=$((survived + 1))
  else
    echo "killed    $label"
    killed=$((killed + 1))
  fi
  git -C "$work" checkout -q -- "$file"
done <"$list"

echo "mutants: $killed killed, $survived survived, $errors errors of $n"
[ "$survived" -eq 0 ] && [ "$errors" -eq 0 ]
