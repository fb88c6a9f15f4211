#!/usr/bin/env bash
# The mutant catalogue: each tests/mutants/<name>.patch is a small bug,
# written against HEAD, that one check must catch. Its header names that
# check (`# kills: <command>`). For each patch this script exports HEAD
# with `git archive` into target/mutants/tree, applies the patch and
# runs the command there, and requires a non-zero exit. Before the
# patches it runs every killing command once on the unpatched export,
# where each must pass, so a kill is the patch's doing. Every run shares
# one CARGO_TARGET_DIR (target/mutants/target), and each export re-dates
# the files the previous patch touched, so only what a patch changes is
# rebuilt and no mutant's build is ever reused. Writes
# results/mutants.txt: mutant, killing command, wall seconds.
#
#   ./mutants.sh
#
# A patch that no longer applies fails the run with "re-target <name>":
# rewrite it against HEAD so it breaks the same thing.
set -euo pipefail
cd "$(dirname "$0")"

root=$PWD
work=$root/target/mutants
tree=$work/tree
export CARGO_TARGET_DIR=$work/target
mkdir -p "$work"
# An export dates every file at HEAD's commit time, so a build made from
# another commit could pass for fresh: start over when HEAD moved.
head=$(git rev-parse HEAD)
if [ "$(cat "$work/head" 2> /dev/null)" != "$head" ]; then
  rm -rf "$CARGO_TARGET_DIR"
  echo "$head" > "$work/head"
fi
# Files the last applied patch changed: their build is the mutant's.
dirty=$work/dirty
touch "$dirty"

export_head() {
  rm -rf "$tree"
  mkdir -p "$tree"
  git -C "$root" archive HEAD | tar -x -C "$tree"
  (cd "$tree" && xargs -r touch < "$dirty")
  : > "$dirty"
}

# `git apply` with no fuzz, in the tree; the ceiling stops it from
# finding this repository above the tree and patching that instead.
apply() { (cd "$tree" && GIT_CEILING_DIRECTORIES=$work git apply "$@"); }

kills_of() { sed -n 's/^# kills: //p' "$1"; }

# Seconds since `start`, to the millisecond.
now_ms() { echo $(( $(date +%s%N) / 1000000 )); }
seconds_since() {
  local ms=$(( $(now_ms) - $1 ))
  echo "$((ms / 1000)).$(printf %03d $((ms % 1000)))"
}

patches=(tests/mutants/*.patch)
failures=()

echo "== unpatched: every killing command must pass =="
export_head
while IFS= read -r cmd; do
  echo "-- $cmd"
  if ! (cd "$tree" && bash -c "$cmd") > "$work/baseline.log" 2>&1; then
    tail -20 "$work/baseline.log"
    echo "killing command fails without a mutant: $cmd"
    exit 1
  fi
done < <(for p in "${patches[@]}"; do kills_of "$p"; done | sort -u)

rows=()
for patch in "${patches[@]}"; do
  name=$(basename "$patch" .patch)
  cmd=$(kills_of "$patch")
  echo "== $name: $cmd =="
  export_head
  if ! apply --check "$root/$patch" 2> /dev/null; then
    failures+=("re-target $name")
    continue
  fi
  sed -n 's|^+++ b/||p' "$patch" > "$dirty"
  apply "$root/$patch"
  start=$(now_ms)
  if (cd "$tree" && bash -c "$cmd") > "$work/$name.log" 2>&1; then
    failures+=("$name survived: $cmd")
    continue
  fi
  secs=$(seconds_since "$start")
  if grep -q "could not compile" "$work/$name.log"; then
    failures+=("$name does not build (see $work/$name.log)")
    continue
  fi
  echo "killed in $secs s"
  rows+=("$name|$cmd|$secs")
done

{
  printf '%-38s %9s  %s\n' mutant seconds "killing command"
  for row in "${rows[@]}"; do
    IFS='|' read -r name cmd secs <<< "$row"
    printf '%-38s %9s  %s\n' "$name" "$secs" "$cmd"
  done
} > results/mutants.txt
cat results/mutants.txt

if [ "${#failures[@]}" -gt 0 ]; then
  printf '%s\n' "${failures[@]}"
  exit 1
fi
