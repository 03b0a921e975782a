#!/usr/bin/env bash
# Cross-process determinism check: runs one salus-bench binary twice and
# fails unless both runs print the same output (after filtering) and,
# when asked, write the same artifact.
#
# usage: ci/determinism-diff.sh <bin> [--release] [--keep ERE] [--drop ERE]
#                               [--sed EXPR] [--artifact FILE]
#
#   --release        build and run the binary with the release profile
#   --keep ERE       compare only the stdout lines matching ERE
#   --drop ERE       compare only the stdout lines not matching ERE
#   --sed EXPR       rewrite host-timed fields (sed -E) in stdout and in
#                    the artifact before comparing
#   --artifact FILE  also compare FILE, which the binary writes into the
#                    working directory
#
# Every compared extract must be non-empty, so a filter that matches
# nothing fails instead of diffing two empty files. Extracts are kept in
# target/determinism/.
set -euo pipefail

bin=$1
shift
profile=()
keep=''
drop=''
edit=''
artifact=''
while [ $# -gt 0 ]; do
  case $1 in
    --release) profile=(--release) ;;
    --keep) keep=$2; shift ;;
    --drop) drop=$2; shift ;;
    --sed) edit=$2; shift ;;
    --artifact) artifact=$2; shift ;;
    *) echo "determinism-diff: unknown option $1" >&2; exit 2 ;;
  esac
  shift
done

out=target/determinism
mkdir -p "$out"

keep_lines() { if [ -n "$keep" ]; then grep -E -- "$keep" || true; else cat; fi; }
drop_lines() { if [ -n "$drop" ]; then grep -vE -- "$drop" || true; else cat; fi; }
edit_lines() { if [ -n "$edit" ]; then sed -E "$edit"; else cat; fi; }

nonempty() {
  test -s "$1" || { echo "determinism-diff: $bin produced an empty extract $1" >&2; exit 1; }
}

for run in a b; do
  cargo run -q "${profile[@]}" -p salus-bench --bin "$bin" | tee "$out/$bin.$run.log"
  keep_lines < "$out/$bin.$run.log" | drop_lines | edit_lines > "$out/$bin.$run.txt"
  nonempty "$out/$bin.$run.txt"
  if [ -n "$artifact" ]; then
    edit_lines < "$artifact" > "$out/$bin.$run.artifact"
    nonempty "$out/$bin.$run.artifact"
  fi
done

diff "$out/$bin.a.txt" "$out/$bin.b.txt"
if [ -n "$artifact" ]; then
  diff "$out/$bin.a.artifact" "$out/$bin.b.artifact"
fi
