#!/usr/bin/env sh
# Regenerates the committed golden outputs of `caft_cli schedule` after an
# *intentional* change to scheduling results or report formatting:
#
#   tests/golden/caft_cli_schedule.txt          summary line per algorithm
#   tests/golden/caft_cli_schedule_digests.txt  SHA-256 of the saved
#       `--out` schedule per algorithm × topology × communication model,
#       plus caft, caft-batch, ftsa and ftbar at m = 20, eps = 5 on
#       clique and ring
#
# Usage: tools/regen_caft_cli_golden.sh [build-dir]   (default: build)
#
# The arguments below must stay in sync with cmake/caft_cli_golden.cmake.
set -eu

BUILD_DIR=${1:-build}
REPO_ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
CLI=$REPO_ROOT/$BUILD_DIR/tools/caft_cli
# GOLDEN_DIR may be overridden (CI golden-drift gate regenerates into
# a scratch dir and diffs against the committed goldens).
GOLDEN_DIR=${GOLDEN_DIR:-$REPO_ROOT/tests/golden}
ALGOS="caft caft-batch ftsa ftbar heft"

if [ ! -x "$CLI" ]; then
  echo "error: $CLI not found — build the project first" >&2
  exit 1
fi

mkdir -p "$GOLDEN_DIR"
WORK_DIR=$(mktemp -d)
trap 'rm -rf "$WORK_DIR"' EXIT

(cd "$WORK_DIR" && "$CLI" generate --family random --procs 10 \
  --granularity 1.0 --seed 11 --out instance.txt) > /dev/null

: > "$GOLDEN_DIR/caft_cli_schedule.txt"
for algo in $ALGOS; do
  (cd "$WORK_DIR" && "$CLI" schedule --in instance.txt --algo "$algo" \
    --eps 2) >> "$GOLDEN_DIR/caft_cli_schedule.txt"
done

: > "$GOLDEN_DIR/caft_cli_schedule_digests.txt"
for topology in clique ring star; do
  (cd "$WORK_DIR" && "$CLI" generate --family random --procs 10 \
    --granularity 1.0 --seed 11 --topology "$topology" \
    --out "$topology.txt") > /dev/null
  for model in oneport macro; do
    for algo in $ALGOS; do
      (cd "$WORK_DIR" && "$CLI" schedule --in "$topology.txt" \
        --algo "$algo" --eps 2 --model "$model" --out scheduled.txt) \
        > /dev/null
      digest=$(cd "$WORK_DIR" && cmake -E sha256sum scheduled.txt | cut -d' ' -f1)
      echo "$algo $topology $model $digest" \
        >> "$GOLDEN_DIR/caft_cli_schedule_digests.txt"
    done
  done
done

for topology in clique ring; do
  (cd "$WORK_DIR" && "$CLI" generate --family random --procs 20 \
    --granularity 1.0 --seed 11 --topology "$topology" \
    --out "$topology-m20.txt") > /dev/null
  for model in oneport macro; do
    for algo in caft caft-batch ftsa ftbar; do
      (cd "$WORK_DIR" && "$CLI" schedule --in "$topology-m20.txt" \
        --algo "$algo" --eps 5 --model "$model" --out scheduled.txt) \
        > /dev/null
      digest=$(cd "$WORK_DIR" && cmake -E sha256sum scheduled.txt | cut -d' ' -f1)
      echo "$algo $topology-m20-eps5 $model $digest" \
        >> "$GOLDEN_DIR/caft_cli_schedule_digests.txt"
    done
  done
done

echo "regenerated $GOLDEN_DIR/caft_cli_schedule.txt:"
cat "$GOLDEN_DIR/caft_cli_schedule.txt"
echo "regenerated $GOLDEN_DIR/caft_cli_schedule_digests.txt:"
cat "$GOLDEN_DIR/caft_cli_schedule_digests.txt"
