#!/usr/bin/env sh
# Regenerates the committed golden outputs of campaign_cli after an
# *intentional* change to campaign statistics or report formatting:
#
#   tests/golden/campaign_report.{txt,csv,json}  uniform-k, generated instance
#   tests/golden/campaign_theta_report.txt       crash-at-θ on caft_cli
#       clique and ring instances
#   tests/golden/example_crash_replay.txt        examples/crash_replay stdout
#
# Usage: tools/regen_campaign_golden.sh [build-dir]   (default: build)
#
# The arguments below must stay in sync with cmake/campaign_golden.cmake,
# cmake/campaign_theta_golden.cmake and the example_crash_replay_golden
# test in CMakeLists.txt.
set -eu

BUILD_DIR=${1:-build}
REPO_ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
CLI=$REPO_ROOT/$BUILD_DIR/tools/campaign_cli
CAFT_CLI=$REPO_ROOT/$BUILD_DIR/tools/caft_cli
CRASH_REPLAY=$REPO_ROOT/$BUILD_DIR/examples/crash_replay
# GOLDEN_DIR may be overridden (CI golden-drift gate regenerates into
# a scratch dir and diffs against the committed goldens).
GOLDEN_DIR=${GOLDEN_DIR:-$REPO_ROOT/tests/golden}

for binary in "$CLI" "$CAFT_CLI" "$CRASH_REPLAY"; do
  if [ ! -x "$binary" ]; then
    echo "error: $binary not found — build the project first" >&2
    exit 1
  fi
done

GOLDEN_ARGS="--replays 200 --procs 8 --eps 1 --tasks 30 \
  --instance-seed 7 --seed 123 --algos caft,ftsa"
THETA_ARGS="--sampler window --k 2 --theta-lo 0 --theta-hi 4000 \
  --replays 300 --eps 1 --seed 123 --algos caft,ftsa,ftbar"

mkdir -p "$GOLDEN_DIR"
WORK_DIR=$(mktemp -d)
trap 'rm -rf "$WORK_DIR"' EXIT

# Text run first (stdout carries no filesystem paths), then the artifacts.
# shellcheck disable=SC2086  # GOLDEN_ARGS is intentionally word-split
(cd "$WORK_DIR" && "$CLI" $GOLDEN_ARGS) > "$GOLDEN_DIR/campaign_report.txt"
(cd "$WORK_DIR" && "$CLI" $GOLDEN_ARGS --csv out --json out) > /dev/null
cp "$WORK_DIR/out_campaign.csv" "$GOLDEN_DIR/campaign_report.csv"
cp "$WORK_DIR/out_campaign.json" "$GOLDEN_DIR/campaign_report.json"

: > "$GOLDEN_DIR/campaign_theta_report.txt"
for topology in clique ring; do
  (cd "$WORK_DIR" && "$CAFT_CLI" generate --family random --procs 8 \
    --granularity 1.0 --seed 11 --topology "$topology" \
    --out "$topology.txt") > /dev/null
  # shellcheck disable=SC2086  # THETA_ARGS is intentionally word-split
  (cd "$WORK_DIR" && "$CLI" --in "$topology.txt" $THETA_ARGS) \
    >> "$GOLDEN_DIR/campaign_theta_report.txt"
done

(cd "$WORK_DIR" && "$CRASH_REPLAY") > "$GOLDEN_DIR/example_crash_replay.txt"

echo "regenerated goldens in $GOLDEN_DIR:"
ls -l "$GOLDEN_DIR"
