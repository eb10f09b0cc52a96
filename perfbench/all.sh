#!/usr/bin/env bash
# Runs every workload of the benchmark, untraced then traced, and fails if
# any run fails its correctness checks. Run from the repository root:
#
#   bash perfbench/all.sh [seed] [seconds]
#
# Each run prints its environment stamp, its metrics with units and, last,
# its JSON result line.
set -uo pipefail

seed=${1:-1}
seconds=${2:-30}
status=0
for w in churn pool immune; do
	for trace in 0 1; do
		echo "=== $w trace=$trace seed=$seed seconds=$seconds"
		bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" || status=1
	done
done
exit $status
