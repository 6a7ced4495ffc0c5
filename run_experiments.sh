#!/bin/bash
# Regenerates every paper artifact; outputs under results/.
set -e
cd "$(dirname "$0")"
SITES=${1:-600}
WARM=${2:-32000}
BIN="cargo run --release -q -p nocalert-bench --bin"
$BIN table1 | tee results/table1.txt
$BIN sites  | tee results/sites.txt
$BIN fig10 -- --json results/fig10.json | tee results/fig10.txt
# Figures 6-9, Observations 1 and 5 and the exposure windows: one
# campaign at cycle 0 and one at $WARM.
$BIN figures -- --sites $SITES --warm $WARM --json results/figures.json | tee results/figures.txt
$BIN obs3 -- --sites 40 --warm 8000 | tee results/obs3.txt
# Extensions beyond the paper (optional; comment out for a faster run):
$BIN diagnose -- --sites 250 --warm 3000 | tee results/diagnose.txt
$BIN ablate -- --sites 60 --warm 3000 | tee results/ablate.txt
echo ALL_EXPERIMENTS_DONE
