#!/usr/bin/env bash
# Run the README command set into OUTDIR: every file, stdout, stderr and
# exit code the commands produce. Two runs on checkouts that should agree
# compare with one `diff -r`.
#
#   tools/readme_outputs.sh OUTDIR
#
# The commands run inside OUTDIR with relative paths, against the src/ of
# the checkout this script sits in.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 OUTDIR" >&2
    exit 1
fi
src="$(cd "$(dirname "$0")/.." && pwd)/src"
mkdir -p "$1"
cd "$1"

# run NAME ARGS...: phaseshape ARGS with stdout, stderr and exit code in NAME.*
# COLUMNS pins the width argparse wraps --help to.
run() {
    local name=$1
    shift
    local rc=0
    COLUMNS=80 PYTHONPATH="$src" python3 -m phaseshape.cli "$@" >"$name.out" 2>"$name.err" || rc=$?
    echo "$rc" >"$name.rc"
}

run help-gen-model gen-model --help
run help-stability stability --help
run help-features features --help
run help-chaos chaos --help
run help-classify classify --help
run gen-lorenz gen-model lorenz --n 5000 --out lorenz.csv
run gen-rossler gen-model rossler --n 2000 --seed 7 --out rossler.csv
# non-default parameters and no transient: each field flag binds into the
# RK4 loop compiled from the system's formula
run gen-lorenz-params gen-model lorenz --n 1000 --rho 28 --sigma 10 --out lorenz-params.csv
run gen-rossler-params gen-model rossler --n 1000 --c 5.7 --seed 3 --out rossler-params.csv
run gen-no-transient gen-model lorenz --n 1000 --transient 0 --seed 5 --out lorenz-t0.csv
# a step too large for Lorenz: the integration diverges, exit code 3
run gen-diverge gen-model lorenz --n 100 --dt 1.0 --out diverge.csv
run features-d2 features lorenz.csv --kind D2 --tau 11
for kind in D1 D3 DT1 DT2; do
    run "features-$kind" features lorenz.csv --tau 11 --kind "$kind"
done
for kind in D1 D2 D3 DT1 DT2; do
    run "features-raw-$kind" features rossler.csv --normalization raw-range --kind "$kind"
done
# m = 8: each sample sums 8 coordinate terms, which numpy's row sum would
# group pairwise; these pin the summation order of the shape distances
for kind in D1 D2 D3 DT1 DT2; do
    run "features-m8-$kind" features lorenz.csv --tau 11 --m 8 --kind "$kind"
done
run features-auto features lorenz.csv --tau auto --out features.json
run chaos-tau11 chaos lorenz.csv --tau 11
run chaos-auto chaos rossler.csv
# a short Rossler run whose divergence fits fall below R^2 0.95: the
# low-R^2 warnings and "low_r2": true
run gen-short gen-model rossler --n 400 --out short.csv
run chaos-short chaos short.csv --tau 8
run stability stability --lorenz-lengths 1000,3000,5000 --rossler-lengths 400,1200,2000
run stability-dir stability --out-dir stability
run classify-shape classify --synthetic lorenz-rossler --per-class 10 --jobs 2 --out classify_shape.json
run classify-chaos classify --synthetic lorenz-rossler --per-class 10 --features chaos --jobs 2 --out classify_chaos.json
run features-no-name features .
mkdir -p bad/a bad/b
run gen-bad-long gen-model lorenz --n 300 --out bad/a/long.csv
run gen-bad-short gen-model rossler --n 12 --out bad/b/short.csv
run classify-bad classify --dataset bad --tau 11
run classify-bad-chaos classify --dataset bad --tau 11 --features chaos
# one 3-channel and one 2-channel instance: shape features need equal counts
mkdir -p mixed/a mixed/b
cp lorenz.csv mixed/a/three.csv
cut -d, -f1,2 lorenz.csv >mixed/b/two.csv
run classify-mixed classify --dataset mixed --tau 11
# 0..4 repeated: every nearest neighbour is an exact copy, a flat divergence curve
for i in $(seq 100); do printf '0\n1\n2\n3\n4\n'; done >periodic.csv
run chaos-periodic chaos periodic.csv --tau auto
# lorenz.csv's x beside a constant column: channel 1 fails, the delay
# estimate under features and the chaos vector under a given delay
awk -F, 'NR == 1 { print $1 ",flat"; next } { print $1 ",1" }' lorenz.csv >flat.csv
run features-flat features flat.csv
run chaos-flat chaos flat.csv --tau 11
# under a given delay the constant channel gives the degenerate histogram
run features-flat-tau11 features flat.csv --tau 11
run features-flat-raw features flat.csv --tau 11 --normalization raw-range
# a bad setting is reported, unprefixed, before any channel is read
run chaos-m0 chaos lorenz.csv --m 0
# 400 values near the largest double: their sums and squares overflow, and
# each command ends in one error line with exit code 2 and no numpy warning
python3 -c 'import numpy as np
x = np.random.default_rng(0).uniform(-1.0, 1.0, 400) * np.finfo(float).max
np.savetxt("big.csv", x, fmt="%.17g")'
run features-big-auto features big.csv --tau auto
run features-big-tau3 features big.csv --tau 3
run chaos-big-tau3 chaos big.csv --tau 3
