#!/usr/bin/env bash
# Bounded-memory check of the chaos baseline on one large channel: write an
# N-row Lorenz CSV with `phaseshape gen-model`, run `phaseshape chaos --tau 11`
# on it under a virtual-memory cap, and print the wall time and peak RSS of
# the chaos run. The exit code is that of `phaseshape chaos`.
#
#   tools/big_chaos.sh N [LIMIT_MB]
#
# LIMIT_MB is the `ulimit -v` cap in MiB (default 4096). The peak RSS is the
# child's ru_maxrss from Python's resource.getrusage(RUSAGE_CHILDREN). Runs
# against the src/ of the checkout this script sits in. At N = 100000 it
# takes minutes, so it is not part of the test suite.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 N [LIMIT_MB]" >&2
    exit 1
fi
n=$1
limit_mb=${2:-4096}
export PYTHONPATH
PYTHONPATH="$(cd "$(dirname "$0")/.." && pwd)/src"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

python3 -m phaseshape.cli gen-model lorenz --n "$n" --out "$work/lorenz.csv" >/dev/null
ulimit -v $((limit_mb * 1024))
python3 - "$work/lorenz.csv" "$n" "$limit_mb" <<'EOF'
import resource
import subprocess
import sys
import time

csv, n, limit_mb = sys.argv[1:]
start = time.perf_counter()
code = subprocess.run(
    [sys.executable, "-m", "phaseshape.cli", "chaos", csv, "--tau", "11"]
).returncode
wall = time.perf_counter() - start
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(
    f"big_chaos: n {n}, ulimit -v {limit_mb} MiB, exit {code}, "
    f"wall {wall:.2f} s, peak RSS {peak_mb:.0f} MiB"
)
sys.exit(code)
EOF
