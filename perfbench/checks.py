"""Output checks: invariants for any seed, and a reference recorded per seed.

Exact items (shape vectors, LOOCV neighbours, confusion counts, CLI shape
vector) are stored as digests or plain values and must match bit for bit.
Chaos vectors are stored in full and must match within a tolerance:

- C(r) entries: absolute 1e-6. A KD-tree count of C(r) on Lorenz with
  P = 4978 moved C by 8.4e-8 (about one pair on a radius boundary), which a
  correct kernel may do; 1e-6 is about a dozen pairs at that P.
- lambda1 and corr_dim: relative 1e-5. Swapping one point's nearest
  neighbour out of 4978 moved lambda1 by 1.6e-4 (1e-4 relative), so a
  wrong neighbour fails while reordered floating-point sums pass.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).resolve().parent / "reference.json"

MASS_TOL = 1e-9
INTEGRAL_ATOL = 1e-6
SCALAR_RTOL = 1e-5

# The observation key that holds {name: chaos vector}, compared with tolerance.
CHAOS_KEY = "chaos_vectors"


def digest(values) -> str:
    """Short SHA-256 of the float64 bytes of an array."""
    arr = np.ascontiguousarray(values, dtype=np.float64)
    return hashlib.sha256(arr.tobytes()).hexdigest()[:16]


class Findings:
    """Problems per operation, and the largest deviation from the reference."""

    def __init__(self):
        self.problems: dict[str, list[str]] = defaultdict(list)
        self.max_abs_dev = 0.0

    def fail(self, op: str, message: str) -> None:
        self.problems[op].append(message)


def check_masses(f: Findings, op: str, masses, bins: int = 50) -> None:
    """Each block of `bins` masses is a histogram: nonnegative, summing to 1."""
    m = np.asarray(masses, dtype=float)
    if m.size == 0 or m.size % bins:
        f.fail(op, f"mass vector of length {m.size} is not whole {bins}-bin histograms")
        return
    sums = m.reshape(-1, bins).sum(axis=1)
    if (m < 0).any() or np.abs(sums - 1.0).max() > MASS_TOL:
        f.fail(op, f"histogram masses not a distribution (sums {sums.min()!r}..{sums.max()!r})")


def check_chaos_vector(f: Findings, op: str, vector) -> None:
    """[lambda1, corr_dim, C(r1..r8)]: finite, C nondecreasing in [0, 1]."""
    v = np.asarray(vector, dtype=float)
    if v.shape != (10,) or not np.isfinite(v).all():
        f.fail(op, f"chaos vector malformed: {v.tolist()}")
        return
    c = v[2:]
    if (c < 0).any() or (c > 1).any() or (np.diff(c) < 0).any():
        f.fail(op, f"correlation integrals not nondecreasing in [0, 1]: {c.tolist()}")


def _chaos_dev(got, ref) -> tuple[float, bool]:
    """Largest absolute deviation, and whether it is within tolerance."""
    g, r = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    if g.shape != r.shape:
        return float("inf"), False
    dev = np.abs(g - r)
    ok = (dev[:2] <= SCALAR_RTOL * np.abs(r[:2])).all() and (dev[2:] <= INTEGRAL_ATOL).all()
    return float(dev.max()), bool(ok)


def compare(f: Findings, observed: dict, reference: dict, ops: dict) -> None:
    """Check every item the reference holds; one the observation lacks fails.

    ops maps an observation key to the operation charged when it differs.
    """
    for key, want in reference.items():
        op = ops[key]
        if key not in observed:
            f.fail(op, f"{key} not observed")
            continue
        got = observed[key]
        if key == CHAOS_KEY:
            for name in sorted(want.keys() | got.keys()):
                if name not in got:
                    f.fail(op, f"{key}: {name} not observed")
                elif name not in want:
                    f.fail(op, f"{key}: {name} not in reference")
                else:
                    dev, ok = _chaos_dev(got[name], want[name])
                    f.max_abs_dev = max(f.max_abs_dev, dev)
                    if not ok:
                        f.fail(op, f"{key}: {name} deviates by {dev:.3g} from reference")
        elif got != want:
            f.fail(op, f"{key} differs from reference")


def load_reference(workload: str, seed: int) -> dict | None:
    if not REFERENCE.is_file():
        return None
    data = json.loads(REFERENCE.read_text())
    return data.get(workload, {}).get(str(seed))
