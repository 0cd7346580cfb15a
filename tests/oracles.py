"""Test-only reference helpers.

``exhaustive_d2`` is the sampling oracle: the sampled D2 distribution
converges to it as n_samples grows. ``cloud`` wraps raw synthetic geometry
as a phase space. ``coordinate_dot`` and ``pair_square`` are the one
distance formula written as a Python loop.
"""

from dataclasses import replace

from scipy.spatial.distance import pdist

from phaseshape import EmbeddingParams, PhaseSpace, build_histogram, resolve_config


def exhaustive_d2(ps, config):
    """D2 histogram over ALL unordered distinct point pairs of ``ps``."""
    return build_histogram(pdist(ps.points), replace(resolve_config(ps, config), kind="D2"))


def cloud(points):
    """A (P, m) point array as a tau=1 embedding of dimension m."""
    return PhaseSpace(points, EmbeddingParams(points.shape[1], 1))


def coordinate_dot(u, v) -> float:
    """The products of u's and v's coordinates added in coordinate order."""
    return sum(a * b for a, b in zip(u, v))


def pair_square(a, b) -> float:
    # The squared differences summed coordinate by coordinate, as the
    # package's kernels sum them; np.linalg.norm(a - b) on one pair is a
    # BLAS dot that differs from it in the last bit on some pairs when
    # m >= 2, and numpy's row sums group the terms pairwise when m >= 8.
    d = a - b
    return coordinate_dot(d, d)
