"""Test-only reference helpers.

``exhaustive_d2`` is the sampling oracle: the sampled D2 distribution
converges to it as n_samples grows. ``cloud`` wraps raw synthetic geometry
as a phase space.
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
