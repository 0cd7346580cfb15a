"""The one integer rule (``errors.check_int``) at every site that applies it."""

import numpy as np
import pytest

from phaseshape import (
    EmbeddingParams,
    GenConfig,
    Instance,
    LLEConfig,
    ShapeConfig,
    ValidationError,
    classification_experiment,
    generate_system,
    stability_experiment,
    synthetic_instances,
)
from phaseshape.chaos import _admissible_pairs
from phaseshape.errors import check_int
from phaseshape.experiments import _map


def _tiny_instances():
    return [
        Instance(id=system, series=generate_system(system, GenConfig(n=300)).with_label(system))
        for system in ("lorenz", "rossler")
    ]


# (field, low, call, keeps): call(value) runs the site; when ``keeps``, it
# returns the value the site stored.
SITES = [
    ("m", 1, lambda v: EmbeddingParams(m=v).m, True),
    ("tau", 1, lambda v: EmbeddingParams(tau=v).tau, True),
    ("n_samples", 1, lambda v: ShapeConfig(n_samples=v).n_samples, True),
    ("bins", 1, lambda v: ShapeConfig(bins=v).bins, True),
    ("delta", 1, lambda v: ShapeConfig(kind="DT1", delta=v).delta, True),
    ("seed", 0, lambda v: ShapeConfig(seed=v).seed, True),
    ("n", 2, lambda v: GenConfig(n=v).n, True),
    ("transient", 0, lambda v: GenConfig(n=10, transient=v).transient, True),
    ("seed", 0, lambda v: GenConfig(n=10, seed=v).seed, True),
    ("theiler", 0, lambda v: LLEConfig(theiler=v, k_max=10).theiler, True),
    ("k_max", 3, lambda v: LLEConfig(theiler=2, k_max=v).k_max, True),
    ("theiler", 0, lambda v: _admissible_pairs(50, v), False),
    ("jobs", 1, lambda v: _map(abs, [-1, -2], v), False),
    ("jobs", 1, lambda v: synthetic_instances(per_class=1, jobs=v), False),
    ("per_class", 1, lambda v: synthetic_instances(per_class=v), False),
    ("root_seed", 0, lambda v: synthetic_instances(per_class=1, root_seed=v), False),
    (
        "seed",
        0,
        lambda v: stability_experiment(
            lorenz_lengths=(300,), rossler_lengths=(300,), n_samples=200, seed=v
        ).config["seed"],
        True,
    ),
    (
        "root_seed",
        0,
        lambda v: classification_experiment(
            _tiny_instances(), n_samples=200, root_seed=v
        ).config["root_seed"],
        True,
    ),
    (
        "tau",
        1,
        lambda v: classification_experiment(
            _tiny_instances(), n_samples=200, delays={"lorenz": v, "rossler": 8}
        ).artifacts["instances"][0]["tau"],
        True,
    ),
    (
        "lorenz lengths",
        2,
        lambda v: stability_experiment(
            lorenz_lengths=(v,), rossler_lengths=(), m=1, n_samples=200
        ).config["lorenz_lengths"][0],
        True,
    ),
]
SITE_IDS = [f"{i}-{site[0]}" for i, site in enumerate(SITES)]


@pytest.mark.parametrize("name, low, call, keeps", SITES, ids=SITE_IDS)
@pytest.mark.parametrize("kind", ["true", "np-true", "float", "below"])
def test_rejected(name, low, call, keeps, kind):
    value = {"true": True, "np-true": np.True_, "float": 1.5, "below": low - 1}[kind]
    with pytest.raises(ValidationError, match=rf"^{name} must be an integer >= {low}, got "):
        call(value)


@pytest.mark.parametrize("name, low, call, keeps", SITES, ids=SITE_IDS)
def test_numpy_integer_accepted_as_int(name, low, call, keeps):
    value = np.int64(max(low, 3))
    kept = call(value)
    if keeps:
        assert type(kept) is int
        assert kept == value


def test_check_int():
    assert check_int("k", np.int32(4), 4) == 4
    assert type(check_int("k", np.uint8(4), 0)) is int
    with pytest.raises(ValidationError, match=r"^k must be an integer >= 5, got 4$"):
        check_int("k", 4, 5)
    with pytest.raises(ValidationError, match=r"got '4'$"):
        check_int("k", "4", 0)
