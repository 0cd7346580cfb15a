"""The one integer rule (``errors.check_int``), the one real rule
(``errors.check_real``) and the one array conversion
(``errors.check_reals``) at every site that applies them."""

import math
import re
import tempfile
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from phaseshape import (
    ChaosFeatureVector,
    ConfusionMatrix,
    EmbeddingParams,
    GenConfig,
    Instance,
    LabeledFeature,
    LLEConfig,
    LorenzParams,
    MultiSeries,
    PhaseSpace,
    RosslerParams,
    ShapeConfig,
    ShapeDistribution,
    TimeSeries,
    ValidationError,
    build_histogram,
    classification_experiment,
    correlation_dimension,
    correlation_integral,
    delay_embed,
    distances,
    generate_system,
    lle_rosenstein,
    rk4_integrate,
    stability_experiment,
    synthetic_instances,
    write_meta,
)
from phaseshape.chaos import _admissible_pairs
from phaseshape.errors import check_int, check_real, check_reals
from phaseshape.series import sidecar_dt
from phaseshape import experiments
from phaseshape.experiments import _map


_SINE = TimeSeries(np.sin(np.arange(200) / 5.0))


def _feature_vector(**changes):
    """A valid ChaosFeatureVector with ``changes`` applied to its fields."""
    fields = dict(
        lambda1=0.1, corr_dim=1.0, integrals=np.linspace(0.1, 1.0, 8),
        radii=np.geomspace(0.05, 1.0, 8), theiler=1, fit_range=(0, 2), r2=0.99,
    )
    return ChaosFeatureVector(**{**fields, **changes})


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
            _tiny_instances(), n_samples=200, delays=v
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
    ("n_steps", 0, lambda v: rk4_integrate(lambda y: (-y,), [1.0], 0.1, v), False),
    ("prefix length", 2, lambda v: MultiSeries((_SINE,)).prefix(v).n, True),
    ("theiler", 0, lambda v: _feature_vector(theiler=v).theiler, True),
    (
        "bins",
        1,
        lambda v: classification_experiment(
            _tiny_instances(), features="chaos", bins=v
        ).config["bins"],
        True,
    ),
    (
        "n_samples",
        1,
        lambda v: classification_experiment(
            _tiny_instances(), features="chaos", n_samples=v
        ).config["n_samples"],
        True,
    ),
    ("fit_range[0]", 0, lambda v: _feature_vector(fit_range=(v, 5)).fit_range[0], True),
    ("fit_range[1]", 1, lambda v: _feature_vector(fit_range=(0, v)).fit_range[1], True),
    (
        "counts",
        0,
        lambda v: ConfusionMatrix(("a", "b"), [[v, 0], [0, 1]]).to_dict()["counts"][0][0],
        True,
    ),
]
SITE_IDS = [f"{i}-{site[0]}" for i, site in enumerate(SITES)]


@pytest.mark.parametrize("name, low, call, keeps", SITES, ids=SITE_IDS)
@pytest.mark.parametrize("kind", ["true", "np-true", "float", "below"])
def test_rejected(name, low, call, keeps, kind):
    value = {"true": True, "np-true": np.True_, "float": 1.5, "below": low - 1}[kind]
    message = rf"^{re.escape(name)} must be an integer >= {low}, got "
    with pytest.raises(ValidationError, match=message):
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


@cache
def _lorenz_ps():
    x = generate_system("lorenz", GenConfig(n=600)).channels[0]
    return delay_embed(x, EmbeddingParams(m=3, tau=11))


def _sidecar_dt(value):
    """sidecar_dt of a sidecar holding ``value``; JSON keeps numpy scalars as
    their Python equivalents."""
    with tempfile.TemporaryDirectory() as d:
        csv = Path(d) / "run.csv"
        write_meta(csv, {"dt": np.asarray(value).item()})
        return sidecar_dt(csv)


# (name pattern, low, strict, call, keeps): the site's message names the
# parameter as the regex ``name pattern``; low is None for unbounded sites.
REAL_SITES = [
    ("dt", 0, True, lambda v: TimeSeries([0.0, 1.0], dt=v).dt, True),
    (r"sidecar \S+run\.meta\.json dt", 0, True, _sidecar_dt, True),
    ("sigma", None, False, lambda v: LorenzParams(sigma=v).sigma, True),
    ("c", None, False, lambda v: RosslerParams(c=v).c, True),
    ("dt", 0, True, lambda v: GenConfig(n=10, dt=v).dt, True),
    (r"ic\[1\]", None, False, lambda v: GenConfig(n=10, ic=(1.0, v, 1.0)).ic[1], True),
    ("dt", 0, True, lambda v: rk4_integrate(lambda y: (-y,), [1.0], v, 2), False),
    (r"y0\[0\]", None, False, lambda v: rk4_integrate(lambda y: (-y,), [v], 0.1, 2), False),
    ("dt", 0, True, lambda v: lle_rosenstein(_lorenz_ps(), dt=v), False),
    ("gamma", 0, False, lambda v: ShapeConfig(kind="DT2", gamma=v).gamma, True),
    ("lambda1", None, False, lambda v: _feature_vector(lambda1=v).lambda1, True),
    ("corr_dim", None, False, lambda v: _feature_vector(corr_dim=v).corr_dim, True),
    ("r2", None, False, lambda v: _feature_vector(r2=v).r2, True),
]
REAL_IDS = [
    "TimeSeries-dt", "sidecar-dt", "LorenzParams-sigma", "RosslerParams-c", "GenConfig-dt",
    "GenConfig-ic", "rk4_integrate-dt", "rk4_integrate-y0", "lle_rosenstein-dt",
    "ShapeConfig-gamma", "ChaosFeatureVector-lambda1", "ChaosFeatureVector-corr_dim",
    "ChaosFeatureVector-r2",
]


def _real_message(name, low, strict):
    bound = "" if low is None else f" {'>' if strict else '>='} {low}"
    return rf"^{name} must be a finite real{bound}, got "


@pytest.mark.parametrize("name, low, strict, call, keeps", REAL_SITES, ids=REAL_IDS)
@pytest.mark.parametrize("value", [True, np.True_, "1.5", math.nan, math.inf],
                         ids=["true", "np-true", "str", "nan", "inf"])
def test_real_rejected(name, low, strict, call, keeps, value):
    with pytest.raises(ValidationError, match=_real_message(name, low, strict)):
        call(value)


@pytest.mark.parametrize(
    "name, low, strict, call, keeps", [s for s in REAL_SITES if s[1] is not None],
    ids=[i for i, s in zip(REAL_IDS, REAL_SITES) if s[1] is not None],
)
def test_real_boundary_rejected(name, low, strict, call, keeps):
    value = low if strict else low - 0.5
    with pytest.raises(ValidationError, match=_real_message(name, low, strict)):
        call(value)


@pytest.mark.parametrize("name, low, strict, call, keeps", REAL_SITES, ids=REAL_IDS)
@pytest.mark.parametrize("value", [np.float32(0.5), np.int64(2)], ids=["np-float32", "np-int64"])
def test_real_numpy_accepted_as_float(name, low, strict, call, keeps, value):
    kept = call(value)
    if keeps:
        assert type(kept) is float
        assert kept == float(value)


def test_check_real():
    assert check_real("x", -3) == -3.0
    assert type(check_real("x", np.float64(0.25), 0, strict=True)) is float
    assert check_real("x", 0, 0) == 0.0
    with pytest.raises(ValidationError, match=r"^x must be a finite real > 0, got 0$"):
        check_real("x", 0, 0, strict=True)
    with pytest.raises(ValidationError, match=r"^x must be a finite real >= 0, got -1e-300$"):
        check_real("x", -1e-300, 0)
    with pytest.raises(ValidationError, match=r"^x must be a finite real, got 1000"):
        check_real("x", 10**400)
    with pytest.raises(ValidationError, match=r"^x must be a finite real, got None$"):
        check_real("x", None)


# (name, what, call): call(value) runs a site that converts an array of
# reals; its message reads ``{name} must be {what}``.
ARRAY_SITES = [
    ("samples", "reals", lambda v: TimeSeries(v)),
    ("points", "reals", lambda v: PhaseSpace(v, EmbeddingParams(m=2))),
    ("integrals", "reals", lambda v: _feature_vector(integrals=v)),
    ("radii", "reals", lambda v: _feature_vector(radii=v)),
    ("radii", "nonnegative reals", lambda v: correlation_integral(_lorenz_ps(), v)),
    ("radii", "nonnegative reals", lambda v: correlation_dimension(_lorenz_ps(), v)),
    ("samples", "reals", lambda v: build_histogram(v, ShapeConfig())),
    ("vector", "reals", lambda v: distances(v, [[0.5, 0.5]], "chi2")),
    (r"vectors\[1\]", "reals", lambda v: distances([0.5, 0.5], [[0.5, 0.5], v], "l2")),
    ("feature vector", "reals", lambda v: LabeledFeature("a", "b", v)),
    ("mass", "reals", lambda v: ShapeDistribution(v, 4.0, 1, ShapeConfig())),
]
ARRAY_IDS = [
    "TimeSeries", "PhaseSpace", "ChaosFeatureVector-integrals", "ChaosFeatureVector-radii",
    "correlation_integral", "correlation_dimension", "build_histogram", "distances-vector",
    "distances-row", "LabeledFeature", "ShapeDistribution-mass",
]


@pytest.mark.parametrize("name, what, call", ARRAY_SITES, ids=ARRAY_IDS)
@pytest.mark.parametrize("value", [
    "abc", ["a", "b", "c"], [["a", "b"]], ["1.5", "2"], [b"1", b"2"], [[1.0, 2.0], [3.0]],
    [1j, 2j], np.array([[1.0, 2j]]), {"a": 1.0},
], ids=[
    "str", "strs", "nested-strs", "numeric-strs", "bytes", "ragged", "complex", "complex-array",
    "dict",
])
def test_array_rejected(name, what, call, value):
    message = rf"^{name} must be {what}, got {re.escape(repr(value))}$"
    with pytest.raises(ValidationError, match=message):
        call(value)


def test_check_reals():
    given = [1, 2.5, np.float32(3.0)]
    got = check_reals("x", given, "reals")
    assert got.dtype == np.float64 and got.tolist() == [1.0, 2.5, 3.0]
    given = np.arange(3.0)
    assert check_reals("x", given, "reals") is not given
    with pytest.raises(ValidationError, match=r"^x must be several reals, got 'a'$"):
        check_reals("x", "a", "several reals")


# (name, what, call, good): call(value) runs a site that takes a sequence
# of ``what``; ``good`` is a value it accepts and returns.
SEQUENCE_SITES = [
    ("ic", "3 finite reals", lambda v: GenConfig(n=10, ic=v).ic, (1.0, 2.0, 3.0)),
    (
        "lorenz_lengths",
        "integers >= 2",
        lambda v: stability_experiment(
            lorenz_lengths=v, rossler_lengths=(300,), n_samples=200
        ).config["lorenz_lengths"],
        (300, 400),
    ),
    (
        "rossler_lengths",
        "integers >= 2",
        lambda v: stability_experiment(
            lorenz_lengths=(300,), rossler_lengths=v, n_samples=200
        ).config["rossler_lengths"],
        (300, 400),
    ),
]
SEQUENCE_IDS = [site[0] for site in SEQUENCE_SITES]


@pytest.mark.parametrize("name, what, call, good", SEQUENCE_SITES, ids=SEQUENCE_IDS)
@pytest.mark.parametrize("value", [5, None, 1000.0, "300", b"300", np.int64(300)],
                         ids=["int", "none", "float", "str", "bytes", "np-int64"])
def test_sequence_rejected(name, what, call, good, value, monkeypatch):
    def no_generation(*args, **kwargs):
        raise AssertionError("generated before the lengths were checked")

    monkeypatch.setattr(experiments, "generate_system", no_generation)
    with pytest.raises(ValidationError, match=rf"^{name} must be a sequence of {what}, got "):
        call(value)


@pytest.mark.parametrize("name, what, call, good", SEQUENCE_SITES, ids=SEQUENCE_IDS)
@pytest.mark.parametrize("convert", [list, tuple, np.array], ids=["list", "tuple", "ndarray"])
def test_sequence_accepted(name, what, call, good, convert):
    assert list(call(convert(good))) == list(good)
