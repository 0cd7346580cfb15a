from dataclasses import asdict

import numpy as np
import pytest

from phaseshape import (
    GenConfig,
    LorenzParams,
    NumericalError,
    RosslerParams,
    ValidationError,
    lorenz_generate,
    rk4_integrate,
    rossler_generate,
)
from phaseshape import models
from phaseshape.models import BUNDLED, LORENZ_DT, ROSSLER_DT, generate_system


class TestParams:
    def test_lorenz_defaults(self):
        p = LorenzParams()
        assert (p.sigma, p.rho, p.beta) == (16.0, 45.92, 4.0)

    def test_rossler_defaults(self):
        p = RosslerParams()
        assert (p.a, p.b, p.c) == (0.15, 0.20, 10.0)

    def test_default_steps(self):
        assert LORENZ_DT == 0.01
        assert ROSSLER_DT == 0.12

    def test_bundled_table(self):
        assert list(BUNDLED.items()) == [("lorenz", LorenzParams), ("rossler", RosslerParams)]
        assert (LorenzParams.default_dt, RosslerParams.default_dt) == (LORENZ_DT, ROSSLER_DT)
        assert LorenzParams.ic_box == ((-10.0, -10.0, -10.0), (10.0, 10.0, 10.0))
        assert RosslerParams.ic_box == ((-5.0, -5.0, 0.0), (5.0, 5.0, 5.0))

    def test_class_facts_are_not_fields(self):
        assert asdict(LorenzParams()) == {"sigma": 16.0, "rho": 45.92, "beta": 4.0}
        assert asdict(RosslerParams()) == {"a": 0.15, "b": 0.20, "c": 10.0}

    def test_deriv(self):
        assert LorenzParams().deriv(np.array([1.0, 2.0, 3.0])).tolist() == [16.0, 40.92, -10.0]
        assert RosslerParams().deriv(np.array([1.0, 2.0, 3.0])).tolist() == [-5.0, 1.3, -26.8]


class TestGenConfig:
    def test_defaults(self):
        cfg = GenConfig(n=100)
        assert cfg.dt is None
        assert cfg.transient == 1000
        assert cfg.ic == (1.0, 1.0, 1.0)
        assert cfg.seed is None

    def test_validation(self):
        with pytest.raises(ValidationError):
            GenConfig(n=1)
        with pytest.raises(ValidationError):
            GenConfig(n=100, dt=0.0)
        with pytest.raises(ValidationError):
            GenConfig(n=100, transient=-1)
        with pytest.raises(ValidationError):
            GenConfig(n=100, ic=(1.0, 2.0))
        with pytest.raises(ValidationError):
            GenConfig(n=100, ic=(1.0, np.nan, 3.0))
        with pytest.raises(ValidationError):
            GenConfig(n=100, seed="x")

    @pytest.mark.parametrize("ic", [5, None, "abc", b"abc", {1: 1.0, 2: 2.0, 3: 3.0}, (1.0, 2.0)])
    def test_ic_must_be_a_sequence_of_three(self, ic):
        with pytest.raises(ValidationError, match=r"^ic must be a sequence of 3 finite reals, got "):
            GenConfig(n=10, ic=ic)

    def test_ic_sequences_accepted(self):
        for ic in ([1, 2, 3], np.array([1.0, 2.0, 3.0]), range(1, 4)):
            assert GenConfig(n=10, ic=ic).ic == (1.0, 2.0, 3.0)


class TestRk4:
    def test_includes_initial_state(self):
        out = rk4_integrate(lambda y: -y, [1.0], 0.1, 5)
        assert out.shape == (6, 1)
        assert out[0, 0] == 1.0

    def test_exponential_decay_accuracy(self):
        # y' = -y over one unit of time: classic smooth-problem check
        out = rk4_integrate(lambda y: -y, [1.0], 0.01, 100)
        assert abs(out[-1, 0] - np.exp(-1.0)) < 1e-8

    def test_order_four_convergence(self):
        def err(h):
            out = rk4_integrate(lambda y: -y, [1.0], h, int(round(1.0 / h)))
            return abs(out[-1, 0] - np.exp(-1.0))

        ratio = err(0.02) / err(0.01)
        assert 12.8 <= ratio <= 19.2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_step(self):
        # y' = y^2 from y0=1 blows up just past t=1
        with pytest.raises(NumericalError, match=r"^non-finite state at integration step 13$"):
            rk4_integrate(lambda y: y * y, [1.0], 0.1, 50)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("y0", [
        [[0.1], [1.0]],
        # rows 1 and 2 go non-finite at the same step, each in one component
        [[0.1, 0.1], [0.1, 1.0], [1.0, 0.1]],
    ])
    def test_batch_divergence_names_row(self, y0):
        # A component from 0.1 blows up only near t=10; from 1.0, past t=1
        msg = r"^non-finite state at integration step 13 \(row 1\)$"
        with pytest.raises(NumericalError, match=msg):
            rk4_integrate(lambda y: y * y, y0, 0.1, 50)

    def test_state_shapes(self):
        assert rk4_integrate(lambda y: -y, [[1.0, 2.0]] * 3, 0.1, 5).shape == (6, 3, 2)
        assert rk4_integrate(lambda y: -y, 1.0, 0.1, 5).shape == (6, 1)
        with pytest.raises(ValidationError, match="y0"):
            rk4_integrate(lambda y: -y, np.ones((2, 2, 1)), 0.1, 5)


class TestBatch:
    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("system", BUNDLED)
    def test_rows_equal_single_integrations(self, system, k):
        cls = BUNDLED[system]
        deriv = cls().deriv
        ics = np.random.default_rng(k).uniform(*cls.ic_box, (k, 3))
        batch = rk4_integrate(deriv, ics, cls.default_dt, 2000)
        assert batch.shape == (2001, k, 3)
        for row, ic in enumerate(ics):
            assert np.array_equal(batch[:, row], rk4_integrate(deriv, ic, cls.default_dt, 2000))

    @pytest.mark.parametrize("system", BUNDLED)
    def test_batch_generation_equals_single(self, system):
        configs = [
            GenConfig(n=300, seed=1),
            GenConfig(n=120, transient=50, ic=(2.0, -1.0, 4.0)),
            GenConfig(n=2, transient=0),
        ]
        for got, config in zip(models._generate(system, configs), configs):
            want = generate_system(system, config)
            assert (got.n, got.dt, got.label) == (want.n, want.dt, want.label)
            assert np.array_equal(got.to_array(), want.to_array())

    def test_batch_needs_one_dt(self):
        with pytest.raises(ValidationError, match="one dt"):
            models._generate("lorenz", [GenConfig(n=10), GenConfig(n=10, dt=0.02)])

    @pytest.mark.parametrize("system, params", [
        ("rossler", LorenzParams()),
        ("lorenz", RosslerParams()),
        ("lorenz", {"sigma": 10.0}),
    ])
    def test_wrong_params_class_rejected(self, system, params):
        with pytest.raises(ValidationError, match=rf"^{system} needs "):
            generate_system(system, GenConfig(n=10), params)


class TestLorenz:
    def test_shape_and_channels(self):
        ms = lorenz_generate(GenConfig(n=500))
        assert ms.n == 500
        assert [ch.name for ch in ms.channels] == ["x", "y", "z"]
        assert ms.dt == LORENZ_DT
        assert ms.label == "lorenz"

    def test_default_trajectory_bounded(self, lorenz_default):
        assert np.abs(lorenz_default.to_array()).max() < 80.0

    def test_transient_is_a_prefix_drop(self):
        full = lorenz_generate(GenConfig(n=1100, transient=0))
        trimmed = lorenz_generate(GenConfig(n=100, transient=1000))
        assert (trimmed.to_array() == full.to_array()[1000:]).all()

    def test_seed_draws_ic_from_box(self):
        a = lorenz_generate(GenConfig(n=10, transient=0, seed=3))
        ic = np.random.default_rng(3).uniform(*LorenzParams.ic_box)
        assert (a.to_array()[0] == ic).all()

    def test_seed_reproducible_and_distinct(self):
        a = lorenz_generate(GenConfig(n=50, seed=1))
        b = lorenz_generate(GenConfig(n=50, seed=1))
        c = lorenz_generate(GenConfig(n=50, seed=2))
        assert (a.to_array() == b.to_array()).all()
        assert not (a.to_array() == c.to_array()).all()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_large_step_diverges_cleanly(self):
        with pytest.raises(NumericalError, match="step"):
            lorenz_generate(GenConfig(n=100, dt=1.0))


class TestRossler:
    def test_shape_and_defaults(self, rossler_default):
        assert rossler_default.n == 2000
        assert rossler_default.dt == ROSSLER_DT
        assert rossler_default.label == "rossler"

    def test_seed_draws_ic_from_box(self):
        a = rossler_generate(GenConfig(n=10, transient=0, seed=9))
        ic = np.random.default_rng(9).uniform(*RosslerParams.ic_box)
        assert (a.to_array()[0] == ic).all()
        assert 0.0 <= ic[2] <= 5.0

    def test_zero_a_b_reduces_to_circle(self):
        # With a = b = 0 and z0 = 0, z stays 0 and (x, y) rotates on the
        # unit circle, an analytically known orbit.
        ms = rossler_generate(
            GenConfig(n=101, dt=0.05, transient=0, ic=(1.0, 0.0, 0.0)),
            RosslerParams(a=0.0, b=0.0, c=10.0),
        )
        arr = ms.to_array()
        assert np.abs(arr[:, 2]).max() == 0.0
        radius_err = np.abs(arr[:, 0] ** 2 + arr[:, 1] ** 2 - 1.0)
        assert radius_err.max() < 1e-6
