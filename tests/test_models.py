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
from phaseshape.models import (
    LORENZ_DT,
    LORENZ_IC_HIGH,
    LORENZ_IC_LOW,
    ROSSLER_DT,
    ROSSLER_IC_HIGH,
    ROSSLER_IC_LOW,
    params_dict,
)


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

    def test_params_dict(self):
        assert params_dict(LorenzParams()) == {"sigma": 16.0, "rho": 45.92, "beta": 4.0}


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


def _bundled_deriv(generate):
    """The derivative a bundled generator hands to rk4_integrate."""
    seen = []

    def record(deriv, y0, dt, n_steps):
        seen.append(deriv)
        return rk4_integrate(deriv, y0, dt, n_steps)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(models, "rk4_integrate", record)
        generate(GenConfig(n=2, transient=0))
    return seen[0]


# system -> (single generator, batch generator, ic box, dt)
BUNDLED = {
    "lorenz": (lorenz_generate, models._lorenz_batch, (LORENZ_IC_LOW, LORENZ_IC_HIGH), LORENZ_DT),
    "rossler": (
        rossler_generate, models._rossler_batch, (ROSSLER_IC_LOW, ROSSLER_IC_HIGH), ROSSLER_DT
    ),
}


class TestBatch:
    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("system", BUNDLED)
    def test_rows_equal_single_integrations(self, system, k):
        generate, _, box, dt = BUNDLED[system]
        deriv = _bundled_deriv(generate)
        ics = np.random.default_rng(k).uniform(*box, (k, 3))
        batch = rk4_integrate(deriv, ics, dt, 2000)
        assert batch.shape == (2001, k, 3)
        for row, ic in enumerate(ics):
            assert np.array_equal(batch[:, row], rk4_integrate(deriv, ic, dt, 2000))

    @pytest.mark.parametrize("system", BUNDLED)
    def test_batch_generation_equals_single(self, system):
        generate, batch, _, _ = BUNDLED[system]
        configs = [
            GenConfig(n=300, seed=1),
            GenConfig(n=120, transient=50, ic=(2.0, -1.0, 4.0)),
            GenConfig(n=2, transient=0),
        ]
        for got, config in zip(batch(configs), configs):
            want = generate(config)
            assert (got.n, got.dt, got.label) == (want.n, want.dt, want.label)
            assert np.array_equal(got.to_array(), want.to_array())

    def test_batch_needs_one_dt(self):
        with pytest.raises(ValidationError, match="one dt"):
            models._lorenz_batch([GenConfig(n=10), GenConfig(n=10, dt=0.02)])


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
        ic = np.random.default_rng(3).uniform(LORENZ_IC_LOW, LORENZ_IC_HIGH)
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
        ic = np.random.default_rng(9).uniform(ROSSLER_IC_LOW, ROSSLER_IC_HIGH)
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
