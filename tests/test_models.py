from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from phaseshape.models import BUNDLED, generate_system


def _stack(ms):
    """An (n, channels) array, one column per channel."""
    return np.column_stack([ch.samples for ch in ms.channels])


class TestParams:
    def test_lorenz_defaults(self):
        p = LorenzParams()
        assert (p.sigma, p.rho, p.beta) == (16.0, 45.92, 4.0)

    def test_rossler_defaults(self):
        p = RosslerParams()
        assert (p.a, p.b, p.c) == (0.15, 0.20, 10.0)

    def test_default_steps(self):
        assert LorenzParams.default_dt == 0.01
        assert RosslerParams.default_dt == 0.12

    def test_bundled_table(self):
        assert list(BUNDLED.items()) == [("lorenz", LorenzParams), ("rossler", RosslerParams)]
        assert [cls.default_dt for cls in BUNDLED.values()] == [0.01, 0.12]
        assert LorenzParams.ic_box == ((-10.0, -10.0, -10.0), (10.0, 10.0, 10.0))
        assert RosslerParams.ic_box == ((-5.0, -5.0, 0.0), (5.0, 5.0, 5.0))

    def test_class_facts_are_not_fields(self):
        assert asdict(LorenzParams()) == {"sigma": 16.0, "rho": 45.92, "beta": 4.0}
        assert asdict(RosslerParams()) == {"a": 0.15, "b": 0.20, "c": 10.0}

    def test_deriv(self):
        assert LorenzParams().deriv(1.0, 2.0, 3.0) == (16.0, 40.92, -10.0)
        assert RosslerParams().deriv(1.0, 2.0, 3.0) == (-5.0, 1.3, -26.8)


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
        out = rk4_integrate(lambda y: (-y,), [1.0], 0.1, 5)
        assert out.shape == (6, 1)
        assert out[0, 0] == 1.0

    def test_exponential_decay_accuracy(self):
        # y' = -y over one unit of time: classic smooth-problem check
        out = rk4_integrate(lambda y: (-y,), [1.0], 0.01, 100)
        assert abs(out[-1, 0] - np.exp(-1.0)) < 1e-8

    def test_order_four_convergence(self):
        def err(h):
            out = rk4_integrate(lambda y: (-y,), [1.0], h, int(round(1.0 / h)))
            return abs(out[-1, 0] - np.exp(-1.0))

        ratio = err(0.02) / err(0.01)
        assert 12.8 <= ratio <= 19.2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_step(self):
        # y' = y^2 from y0=1 blows up just past t=1
        with pytest.raises(NumericalError, match=r"^non-finite state at integration step 13$"):
            rk4_integrate(lambda y: (y * y,), [1.0], 0.1, 50)

    def test_float_errors_name_step(self):
        # Python floats raise OverflowError and ZeroDivisionError where
        # arrays give inf or nan
        with pytest.raises(NumericalError, match=r"^non-finite state at integration step 13$"):
            rk4_integrate(lambda y: (y ** 2,), [1.0], 0.1, 50)
        with pytest.raises(NumericalError, match=r"^non-finite state at integration step 1$"):
            rk4_integrate(lambda y: (1.0 / (y - 1.0),), [1.0], 0.1, 50)

    def test_state_shapes(self):
        def neg(*y):
            return [-c for c in y]

        assert rk4_integrate(neg, [1.0, 2.0], 0.1, 5).shape == (6, 2)
        assert rk4_integrate(neg, 1.0, 0.1, 5).shape == (6, 1)
        with pytest.raises(ValidationError, match=r"^y0 must have shape \(dim,\), got \(3, 2\)$"):
            rk4_integrate(neg, [[1.0, 2.0]] * 3, 0.1, 5)
        with pytest.raises(ValidationError, match="y0"):
            rk4_integrate(neg, np.ones((2, 2, 1)), 0.1, 5)
        with pytest.raises(ValidationError, match="y0"):
            rk4_integrate(neg, [[1.0, 2.0], [3.0]], 0.1, 5)


def _cubic(u):
    """A bounded nonlinear 1-D derivative."""
    return u - u * u * u / 3.0 + 0.5


def _per_component(f, y0, dt, n_steps):
    """The 1-D loop run on each component of the uncoupled system (f, f, f)."""
    return np.column_stack([rk4_integrate(lambda u: (f(u),), [c], dt, n_steps)[:, 0] for c in y0])


def _error_message(call):
    with pytest.raises(NumericalError) as info:
        call()
    return str(info.value)


class TestThreeComponentLoop:
    # The written-out 3-component loop takes the 1-D loop's operations in
    # its order, so an uncoupled system equals the 1-D loop per component.
    @settings(max_examples=40, deadline=None)
    @given(
        y0=st.tuples(*[st.floats(-3.0, 3.0, allow_nan=False)] * 3),
        dt=st.floats(1e-3, 0.1, allow_nan=False),
    )
    def test_uncoupled_equals_one_dimensional(self, y0, dt):
        got = rk4_integrate(lambda x, y, z: (_cubic(x), _cubic(y), _cubic(z)), y0, dt, 200)
        want = _per_component(_cubic, y0, dt, 200)
        assert got.shape == want.shape == (201, 3)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("where", range(3))
    @pytest.mark.parametrize("f, bad, good, dt, step", [
        # y' = y ** 2 overflows past t = 1 from 1.0, near t = 10 from 0.1
        (lambda u: u ** 2, 1.0, 0.1, 0.1, 13),
        # y' = -1 steps down by dt; 0.0 / u divides by zero at the last
        # stage of the step that starts at u = dt
        (lambda u: -1.0 + 0.0 / u, 2.0, 20.0, 0.25, 8),
    ], ids=["overflow", "zero-division"])
    def test_float_errors_name_the_one_dimensional_step(self, where, f, bad, good, dt, step):
        y0 = [good] * 3
        y0[where] = bad
        want = _error_message(lambda: rk4_integrate(lambda u: (f(u),), [bad], dt, 50))
        assert want == f"non-finite state at integration step {step}"
        got = _error_message(lambda: rk4_integrate(lambda x, y, z: (f(x), f(y), f(z)), y0, dt, 50))
        assert got == want


class TestGenerateSystem:
    @pytest.mark.parametrize("system, params", [
        ("rossler", LorenzParams()),
        ("lorenz", RosslerParams()),
        ("lorenz", {"sigma": 10.0}),
    ])
    def test_wrong_params_class_rejected(self, system, params):
        with pytest.raises(ValidationError, match=rf"^{system} needs "):
            generate_system(system, GenConfig(n=10), params)


# float.hex of the x, y, z samples at a few indices, recorded when RK4
# stepped (3,) numpy arrays: the float stepping keeps its operation order, so
# not one bit may move.
PINNED_STATES = {
    ("lorenz", 11): {
        0: ("0x1.f5caa5bc472f8p+3", "0x1.3d3e47e90242dp+3", "0x1.b0341a1cdb0cbp+5"),
        150: ("-0x1.25b2389d7fcc3p+0", "-0x1.1a2396f93b6aap+1", "0x1.aa10e079d890dp+4"),
        299: ("0x1.72e89527429a4p+0", "0x1.5287f628a070cp+1", "0x1.196c1930b2432p+4"),
    },
    ("rossler", 12): {
        0: ("0x1.62ec22fbb92e0p+3", "0x1.65cb32f9dc6aep+1", "0x1.0231105bd05bcp-1"),
        150: ("0x1.73dcb44f74cf9p+3", "-0x1.e05f49e13df48p-3", "0x1.49eb5034930e4p-2"),
        299: ("0x1.4f00f8184411ap+3", "-0x1.09587b9b6ac73p+2", "0x1.eeb9807ef5ef2p-4"),
    },
}


@pytest.mark.parametrize("system, seed", PINNED_STATES)
def test_pinned_states(system, seed):
    ms = generate_system(system, GenConfig(n=300, seed=seed))
    for idx, want in PINNED_STATES[system, seed].items():
        assert tuple(float(ch.samples[idx]).hex() for ch in ms.channels) == want


class TestLorenz:
    def test_shape_and_channels(self):
        ms = lorenz_generate(GenConfig(n=500))
        assert ms.n == 500
        assert [ch.name for ch in ms.channels] == ["x", "y", "z"]
        assert ms.dt == LorenzParams.default_dt
        assert ms.label == "lorenz"

    def test_default_trajectory_bounded(self, lorenz_default):
        assert np.abs(_stack(lorenz_default)).max() < 80.0

    def test_transient_is_a_prefix_drop(self):
        full = lorenz_generate(GenConfig(n=1100, transient=0))
        trimmed = lorenz_generate(GenConfig(n=100, transient=1000))
        assert (_stack(trimmed) == _stack(full)[1000:]).all()

    def test_seed_draws_ic_from_box(self):
        a = lorenz_generate(GenConfig(n=10, transient=0, seed=3))
        ic = np.random.default_rng(3).uniform(*LorenzParams.ic_box)
        assert (_stack(a)[0] == ic).all()

    def test_seed_reproducible_and_distinct(self):
        a = lorenz_generate(GenConfig(n=50, seed=1))
        b = lorenz_generate(GenConfig(n=50, seed=1))
        c = lorenz_generate(GenConfig(n=50, seed=2))
        assert (_stack(a) == _stack(b)).all()
        assert not (_stack(a) == _stack(c)).all()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_large_step_diverges_cleanly(self):
        with pytest.raises(NumericalError, match="step"):
            lorenz_generate(GenConfig(n=100, dt=1.0))


class TestRossler:
    def test_shape_and_defaults(self, rossler_default):
        assert rossler_default.n == 2000
        assert rossler_default.dt == RosslerParams.default_dt
        assert rossler_default.label == "rossler"

    def test_seed_draws_ic_from_box(self):
        a = rossler_generate(GenConfig(n=10, transient=0, seed=9))
        ic = np.random.default_rng(9).uniform(*RosslerParams.ic_box)
        assert (_stack(a)[0] == ic).all()
        assert 0.0 <= ic[2] <= 5.0

    def test_zero_a_b_reduces_to_circle(self):
        # With a = b = 0 and z0 = 0, z stays 0 and (x, y) rotates on the
        # unit circle, an analytically known orbit.
        ms = rossler_generate(
            GenConfig(n=101, dt=0.05, transient=0, ic=(1.0, 0.0, 0.0)),
            RosslerParams(a=0.0, b=0.0, c=10.0),
        )
        arr = _stack(ms)
        assert np.abs(arr[:, 2]).max() == 0.0
        radius_err = np.abs(arr[:, 0] ** 2 + arr[:, 1] ** 2 - 1.0)
        assert radius_err.max() < 1e-6
