"""Ground-truth chaotic trajectory generation by fixed-step RK4.

Two benchmark systems are provided with the parameter sets used throughout
the reference experiments: the Lorenz system (sigma=16, rho=45.92, beta=4,
dt=0.01) and the Rossler system (a=0.15, b=0.2, c=10, dt=0.12). Each params
class is the one description of its system: its derivative and, as class
variables, its default step, ic box, delay and lengths. ``BUNDLED`` maps the
system names to those classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import NumericalError, ValidationError, check_int, check_real, check_sequence
from .series import MultiSeries, TimeSeries

__all__ = [
    "LorenzParams",
    "RosslerParams",
    "BUNDLED",
    "GenConfig",
    "rk4_integrate",
    "generate_system",
    "lorenz_generate",
    "rossler_generate",
]


@dataclass(frozen=True)
class LorenzParams:
    """Control parameters of x' = sigma(y-x), y' = x(rho-z)-y, z' = xy-beta z."""

    # Default step, and the (low, high) box seeded initial conditions are drawn from.
    default_dt: ClassVar[float] = 0.01
    ic_box: ClassVar[tuple] = ((-10.0, -10.0, -10.0), (10.0, 10.0, 10.0))
    # The conventional reference delay in samples at default_dt, pinned
    # because the ACF rule of estimate_delay does not reproduce it (README
    # "Testing"). Synthetic instance lengths are drawn from length_range;
    # the stability study takes the stability_lengths prefixes.
    default_tau: ClassVar[int] = 11
    length_range: ClassVar[tuple] = (1000, 5000)
    stability_lengths: ClassVar[tuple] = (1000, 2000, 3000, 4000, 5000)

    sigma: float = 16.0
    rho: float = 45.92
    beta: float = 4.0

    def __post_init__(self):
        for f in ("sigma", "rho", "beta"):
            object.__setattr__(self, f, check_real(f, getattr(self, f)))

    def deriv(self, x, y, z):
        """Time derivative (dx, dy, dz) of one state, as floats, or of a
        batch, as same-shape arrays: only + - * on the components."""
        return self.sigma * (y - x), x * (self.rho - z) - y, x * y - self.beta * z


@dataclass(frozen=True)
class RosslerParams:
    """Control parameters of x' = -y-z, y' = x+ay, z' = b+z(x-c)."""

    default_dt: ClassVar[float] = 0.12
    ic_box: ClassVar[tuple] = ((-5.0, -5.0, 0.0), (5.0, 5.0, 5.0))
    default_tau: ClassVar[int] = 8
    length_range: ClassVar[tuple] = (400, 2000)
    stability_lengths: ClassVar[tuple] = (400, 800, 1200, 1600, 2000)

    a: float = 0.15
    b: float = 0.20
    c: float = 10.0

    def __post_init__(self):
        for f in ("a", "b", "c"):
            object.__setattr__(self, f, check_real(f, getattr(self, f)))

    def deriv(self, x, y, z):
        """Time derivative (dx, dy, dz), as LorenzParams.deriv."""
        return -y - z, x + self.a * y, self.b + z * (x - self.c)


# The bundled systems: name -> params class, in seed-key order.
BUNDLED = {"lorenz": LorenzParams, "rossler": RosslerParams}


@dataclass(frozen=True)
class GenConfig:
    """Trajectory generation settings.

    Parameters
    ----------
    n : int
        Samples kept after the transient. At least 2.
    dt : float, optional
        Integration and sampling step. None selects the system default.
    transient : int, optional
        Initial samples discarded so the trajectory settles onto the
        attractor before sampling. Default 1000.
    ic : 3-tuple of float, optional
        Initial condition. Default (1, 1, 1). Ignored when ``seed`` is set.
    seed : int, optional
        When given (>= 0), the initial condition is drawn uniformly from the
        system's ic box and ``ic`` is ignored.
    """

    n: int
    dt: float | None = None
    transient: int = 1000
    ic: tuple[float, float, float] = (1.0, 1.0, 1.0)
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "n", check_int("n", self.n, 2))
        if self.dt is not None:
            object.__setattr__(self, "dt", check_real("dt", self.dt, 0, strict=True))
        object.__setattr__(self, "transient", check_int("transient", self.transient, 0))
        ic = check_sequence("ic", self.ic, "3 finite reals", 3)
        object.__setattr__(self, "ic", tuple(check_real(f"ic[{i}]", v) for i, v in enumerate(ic)))
        if self.seed is not None:
            object.__setattr__(self, "seed", check_int("seed", self.seed, 0))


def rk4_integrate(deriv, y0, dt: float, n_steps: int) -> np.ndarray:
    """Integrate y' = deriv(y) with the classic fourth-order Runge-Kutta step.

    ``deriv`` takes the state's components and returns their derivatives,
    ``deriv(*y) -> (dy0, dy1, ...)``. A (dim,) state steps as dim Python
    floats. A batch of K independent states of the same system steps as dim
    arrays of K through the same loop, so ``deriv`` must accept both, as a
    formula of + - * on its arguments does. Every operation is elementwise,
    so each row of a batch equals its own (dim,) integration bit for bit.

    Parameters
    ----------
    deriv : callable
        Maps the state's components to their time derivatives.
    y0 : array_like, shape (dim,) or (K, dim)
        Initial state, or K initial states, of finite reals.
    dt : float
        Fixed step size.
    n_steps : int
        Number of steps to take.

    Returns
    -------
    ndarray of shape (n_steps + 1, dim) or (n_steps + 1, K, dim)
        The states including ``y0`` itself.

    Raises
    ------
    ValidationError
        If ``y0`` has another shape or an entry that is not a finite real;
        the message names the entry, as ``y0[1, 0]``.
    NumericalError
        If the state leaves the finite range, checked once the steps have
        run (a non-finite state stays non-finite). The message names the step,
        and for a batch also the first row that went non-finite:
        ``non-finite state at integration step 13 (row 1)``.
    """
    dt = check_real("dt", dt, 0, strict=True)
    n_steps = check_int("n_steps", n_steps, 0)
    y = np.array(y0, dtype=object, ndmin=1)
    if y.ndim > 2:
        raise ValidationError(f"y0 must have shape (dim,) or (K, dim), got {y.shape}")
    y = np.array([check_real(f"y0{list(i)}", y[i]) for i in np.ndindex(y.shape)]).reshape(y.shape)
    batch = y.ndim == 2
    out = np.empty((n_steps + 1, *y.shape))
    out[0] = y
    # Step i writes the components to row i: a (dim,) row, or the dim
    # columns of a (K, dim) row.
    rows = out.transpose(0, 2, 1) if batch else out
    s = list(y.T.copy()) if batch else y.tolist()
    h2, h6 = 0.5 * dt, dt / 6.0
    try:
        for i in range(1, n_steps + 1):
            k1 = deriv(*s)
            k2 = deriv(*[a + h2 * b for a, b in zip(s, k1)])
            k3 = deriv(*[a + h2 * b for a, b in zip(s, k2)])
            k4 = deriv(*[a + dt * b for a, b in zip(s, k3)])
            # b + b is 2 * b exactly, and cheaper than it on arrays
            s = [
                a + h6 * (b1 + (b2 + b2) + (b3 + b3) + b4)
                for a, b1, b2, b3, b4 in zip(s, k1, k2, k3, k4)
            ]
            rows[i] = s
    except (OverflowError, ZeroDivisionError):
        # Python floats raise where arrays overflow to inf or divide to
        # inf or nan: step i leaves the finite range, if no earlier step did.
        out[i:] = np.inf
    # A non-finite component stays non-finite under a + ..., so the first
    # row with one is the step where the state left the finite range.
    finite = np.isfinite(out).reshape(n_steps + 1, -1).all(axis=1)
    if not finite.all():
        step = int(finite.argmin())
        where = ""
        if batch:
            where = f" (row {np.flatnonzero(~np.isfinite(out[step]).all(axis=1))[0]})"
        raise NumericalError(f"non-finite state at integration step {step}{where}")
    return out


def _initial_state(cls, config: GenConfig) -> tuple:
    """The state ``config`` starts from: drawn from ``cls.ic_box`` by
    ``config.seed`` when it is set, else ``config.ic``."""
    if config.seed is None:
        return config.ic
    return tuple(np.random.default_rng(config.seed).uniform(*cls.ic_box).tolist())


def _generate(system: str, configs, params=None) -> list[MultiSeries]:
    """One MultiSeries per config of a bundled system, all integrated in one
    rk4_integrate pass.

    ``params`` defaults to the system's params class with its defaults. The
    configs must share dt; each keeps its own transient and length. A
    single config integrates a (3,) state, which steps on Python floats at
    about a seventh of the cost per step of a (1, 3) batch.
    """
    if system not in BUNDLED:
        raise ValidationError(f"system must be one of {tuple(BUNDLED)}, got {system!r}")
    cls = BUNDLED[system]
    if params is None:
        params = cls()
    elif not isinstance(params, cls):
        raise ValidationError(f"{system} needs {cls.__name__}, got {type(params).__name__}")
    dts = {c.dt if c.dt is not None else cls.default_dt for c in configs}
    if len(dts) != 1:
        raise ValidationError(f"a batch needs one dt, got {sorted(dts)}")
    dt = dts.pop()
    ics = np.array([_initial_state(cls, c) for c in configs], dtype=float)
    steps = max(c.transient + c.n for c in configs) - 1
    traj = rk4_integrate(params.deriv, ics[0] if len(configs) == 1 else ics, dt, steps)
    traj = traj.reshape(steps + 1, len(configs), 3)
    out = []
    for k, c in enumerate(configs):
        kept = traj[c.transient : c.transient + c.n, k]
        channels = tuple(
            TimeSeries(kept[:, i], dt=dt, name=nm) for i, nm in enumerate(("x", "y", "z"))
        )
        out.append(MultiSeries(channels, label=system))
    return out


def generate_system(system: str, config: GenConfig, params=None) -> MultiSeries:
    """Generate a ``BUNDLED`` system as a 3-channel MultiSeries labeled with
    its name; ``params``, when given, must be of that system's params class."""
    return _generate(system, [config], params)[0]


def lorenz_generate(config: GenConfig, params: LorenzParams | None = None) -> MultiSeries:
    """Generate a Lorenz trajectory as a 3-channel MultiSeries (x, y, z).

    The first ``config.transient`` samples are discarded. Sample period is
    ``config.dt`` or 0.01 by default.
    """
    return generate_system("lorenz", config, params)


def rossler_generate(config: GenConfig, params: RosslerParams | None = None) -> MultiSeries:
    """Generate a Rossler trajectory as a 3-channel MultiSeries (x, y, z).

    Sample period is ``config.dt`` or 0.12 by default.
    """
    return generate_system("rossler", config, params)
