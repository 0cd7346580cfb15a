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
        """Time derivative (dx, dy, dz) of one state: only + - * on the
        components."""
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
    ``deriv(*y) -> (dy0, dy1, ...)``. The state steps as Python floats. A
    3-component state, as both bundled systems have, steps through one loop
    written out on three float locals; any other dimension through a loop
    over the component list. Both take the same operations in the same
    order, so they agree bit for bit.

    Parameters
    ----------
    deriv : callable
        Maps the state's components to their time derivatives.
    y0 : array_like, shape (dim,)
        Initial state of finite reals.
    dt : float
        Fixed step size.
    n_steps : int
        Number of steps to take.

    Returns
    -------
    ndarray of shape (n_steps + 1, dim)
        The states including ``y0`` itself.

    Raises
    ------
    ValidationError
        If ``y0`` has another shape or an entry that is not a finite real;
        the message names the entry, as ``y0[1]``.
    NumericalError
        If the state leaves the finite range, checked once the steps have
        run (a non-finite state stays non-finite). The message names the
        step: ``non-finite state at integration step 13``.
    """
    dt = check_real("dt", dt, 0, strict=True)
    n_steps = check_int("n_steps", n_steps, 0)
    y0 = np.array(y0, dtype=object, ndmin=1)
    if y0.ndim != 1:
        raise ValidationError(f"y0 must have shape (dim,), got {y0.shape}")
    s = [check_real(f"y0[{i}]", v) for i, v in enumerate(y0)]
    # The states collected one list per component, each converted once
    cols = [[v] for v in s]
    h2, h6 = 0.5 * dt, dt / 6.0
    try:
        if len(s) == 3:
            x, y, z = s
            xa, ya, za = (c.append for c in cols)
            for _ in range(n_steps):
                ax, ay, az = deriv(x, y, z)
                bx, by, bz = deriv(x + h2 * ax, y + h2 * ay, z + h2 * az)
                cx, cy, cz = deriv(x + h2 * bx, y + h2 * by, z + h2 * bz)
                dx, dy, dz = deriv(x + dt * cx, y + dt * cy, z + dt * cz)
                x = x + h6 * (ax + (bx + bx) + (cx + cx) + dx)
                y = y + h6 * (ay + (by + by) + (cy + cy) + dy)
                z = z + h6 * (az + (bz + bz) + (cz + cz) + dz)
                xa(x)
                ya(y)
                za(z)
        else:
            for _ in range(n_steps):
                k1 = deriv(*s)
                k2 = deriv(*[a + h2 * b for a, b in zip(s, k1)])
                k3 = deriv(*[a + h2 * b for a, b in zip(s, k2)])
                k4 = deriv(*[a + dt * b for a, b in zip(s, k3)])
                s = [
                    a + h6 * (b1 + (b2 + b2) + (b3 + b3) + b4)
                    for a, b1, b2, b3, b4 in zip(s, k1, k2, k3, k4)
                ]
                for c, v in zip(cols, s):
                    c.append(v)
    except (OverflowError, ZeroDivisionError):
        # Python floats raise where arrays overflow to inf or divide to inf
        # or nan: the step being taken, row len(cols[0]), leaves the finite
        # range, if no earlier step did. It and the rows after it stay inf.
        pass
    out = np.full((len(s), n_steps + 1), np.inf)
    for row, c in zip(out, cols):
        row[: len(c)] = c
    out = out.T
    # A non-finite component stays non-finite under a + ..., so the first
    # row with one is the step where the state left the finite range.
    finite = np.isfinite(out).all(axis=1)
    if not finite.all():
        raise NumericalError(f"non-finite state at integration step {int(finite.argmin())}")
    return out


def _initial_state(cls, config: GenConfig) -> tuple:
    """The state ``config`` starts from: drawn from ``cls.ic_box`` by
    ``config.seed`` when it is set, else ``config.ic``."""
    if config.seed is None:
        return config.ic
    return tuple(np.random.default_rng(config.seed).uniform(*cls.ic_box).tolist())


def generate_system(system: str, config: GenConfig, params=None) -> MultiSeries:
    """Generate a ``BUNDLED`` system as a 3-channel MultiSeries labeled with
    its name; ``params``, when given, must be of that system's params class,
    and defaults to that class with its defaults."""
    if system not in BUNDLED:
        raise ValidationError(f"system must be one of {tuple(BUNDLED)}, got {system!r}")
    cls = BUNDLED[system]
    if params is None:
        params = cls()
    elif not isinstance(params, cls):
        raise ValidationError(f"{system} needs {cls.__name__}, got {type(params).__name__}")
    dt = cls.default_dt if config.dt is None else config.dt
    steps = config.transient + config.n - 1
    kept = rk4_integrate(params.deriv, _initial_state(cls, config), dt, steps)[config.transient :]
    channels = tuple(
        TimeSeries(kept[:, i], dt=dt, name=nm) for i, nm in enumerate(("x", "y", "z"))
    )
    return MultiSeries(channels, label=system)


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
