"""Ground-truth chaotic trajectory generation by fixed-step RK4.

Two benchmark systems are provided with the parameter sets used throughout
the reference experiments: the Lorenz system (sigma=16, rho=45.92, beta=4,
dt=0.01) and the Rossler system (a=0.15, b=0.2, c=10, dt=0.12). Each params
class carries its system's derivative, default step and ic box, and
``BUNDLED`` maps the system names to those classes.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import NumericalError, ValidationError, check_int, check_real
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
    "LORENZ_DT",
    "ROSSLER_DT",
]

# System-default sampling steps. At these steps the benchmark delay
# estimates for the two systems land at 11 and 8 samples respectively.
LORENZ_DT = 0.01
ROSSLER_DT = 0.12


@dataclass(frozen=True)
class LorenzParams:
    """Control parameters of x' = sigma(y-x), y' = x(rho-z)-y, z' = xy-beta z."""

    # Default step, and the (low, high) box seeded initial conditions are drawn from.
    default_dt: ClassVar[float] = LORENZ_DT
    ic_box: ClassVar[tuple] = ((-10.0, -10.0, -10.0), (10.0, 10.0, 10.0))

    sigma: float = 16.0
    rho: float = 45.92
    beta: float = 4.0

    def __post_init__(self):
        for f in ("sigma", "rho", "beta"):
            object.__setattr__(self, f, check_real(f, getattr(self, f)))

    def deriv(self, s: np.ndarray) -> np.ndarray:
        """Time derivative of a (3,) state or of a (K, 3) batch of states."""
        x, y, z = s.T
        return np.array([self.sigma * (y - x), x * (self.rho - z) - y, x * y - self.beta * z]).T


@dataclass(frozen=True)
class RosslerParams:
    """Control parameters of x' = -y-z, y' = x+ay, z' = b+z(x-c)."""

    default_dt: ClassVar[float] = ROSSLER_DT
    ic_box: ClassVar[tuple] = ((-5.0, -5.0, 0.0), (5.0, 5.0, 5.0))

    a: float = 0.15
    b: float = 0.20
    c: float = 10.0

    def __post_init__(self):
        for f in ("a", "b", "c"):
            object.__setattr__(self, f, check_real(f, getattr(self, f)))

    def deriv(self, s: np.ndarray) -> np.ndarray:
        """Time derivative of a (3,) state or of a (K, 3) batch of states."""
        x, y, z = s.T
        return np.array([-y - z, x + self.a * y, self.b + z * (x - self.c)]).T


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
        ic = self.ic.tolist() if isinstance(self.ic, np.ndarray) else self.ic
        if isinstance(ic, (str, bytes)) or not isinstance(ic, Sequence) or len(ic) != 3:
            raise ValidationError(f"ic must be a sequence of 3 finite reals, got {ic!r}")
        object.__setattr__(self, "ic", tuple(check_real(f"ic[{i}]", v) for i, v in enumerate(ic)))
        if self.seed is not None:
            object.__setattr__(self, "seed", check_int("seed", self.seed, 0))


def rk4_integrate(deriv, y0, dt: float, n_steps: int) -> np.ndarray:
    """Integrate y' = deriv(y) with the classic fourth-order Runge-Kutta step.

    A batch of K independent states of the same system integrates in one
    pass: ``deriv`` then maps a (K, dim) state to its (K, dim) derivative.
    Every operation is elementwise, so each row equals its own (dim,)
    integration bit for bit.

    Parameters
    ----------
    deriv : callable
        Maps a state to its time derivative, of the same shape.
    y0 : array_like, shape (dim,) or (K, dim)
        Initial state, or K initial states.
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
    NumericalError
        If the state leaves the finite range. The message names the step,
        and for a batch also the first row that went non-finite:
        ``non-finite state at integration step 13 (row 1)``.
    """
    dt = check_real("dt", dt, 0, strict=True)
    n_steps = check_int("n_steps", n_steps, 0)
    y = np.array(y0, dtype=float, ndmin=1)
    if y.ndim > 2:
        raise ValidationError(f"y0 must have shape (dim,) or (K, dim), got {y.shape}")
    out = np.empty((n_steps + 1, *y.shape))
    out[0] = y
    for i in range(n_steps):
        k1 = np.asarray(deriv(y), dtype=float)
        k2 = np.asarray(deriv(y + 0.5 * dt * k1), dtype=float)
        k3 = np.asarray(deriv(y + 0.5 * dt * k2), dtype=float)
        k4 = np.asarray(deriv(y + dt * k3), dtype=float)
        y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.isfinite(y).all():
            where = ""
            if y.ndim == 2:
                row = np.flatnonzero(~np.isfinite(y).all(axis=1))[0]
                where = f" (row {row})"
            raise NumericalError(f"non-finite state at integration step {i + 1}{where}")
        out[i + 1] = y
    return out


def _generate(system: str, configs, params=None) -> list[MultiSeries]:
    """One MultiSeries per config of a bundled system, all integrated in one
    rk4_integrate pass.

    ``params`` defaults to the system's params class with its defaults. The
    configs must share dt; each keeps its own transient and length. A
    single config integrates a (3,) state, which costs about half as much
    per step as a (1, 3) batch.
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
    low, high = cls.ic_box
    ics = np.array([
        np.random.default_rng(c.seed).uniform(low, high) if c.seed is not None else c.ic
        for c in configs
    ], dtype=float)
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
