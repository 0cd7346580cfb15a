"""Ground-truth chaotic trajectory generation by fixed-step RK4.

Two benchmark systems are provided with the parameter sets used throughout
the reference experiments: the Lorenz system (sigma=16, rho=45.92, beta=4,
dt=0.01) and the Rossler system (a=0.15, b=0.2, c=10, dt=0.12).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .series import MultiSeries, TimeSeries

__all__ = [
    "LorenzParams",
    "RosslerParams",
    "GenConfig",
    "rk4_integrate",
    "lorenz_generate",
    "rossler_generate",
    "LORENZ_DT",
    "ROSSLER_DT",
    "LORENZ_IC_LOW",
    "LORENZ_IC_HIGH",
    "ROSSLER_IC_LOW",
    "ROSSLER_IC_HIGH",
]

# System-default sampling steps. At these steps the benchmark delay
# estimates for the two systems land at 11 and 8 samples respectively.
LORENZ_DT = 0.01
ROSSLER_DT = 0.12

# Boxes for randomized initial conditions (seeded dataset generation).
LORENZ_IC_LOW = (-10.0, -10.0, -10.0)
LORENZ_IC_HIGH = (10.0, 10.0, 10.0)
ROSSLER_IC_LOW = (-5.0, -5.0, 0.0)
ROSSLER_IC_HIGH = (5.0, 5.0, 5.0)


def _require_finite(name: str, value: float) -> float:
    try:
        v = float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a finite real, got {value!r}") from None
    if not math.isfinite(v):
        raise ValidationError(f"{name} must be finite, got {v!r}")
    return v


@dataclass(frozen=True)
class LorenzParams:
    """Control parameters of x' = sigma(y-x), y' = x(rho-z)-y, z' = xy-beta z."""

    sigma: float = 16.0
    rho: float = 45.92
    beta: float = 4.0

    def __post_init__(self):
        for f in ("sigma", "rho", "beta"):
            object.__setattr__(self, f, _require_finite(f, getattr(self, f)))


@dataclass(frozen=True)
class RosslerParams:
    """Control parameters of x' = -y-z, y' = x+ay, z' = b+z(x-c)."""

    a: float = 0.15
    b: float = 0.20
    c: float = 10.0

    def __post_init__(self):
        for f in ("a", "b", "c"):
            object.__setattr__(self, f, _require_finite(f, getattr(self, f)))


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
        When given, the initial condition is drawn uniformly from the
        system's ic box and ``ic`` is ignored.
    """

    n: int
    dt: float | None = None
    transient: int = 1000
    ic: tuple[float, float, float] = (1.0, 1.0, 1.0)
    seed: int | None = None

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 2):
            raise ValidationError(f"n must be an integer >= 2, got {self.n!r}")
        if self.dt is not None:
            dt = _require_finite("dt", self.dt)
            if dt <= 0:
                raise ValidationError(f"dt must be positive, got {dt}")
            object.__setattr__(self, "dt", dt)
        if not (isinstance(self.transient, (int, np.integer)) and self.transient >= 0):
            raise ValidationError(f"transient must be a non-negative integer, got {self.transient!r}")
        ic = tuple(_require_finite(f"ic[{i}]", v) for i, v in enumerate(self.ic))
        if len(ic) != 3:
            raise ValidationError(f"ic must have 3 components, got {len(ic)}")
        object.__setattr__(self, "ic", ic)
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "transient", int(self.transient))
        if self.seed is not None and not isinstance(self.seed, (int, np.integer)):
            raise ValidationError(f"seed must be an integer, got {self.seed!r}")


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
    if not (math.isfinite(dt) and dt > 0):
        raise ValidationError(f"dt must be a positive finite real, got {dt!r}")
    if n_steps < 0:
        raise ValidationError(f"n_steps must be non-negative, got {n_steps}")
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


def _generate(deriv, configs, default_dt: float, low, high, label: str) -> list[MultiSeries]:
    """One MultiSeries per config, all integrated in one rk4_integrate pass.

    The configs must share dt; each keeps its own transient and length. A
    single config integrates a (3,) state, which costs about half as much
    per step as a (1, 3) batch.
    """
    dts = {c.dt if c.dt is not None else default_dt for c in configs}
    if len(dts) != 1:
        raise ValidationError(f"a batch needs one dt, got {sorted(dts)}")
    dt = dts.pop()
    ics = np.array([
        np.random.default_rng(c.seed).uniform(low, high) if c.seed is not None else c.ic
        for c in configs
    ], dtype=float)
    steps = max(c.transient + c.n for c in configs) - 1
    traj = rk4_integrate(deriv, ics[0] if len(configs) == 1 else ics, dt, steps)
    traj = traj.reshape(steps + 1, len(configs), 3)
    out = []
    for k, c in enumerate(configs):
        kept = traj[c.transient : c.transient + c.n, k]
        channels = tuple(
            TimeSeries(kept[:, i], dt=dt, name=nm) for i, nm in enumerate(("x", "y", "z"))
        )
        out.append(MultiSeries(channels, label=label))
    return out


def lorenz_generate(config: GenConfig, params: LorenzParams | None = None) -> MultiSeries:
    """Generate a Lorenz trajectory as a 3-channel MultiSeries (x, y, z).

    The first ``config.transient`` samples are discarded. Sample period is
    ``config.dt`` or 0.01 by default.
    """
    return _lorenz_batch([config], params)[0]


def _lorenz_batch(configs, params: LorenzParams | None = None) -> list[MultiSeries]:
    p = params if params is not None else LorenzParams()

    def deriv(s):
        x, y, z = s.T
        return np.array([p.sigma * (y - x), x * (p.rho - z) - y, x * y - p.beta * z]).T

    return _generate(deriv, configs, LORENZ_DT, LORENZ_IC_LOW, LORENZ_IC_HIGH, "lorenz")


def rossler_generate(config: GenConfig, params: RosslerParams | None = None) -> MultiSeries:
    """Generate a Rossler trajectory as a 3-channel MultiSeries (x, y, z).

    Sample period is ``config.dt`` or 0.12 by default.
    """
    return _rossler_batch([config], params)[0]


def _rossler_batch(configs, params: RosslerParams | None = None) -> list[MultiSeries]:
    p = params if params is not None else RosslerParams()

    def deriv(s):
        x, y, z = s.T
        return np.array([-y - z, x + p.a * y, p.b + z * (x - p.c)]).T

    return _generate(deriv, configs, ROSSLER_DT, ROSSLER_IC_LOW, ROSSLER_IC_HIGH, "rossler")


def params_dict(params) -> dict:
    """Plain-dict view of a params dataclass, for config echoes."""
    return asdict(params)
