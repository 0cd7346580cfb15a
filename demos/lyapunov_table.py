"""Largest Lyapunov exponent of both bundled systems at several lengths.

Estimates lambda1 with the nearest-neighbor divergence method on the x
channel of each trajectory and tabulates the fit quality alongside. Short
Rossler records are included on purpose: they keep a positive exponent but
trip the low-R^2 flag, which is the intended honesty mechanism.
Run with: python3 demos/lyapunov_table.py
"""

import numpy as np

from phaseshape import (
    EmbeddingParams,
    GenConfig,
    attractor_diameter,
    correlation_dimension,
    delay_embed,
    generate_system,
    lle_rosenstein,
)
from phaseshape.models import BUNDLED

RUNS = [
    ("lorenz", (1000, 2000, 5000)),
    ("rossler", (400, 1000, 2000)),
]


def main():
    print(f"{'system':>8} {'n':>6} {'tau':>4} {'lambda1':>9} {'R^2':>7}  fit")
    clouds = {}
    for system, lengths in RUNS:
        tau = BUNDLED[system].default_tau
        traj = generate_system(system, GenConfig(n=max(lengths)))
        for n in lengths:
            x = traj.prefix(n).channels[0]
            ps = delay_embed(x, EmbeddingParams(m=3, tau=tau))
            res = lle_rosenstein(ps, dt=x.dt)
            flag = "  (low R^2, fit is unreliable)" if res.low_r2 else ""
            print(
                f"{system:>8} {n:>6} {tau:>4} {res.lambda1:>9.4f} {res.r2:>7.4f}"
                f"  {res.fit_range}{flag}"
            )
        clouds[system] = delay_embed(traj.channels[0], EmbeddingParams(m=3, tau=tau))

    print("\ncorrelation dimension at the largest length:")
    for system, ps in clouds.items():
        dia = attractor_diameter(ps)
        radii = np.geomspace(0.01 * dia, 0.1 * dia, 8)
        d = correlation_dimension(ps, radii, theiler=BUNDLED[system].default_tau * 3)
        print(f"{system:>8}  D2 = {d:.3f}")

    print("\nboth exponents should be positive; lorenz roughly an order of")
    print("magnitude larger, matching its much faster divergence.")


if __name__ == "__main__":
    main()
