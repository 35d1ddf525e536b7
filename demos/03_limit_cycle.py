"""Locating the endemic limit cycle by Newton shooting on the Poincare map.

Above the threshold, trajectories converge to a periodic infected state.
Iterating the period map until it settles provides the warm start;
Newton iteration on g(x) = flow_P(x) - x, with the Jacobian from the
variational equation, then closes the model's own period map on the
cycle to near machine precision.
Floquet multipliers inside the unit circle confirm its linear stability.
Phase-plane SVGs (I-V, T-V, E-V) go to demos/output/.
"""

import math
import pathlib

import numpy as np

from perivir import (
    IntegratorConfig,
    ModelParameters,
    SinusoidalCoefficient,
    State,
    find_periodic_orbit,
    poincare_map,
    simulate,
    warm_start_guess,
)
from perivir.svgplot import Panel, Series, write_panels

OUT = pathlib.Path(__file__).resolve().parent / "output"
OUT.mkdir(exist_ok=True)

OMEGA = 2.0 * math.pi / 24.0

params = ModelParameters(
    angular_frequency=OMEGA,
    mu=SinusoidalCoefficient(0.1, 0.05),
    beta=SinusoidalCoefficient(0.3, 0.1),
    d=SinusoidalCoefficient(0.01, 0.005),
    k=0.2, delta=0.1, p=0.5, c=0.1, c1=0.1, c2=0.1)

cfg = IntegratorConfig.spectral()

# 1. Warm start: the period map is iterated at simulation tolerance until
#    its period-to-period change has settled (9 periods here; 2000 hours is
#    only the upper bound), which puts the state in the cycle's basin.
#    Newton polishes at cfg's tolerance.
guess = warm_start_guess(params, State(10.0, 1.0, 1.0, 1.0), 2000.0, cfg)
print("warm-start guess:", np.round(guess.as_array(), 6))

# 2. Newton shooting.
orbit = find_periodic_orbit(params, guess, cfg, newton_tol=1e-10)
print("orbit initial state:", np.round(orbit.initial_state.as_array(), 8))
print(f"newton residual = {orbit.newton_residual:.2e}")
for m in orbit.floquet_multipliers:
    print(f"  multiplier {m:.6f}  modulus {abs(m):.6f}")
print(f"stable: {orbit.stable} (margin {orbit.stability_margin:.4f})")

# 3. The fixed-point property, checked through the public Poincare map. The
#    Newton residual above is the closure of the model's own 4-wide flow
#    from the orbit's state, so the public map reads the same number; the
#    orbit's first and last samples differ by it too.
ret = poincare_map(params, orbit.initial_state, cfg).as_array()
print(f"|P(x*) - x*| = {np.max(np.abs(ret - orbit.initial_state.as_array())):.2e}")

# 4. Phase planes: a settling trajectory spirals onto the closed curve.
approach = simulate(params, State(10.0, 1.0, 1.0, 1.0), 480.0, cfg, grid_step=0.1)
tail = approach.window(240.0, 480.0)
for x_name, xi in (("I", 2), ("T", 0), ("E", 1)):
    panel = Panel(
        title=f"{x_name}-V phase plane",
        x_label=f"{x_name} density", y_label="V density",
        series=(Series(tail.states[:, xi], tail.states[:, 3], "approach"),
                Series(orbit.states[:, xi], orbit.states[:, 3], "limit cycle")))
    write_panels(OUT / f"cycle_{x_name.lower()}v.svg", [panel], n_cols=1)
print("wrote cycle_iv.svg, cycle_tv.svg, cycle_ev.svg")
