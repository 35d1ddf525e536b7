"""How the periodic reproduction number is computed and what it controls.

The reproduction number of the periodic model is the spectral radius of
the next-generation operator F (d/dt + G)^-1 on periodic functions: the
unique lambda at which the one-period monodromy of
w' = (F(t)/lambda - G(t)) w has spectral radius 1. r0_periodic takes it
from a truncated Fourier matrix of that operator and certifies it with
the operator's own Collatz-Wielandt bounds, min and max of (K u)/u for
the Fourier eigenfunction u, inside a bracket tol wide; the one
monodromy it integrates is at lambda = 1. This script traces the spectral-radius curve, shows the
certified value sitting exactly at its unit crossing, cross-checks the
autonomous closed form, and sweeps the infection rate across the
threshold.
"""

import math
import pathlib

import numpy as np

from perivir import (
    IntegratorConfig,
    ModelParameters,
    SinusoidalCoefficient,
    build_linearization,
    r0_autonomous,
    r0_periodic,
    rho_for_lambda,
    sweep,
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

result = r0_periodic(params)
print(f"periodic R0 = {result.value:.6f}")
print(f"rho(Phi_F-G(P)) = {result.rho_at_one:.4f} "
      f"(same side of 1 as R0: {(result.value > 1) == (result.rho_at_one > 1)})")
# one evaluation, at lambda = 1, when the enclosure certifies the bracket;
# three, lambda = 1 and one batched integration of the pair, when the monodromy has to
print(f"bracket width {result.bracket[1] - result.bracket[0]:.1e} "
      f"after {result.iterations} spectral-radius evaluations")
print(f"Collatz-Wielandt enclosure {result.enclosure}")

# The curve lambda -> rho is continuous and nonincreasing; R0 is its unit
# crossing. Plot it on a log-lambda grid around the certified value, all
# 25 points from one batched integration.
cfg = IntegratorConfig.spectral()
lin = build_linearization(params)
lams = np.geomspace(result.value / 8.0, result.value * 8.0, 25)
rhos = rho_for_lambda(lin, lams, cfg)
panel = Panel(title="spectral radius vs lambda", x_label="lambda",
              y_label="rho of one-period monodromy",
              series=(Series(lams, rhos, "rho(lambda)"),
                      Series(lams, np.ones_like(lams), "1")))
write_panels(OUT / "rho_curve.svg", [panel], n_cols=1)
print("wrote rho_curve.svg")

# With the amplitudes switched off the same machinery reproduces the
# autonomous closed form.
autonomous = ModelParameters(
    angular_frequency=OMEGA,
    mu=SinusoidalCoefficient(0.1, 0.0),
    beta=SinusoidalCoefficient(0.3, 0.0),
    d=SinusoidalCoefficient(0.01, 0.0),
    k=0.2, delta=0.1, p=0.5, c=0.1, c1=0.1, c2=0.1)
closed = r0_autonomous(mu=0.1, beta=0.3, d=0.01, k=0.2, delta=0.1,
                       p=0.5, c=0.1, c1=0.1)
certified = r0_periodic(autonomous).value
print(f"autonomous closed form {closed:.8f} vs certified R0 {certified:.8f} "
      f"(rel dev {abs(closed - certified) / closed:.1e})")

# Sweeping the mean infection rate across its critical value flips the
# simulated regime exactly where R0 crosses 1.
base = ModelParameters(
    angular_frequency=OMEGA,
    mu=params.mu, d=params.d,
    beta=SinusoidalCoefficient(0.004, 0.0004),
    k=0.2, delta=0.1, p=0.5, c=0.1, c1=0.1, c2=0.1)
rows = sweep(base, "beta.mean", [0.001, 0.002, 0.01, 0.02], 2400.0,
             IntegratorConfig.simulation())
print("\nbeta.mean      R0        regime")
for row in rows:
    print(f"{row.value:<12} {row.r0:<9.4f} {row.regime}")
