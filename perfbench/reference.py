"""Correctness gates with references that use scipy and numpy only, never perivir.

rho(lambda) is the spectral radius of the one-period monodromy of
w' = (F(t)/lambda - G(t)) w, integrated by scipy's DOP853 at rtol 1e-12
with T*(t) integrated alongside from its periodic initial value (a
quadrature of the integrating-factor formula). The periodic R0 is the
lambda at which rho = 1 (Wang & Zhao 2008), and sign(R0 - 1) equals
sign(rho(1) - 1).
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
from scipy.integrate import quad, solve_ivp

RTOL, ATOL = 1e-12, 1e-14
RHO_TOL = 1e-6          # |rho(R0) - 1|
CLOSED_FORM_TOL = 1e-6  # relative, zero-amplitude sets
ORBIT_TOL = 1e-6        # relative closure of the returned orbit state


def _coef(pair, omega, t):
    mean, amp = pair
    return mean + amp * math.sin(omega * t)


def _period(ps):
    return 2.0 * math.pi / ps["omega"]


def tstar0(ps) -> float:
    """Periodic T*(0) of T' = mu(t) - d(t) T by quadrature."""
    w, P = ps["omega"], _period(ps)
    d0, da = ps["d"]

    def D(t):
        return d0 * t + (da / w) * (1.0 - math.cos(w * t))

    integral, _ = quad(lambda s: _coef(ps["mu"], w, s) * math.exp(D(s)), 0.0, P,
                       epsabs=0.0, epsrel=1e-13, limit=200)
    decay = math.exp(-D(P))
    return decay * integral / (1.0 - decay)


def rho(ps, lam: float, t0: float) -> float:
    """Spectral radius of the monodromy of (F/lam - G), T* integrated alongside."""
    w = ps["omega"]
    k, delta, p, c, c1 = ps["k"], ps["delta"], ps["p"], ps["c"], ps["c1"]

    def f(t, y):
        T = y[0]
        mu, beta, d = (_coef(ps[n], w, t) for n in ("mu", "beta", "d"))
        a = np.array([[-(k + d), 0.0, beta * T / (1.0 + c1 * T) / lam],
                      [k, -(delta + d), 0.0],
                      [0.0, p, -c]])
        return np.concatenate(([mu - d * T], (a @ y[1:].reshape(3, 3)).ravel()))

    y0 = np.concatenate(([t0], np.eye(3).ravel()))
    sol = solve_ivp(f, (0.0, _period(ps)), y0, method="DOP853", rtol=RTOL, atol=ATOL)
    if not sol.success:
        raise RuntimeError(f"reference monodromy failed: {sol.message}")
    return float(np.max(np.abs(np.linalg.eigvals(sol.y[1:, -1].reshape(3, 3)))))


def closed_form(ps) -> float:
    mu, beta, d = ps["mu"][0], ps["beta"][0], ps["d"][0]
    return (ps["p"] * beta * ps["k"] * mu
            / (ps["c"] * (d + ps["delta"]) * (d + ps["k"]) * (d + ps["c1"] * mu)))


def _model_with_variations(ps):
    w = ps["omega"]
    k, delta, p, c, c1, c2 = (ps[n] for n in ("k", "delta", "p", "c", "c1", "c2"))

    def f(t, y):
        T, E, I, V = y[:4]
        mu, beta, d = (_coef(ps[n], w, t) for n in ("mu", "beta", "d"))
        qT, qV = 1.0 + c1 * T, 1.0 + c2 * V
        inc = beta * T * V / (qT * qV)
        di_dT = beta * V / (qT * qT * qV)
        di_dV = beta * T / (qT * qV * qV)
        jac = np.array([[-di_dT - d, 0.0, 0.0, -di_dV],
                        [di_dT, -(k + d), 0.0, di_dV],
                        [0.0, k, -(delta + d), 0.0],
                        [0.0, 0.0, p, -c]])
        dy = [mu - inc - d * T, inc - (k + d) * E, k * E - (delta + d) * I, p * I - c * V]
        return np.concatenate((dy, (jac @ y[4:].reshape(4, 4)).ravel()))

    return f


def _json_line(stdout: str) -> dict:
    return json.loads([ln for ln in stdout.splitlines() if ln.startswith("{")][-1])


# -- gates: each returns a list of (gate, detail) failures -----------------

def gate_r0(op, stdout: str) -> list:
    ps, out = op["params"], _json_line(stdout)
    r0, lo, hi = out["r0"], out["bracket"][0], out["bracket"][1]
    t0 = tstar0(ps)
    fails = []
    rho_r0 = rho(ps, r0, t0)
    if not abs(rho_r0 - 1.0) <= RHO_TOL:
        fails.append(("r0.rho", f"|rho(R0) - 1| = {abs(rho_r0 - 1.0):.3e} at R0 {r0!r}"))
    if ps["mu"][1] == ps["beta"][1] == ps["d"][1] == 0.0:
        ref = closed_form(ps)
        if not abs(r0 - ref) <= CLOSED_FORM_TOL * ref:
            fails.append(("r0.closed_form", f"R0 {r0!r} vs closed form {ref!r}"))
    if (r0 > 1.0) != (out["rho_at_one"] > 1.0):
        fails.append(("r0.sign", f"R0 {r0!r} but rho_at_one {out['rho_at_one']!r}"))
    if not (lo <= r0 <= hi and rho(ps, lo, t0) >= 1.0 - RHO_TOL
            and rho(ps, hi, t0) <= 1.0 + RHO_TOL):
        fails.append(("r0.bracket", f"bracket [{lo!r}, {hi!r}] does not straddle the root"))
    return fails


def gate_sweep(op, csv_text: str) -> tuple[list, int, int]:
    """Failures plus (verdicts, decisive verdicts) for the sweep's rows."""
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    if len(rows) != 1:
        return [("sweep.rows", f"expected 1 row, got {len(rows)}")], 0, 0
    row = rows[0]
    if row["error"]:
        return [("sweep.row", row["error"])], 0, 0
    ps = dict(op["params"], beta=(float(row["value"]), op["params"]["beta"][1]))
    t0 = tstar0(ps)
    fails = []
    r0 = float(row["r0"])
    rho_r0 = rho(ps, r0, t0)
    if not abs(rho_r0 - 1.0) <= RHO_TOL:
        fails.append(("sweep.r0", f"|rho(R0) - 1| = {abs(rho_r0 - 1.0):.3e} at R0 {r0!r}"))
    above = rho(ps, 1.0, t0) > 1.0
    regime = row["regime"]
    if (regime == "Extinction" and above) or (regime == "Persistence" and not above):
        fails.append(("sweep.verdict", f"{regime} but reference R0 {'>' if above else '<'} 1"))
    return fails, 1, int(regime != "Indeterminate")


def gate_orbit(op, stdout: str) -> list:
    ps, out = op["params"], _json_line(stdout)
    x = np.array(out["initial_state"])
    y0 = np.concatenate((x, np.eye(4).ravel()))
    sol = solve_ivp(_model_with_variations(ps), (0.0, _period(ps)), y0,
                    method="DOP853", rtol=RTOL, atol=ATOL)
    if not sol.success:
        return [("orbit.reference", sol.message)]
    end = sol.y[:, -1]
    fails = []
    gap = float(np.max(np.abs(end[:4] - x)) / np.max(np.abs(x)))
    if not gap <= ORBIT_TOL:
        fails.append(("orbit.closure", f"one-period flow misses the state by {gap:.3e} relative"))
    ref_max = float(np.max(np.abs(np.linalg.eigvals(end[4:].reshape(4, 4)))))
    if out["stable"] != (ref_max < 1.0):
        fails.append(("orbit.stability", f"stable={out['stable']} but reference max|m| {ref_max!r}"))
    return fails
