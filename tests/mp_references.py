"""30-digit reference values of R0 from Hill's method in mpmath.

    PYTHONPATH=src python -m tests.mp_references

prints `tests/helpers.py`'s MP_R0 and each set's time. pytest does not
collect this module, and no tier-1 test imports it: CI installs mpmath
only for the step that runs it, on one Python version, and checks that
its MP_R0 is `tests/helpers.py`'s literal for literal.

The method, at 32 digits, on the exponential basis e^{i n w t}, |n| <= N:
- d = d0 + d1 sin w t multiplies by a tridiagonal matrix, so each
  S_x = d/dt + x + d(t) is tridiagonal, and S_V = d/dt + c diagonal;
- T* solves the banded system S_0 T = mu-hat at T_STAR_ORDER, by Thomas'
  algorithm (S_x is strictly diagonally dominant, |x + d0| > d1);
- f = beta T*/(1 + c1 T*) is sampled on NODES uniform nodes, and its
  coefficients are their DFT;
- K = p k S_V^-1 S_I^-1 S_E^-1 F, F the Toeplitz matrix of f's
  coefficients, and R0 is K's top eigenvalue (mpmath's `eig`).
N grows by 4 from 8 until two values agree within 1e-31 relative.
"""

from __future__ import annotations

import time

import mpmath as mp

from perivir.cli import load_config

from .conftest import CONFIG_DIR
from .helpers import flat_mu_wide_d_params

DIGITS = 32
NODES = 256
T_STAR_ORDER = 48
MAX_ORDER = 40


def _tridiagonal_solve(sub, diag, sup, rhs):
    """x with sub x[i-1] + diag[i] x[i] + sup x[i+1] = rhs[i], |i| <= len(diag) // 2."""
    n = len(diag)
    c, y = [mp.mpc(0)] * n, [mp.mpc(0)] * n
    for i in range(n):
        den = diag[i] - (sub * c[i - 1] if i else 0)
        c[i] = sup / den
        y[i] = (rhs[i] - (sub * y[i - 1] if i else 0)) / den
    x = [mp.mpc(0)] * n
    for i in reversed(range(n)):
        x[i] = y[i] - (c[i] * x[i + 1] if i < n - 1 else 0)
    return x


def _operator(params, x, order):
    """(sub, diag, sup) of S_x = d/dt + x + d(t) on |n| <= order; sub multiplies a_{n-1}."""
    w, d0, d1 = (mp.mpf(v) for v in (params.angular_frequency, params.d.mean, params.d.amplitude))
    diag = [mp.mpc(x + d0, n * w) for n in range(-order, order + 1)]
    return d1 / mp.mpc(0, 2), diag, -d1 / mp.mpc(0, 2)


def _f_coefficients(params):
    """f = beta T*/(1 + c1 T*)'s coefficients, n -> f_n, from the DFT of its NODES samples."""
    mu0, mu1 = mp.mpf(params.mu.mean), mp.mpf(params.mu.amplitude)
    mu_hat = [mp.mpc(0)] * (2 * T_STAR_ORDER + 1)
    mu_hat[T_STAR_ORDER] = mp.mpc(mu0)
    mu_hat[T_STAR_ORDER + 1], mu_hat[T_STAR_ORDER - 1] = mu1 / mp.mpc(0, 2), -mu1 / mp.mpc(0, 2)
    sub, diag, sup = _operator(params, 0, T_STAR_ORDER)
    t_hat = _tridiagonal_solve(sub, diag, sup, mu_hat)
    roots = [mp.expjpi(mp.mpf(2 * k) / NODES) for k in range(NODES)]  # e^{2 pi i k/NODES}
    b0, b1, c1 = (mp.mpf(v) for v in (params.beta.mean, params.beta.amplitude, params.c1))
    samples = []
    for j in range(NODES):
        t_star = mp.re(mp.fsum(t_hat[n + T_STAR_ORDER] * roots[(n * j) % NODES]
                               for n in range(-T_STAR_ORDER, T_STAR_ORDER + 1)))
        samples.append((b0 + b1 * mp.im(roots[j])) * t_star / (1 + c1 * t_star))
    return {n: mp.fsum(s * roots[(-n * j) % NODES] for j, s in enumerate(samples)) / NODES
            for n in range(-NODES // 2 + 1, NODES // 2)}


def _hill_value(params, f_hat, order):
    """K's top eigenvalue at order harmonics; it must be real."""
    size, cols = 2 * order + 1, []
    e_op, i_op = _operator(params, params.k, order), _operator(params, params.delta, order)
    w, c = mp.mpf(params.angular_frequency), mp.mpf(params.c)
    scale = mp.mpf(params.p) * mp.mpf(params.k)
    for m in range(-order, order + 1):
        col = [f_hat[n - m] for n in range(-order, order + 1)]
        col = _tridiagonal_solve(*e_op, col)
        col = _tridiagonal_solve(*i_op, col)
        cols.append([scale * v / mp.mpc(c, n * w) for n, v in zip(range(-order, order + 1), col)])
    k = mp.matrix(size, size)
    for j, col in enumerate(cols):
        for i, v in enumerate(col):
            k[i, j] = v
    top = max(mp.eig(k, left=False, right=False), key=abs)
    if abs(mp.im(top)) > mp.mpf(10) ** (4 - DIGITS) * abs(top):
        raise ArithmeticError(f"top eigenvalue {top} is not real")
    return mp.re(top)


def r0_reference(params):
    """R0 of params to about 30 digits: Hill's value once two orders 4 apart agree."""
    with mp.workdps(DIGITS):
        f_hat, previous = _f_coefficients(params), None
        for order in range(8, MAX_ORDER + 1, 4):
            value = _hill_value(params, f_hat, order)
            if previous is not None and abs(value - previous) <= mp.mpf(10) ** -31 * value:
                return value
            previous = value
    raise ArithmeticError(f"no two orders agree within 1e-31 up to {MAX_ORDER}")


def reference_sets():
    """name -> ModelParameters: the three shipped configs and flat_mu_wide_d_params()."""
    sets = {name: load_config(str(CONFIG_DIR / f"{name}.ini")).params
            for name in ("baseline", "extinction", "persistence")}
    sets["flat-mu-wide-d"] = flat_mu_wide_d_params()
    return sets


def main() -> None:
    print("MP_R0 = {")
    for name, params in reference_sets().items():
        start = time.perf_counter()
        value = r0_reference(params)
        print(f"    {name!r}: {mp.nstr(value, 30)!r},  # {time.perf_counter() - start:.1f} s")
    print("}")


if __name__ == "__main__":
    main()
