"""Shared parameter factories and independent reference implementations.

The oracles here deliberately avoid the library's own code paths: the
matrix exponential is plain scaling-and-squaring Taylor summation, the
spectral radius oracle is power iteration, the vector-field oracles are
a scalar transcription of the four model equations and a per-column-view
formulation for batches, and the R0 search oracle is plain doubling and
bisection on the library's rho(lambda).
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

from perivir import (
    IntegratorConfig,
    ModelParameters,
    SinusoidalCoefficient,
    build_linearization,
    rho_for_lambda,
)

OMEGA = 2.0 * math.pi / 24.0


def table_coefficients(amps: float = 1.0, beta_scale: float = 1.0,
                       omega: float = OMEGA):
    """The standard circadian coefficient constants, optionally rescaled."""
    mu = SinusoidalCoefficient(0.1, 0.05 * amps, omega)
    beta = SinusoidalCoefficient(0.3 * beta_scale, 0.1 * amps * beta_scale, omega)
    d = SinusoidalCoefficient(0.01, 0.005 * amps, omega)
    return mu, beta, d


def baseline_params(amps: float = 1.0, beta_scale: float = 1.0) -> ModelParameters:
    mu, beta, d = table_coefficients(amps=amps, beta_scale=beta_scale)
    return ModelParameters(mu=mu, beta=beta, d=d, k=0.2, delta=0.09, p=0.5,
                           c=0.18, c1=0.1, c2=0.1)


def persistence_params(amps: float = 1.0) -> ModelParameters:
    mu, beta, d = table_coefficients(amps=amps)
    return ModelParameters(mu=mu, beta=beta, d=d, k=0.2, delta=0.1, p=0.5,
                           c=0.1, c1=0.1, c2=0.1)


def rescaled_extinction_params() -> ModelParameters:
    """Baseline constants with the infection rate divided by 100 (R0 < 1)."""
    return baseline_params(beta_scale=0.01)


def skewed_params() -> ModelParameters:
    """Amplitudes out of proportion so T*(t) genuinely varies over the period."""
    return ModelParameters(
        mu=SinusoidalCoefficient(0.1, 0.03, OMEGA),
        beta=SinusoidalCoefficient(0.3, 0.05, OMEGA),
        d=SinusoidalCoefficient(0.01, 0.004, OMEGA),
        k=0.2, delta=0.1, p=0.5, c=0.1, c1=0.1, c2=0.1)


def zero_beta_params() -> ModelParameters:
    mu, _, d = table_coefficients()
    return ModelParameters(mu=mu, beta=SinusoidalCoefficient(0.0, 0.0, OMEGA),
                           d=d, k=0.2, delta=0.09, p=0.5, c=0.18, c1=0.1, c2=0.1)


def beta_at_threshold(mu0, d0, k, delta, p, c, c1) -> float:
    """Mean infection rate putting the autonomous reproduction number at 1."""
    return c * (d0 + delta) * (d0 + k) * (d0 + c1 * mu0) / (p * k * mu0)


def random_rate_set(rng: np.random.Generator) -> dict:
    """Random scalar rates within the model's usual magnitudes (all <= ~0.6/h)."""
    return {
        "mu0": rng.uniform(0.02, 0.3),
        "d0": rng.uniform(0.005, 0.05),
        "k": rng.uniform(0.05, 0.6),
        "delta": rng.uniform(0.02, 0.6),
        "p": rng.uniform(0.1, 0.6),
        "c": rng.uniform(0.05, 0.6),
        "c1": rng.uniform(0.0, 0.3),
        "c2": rng.uniform(0.0, 0.3),
    }


def random_autonomous_params(rng: np.random.Generator):
    """Random zero-amplitude parameter set with R0 spread around 1 (log-uniform)."""
    r = random_rate_set(rng)
    beta_c = beta_at_threshold(r["mu0"], r["d0"], r["k"], r["delta"], r["p"],
                               r["c"], r["c1"])
    beta0 = beta_c * 10.0 ** rng.uniform(-1.5, 1.5)
    params = ModelParameters(
        mu=SinusoidalCoefficient(r["mu0"], 0.0, OMEGA),
        beta=SinusoidalCoefficient(beta0, 0.0, OMEGA),
        d=SinusoidalCoefficient(r["d0"], 0.0, OMEGA),
        k=r["k"], delta=r["delta"], p=r["p"], c=r["c"], c1=r["c1"], c2=r["c2"])
    return params


def random_periodic_params(rng: np.random.Generator) -> ModelParameters:
    """Random parameter set with nonzero amplitudes, R0 spread around 1."""
    r = random_rate_set(rng)
    beta_c = beta_at_threshold(r["mu0"], r["d0"], r["k"], r["delta"], r["p"],
                               r["c"], r["c1"])
    beta0 = beta_c * 10.0 ** rng.uniform(-1.5, 1.5)
    return ModelParameters(
        mu=SinusoidalCoefficient(r["mu0"], rng.uniform(0.0, 0.9) * r["mu0"], OMEGA),
        beta=SinusoidalCoefficient(beta0, rng.uniform(0.0, 0.9) * beta0, OMEGA),
        d=SinusoidalCoefficient(r["d0"], rng.uniform(0.0, 0.9) * r["d0"], OMEGA),
        k=r["k"], delta=r["delta"], p=r["p"], c=r["c"], c1=r["c1"], c2=r["c2"])


def admissible_periodic(rates: dict, log_r0_factor: float, amps) -> ModelParameters:
    """A periodic parameter set with beta placed log_r0_factor decades from threshold.

    rates is a RATES draw, amps an AMPS draw: each amplitude as a fraction of its mean.
    """
    r = rates
    beta_c = beta_at_threshold(r["mu0"], r["d0"], r["k"], r["delta"], r["p"],
                               r["c"], r["c1"])
    beta0 = beta_c * 10.0 ** log_r0_factor
    return ModelParameters(
        mu=SinusoidalCoefficient(r["mu0"], amps[0] * r["mu0"], OMEGA),
        beta=SinusoidalCoefficient(beta0, amps[1] * beta0, OMEGA),
        d=SinusoidalCoefficient(r["d0"], amps[2] * r["d0"], OMEGA),
        k=r["k"], delta=r["delta"], p=r["p"], c=r["c"], c1=r["c1"], c2=r["c2"])


# hypothesis strategies for admissible_periodic, over random_rate_set's ranges
RATES = st.fixed_dictionaries({
    "mu0": st.floats(0.02, 0.3), "d0": st.floats(0.005, 0.05),
    "k": st.floats(0.05, 0.6), "delta": st.floats(0.02, 0.6),
    "p": st.floats(0.1, 0.6), "c": st.floats(0.05, 0.6),
    "c1": st.floats(0.0, 0.3), "c2": st.floats(0.0, 0.3),
})
AMPS = st.tuples(*(st.floats(0.0, 0.9) for _ in range(3)))


def closed_form_r0(params: ModelParameters) -> float:
    """The autonomous formula evaluated on the coefficient means."""
    mu0, beta0, d0 = params.mu.mean, params.beta.mean, params.d.mean
    return (params.p * beta0 * params.k * mu0) / (
        params.c * (d0 + params.delta) * (d0 + params.k) * (d0 + params.c1 * mu0))


def bisection_root(rho, tol: float, max_steps: int = 60):
    """Unit crossing of a nonincreasing rho by doubling from 1, then bisection.

    Returns (lo, hi, evaluations) with rho(lo) >= 1 >= rho(hi) and
    hi - lo <= tol (or the interval at floating resolution).
    """
    rho_one = rho(1.0)
    evals = 1
    if rho_one == 1.0:
        return 1.0, 1.0, evals
    if rho_one > 1.0:
        lo, hi = 1.0, 2.0
        for _ in range(max_steps):
            evals += 1
            if rho(hi) <= 1.0:
                break
            lo, hi = hi, 2.0 * hi
        else:
            raise RuntimeError("no upper bracket")
    else:
        lo, hi = 0.5, 1.0
        for _ in range(max_steps):
            evals += 1
            if rho(lo) >= 1.0:
                break
            lo, hi = 0.5 * lo, lo
        else:
            raise RuntimeError("no lower bracket")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        evals += 1
        if rho(mid) >= 1.0:
            lo = mid
        else:
            hi = mid
    return lo, hi, evals


def bisection_r0(params: ModelParameters, tol: float = 1e-8, cfg=None):
    """R0 by the doubling-plus-bisection search: (value, (lo, hi), evaluations)."""
    cfg = IntegratorConfig.spectral() if cfg is None else cfg
    lin = build_linearization(params)
    lo, hi, evals = bisection_root(lambda lam: rho_for_lambda(lin, lam, cfg), tol)
    return 0.5 * (lo + hi), (lo, hi), evals


def expm_reference(A: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring Taylor matrix exponential, independent of the integrator."""
    A = np.asarray(A, dtype=float)
    norm = float(np.max(np.sum(np.abs(A), axis=1)))
    s = max(0, int(math.ceil(math.log2(norm))) + 1) if norm > 0 else 0
    B = A / (2.0 ** s)
    n = A.shape[0]
    term = np.eye(n)
    total = np.eye(n)
    for i in range(1, 40):
        term = term @ B / i
        total = total + term
        if float(np.max(np.abs(term))) < 1e-20:
            break
    for _ in range(s):
        total = total @ total
    return total


def power_iteration_radius(M: np.ndarray, iters: int = 10000) -> float:
    """Perron root of a nonnegative matrix by plain power iteration."""
    M = np.asarray(M, dtype=float)
    v = np.ones(M.shape[0])
    lam = 0.0
    for _ in range(iters):
        w = M @ v
        lam = float(np.max(np.abs(w)))
        if lam == 0.0:
            return 0.0
        v = w / lam
    return lam


def rhs_by_hand(t: float, y, params: ModelParameters):
    """Scalar transcription of the four model equations, plain floats only."""
    T, E, I, V = (float(v) for v in y)
    w = params.angular_frequency
    mu_t = params.mu.mean + params.mu.amplitude * math.sin(w * t)
    beta_t = params.beta.mean + params.beta.amplitude * math.sin(w * t)
    d_t = params.d.mean + params.d.amplitude * math.sin(w * t)
    inc = beta_t * T * V / ((1.0 + params.c1 * T) * (1.0 + params.c2 * V))
    return np.array([
        mu_t - inc - d_t * T,
        inc - (params.k + d_t) * E,
        params.k * E - (params.delta + d_t) * I,
        params.p * I - params.c * V,
    ])


def rhs_column_views(t, y, params: ModelParameters):
    """The model vector field on (..., 4) states through per-column views.

    Each component is read as y[..., j] and the result is stacked on the
    last axis: the same arithmetic in the same order as `model.rhs`, but
    on 0-d views for a single state, so it serves as a bitwise oracle for
    the unpacked formulation.
    """
    y = np.asarray(y, dtype=float)
    T = y[..., 0]
    E = y[..., 1]
    I = y[..., 2]
    V = y[..., 3]
    mu_t = params.mu.value(t)
    beta_t = params.beta.value(t)
    d_t = params.d.value(t)
    inc = beta_t * T * V / ((1.0 + params.c1 * T) * (1.0 + params.c2 * V))
    dT = mu_t - inc - d_t * T
    dE = inc - (params.k + d_t) * E
    dI = params.k * E - (params.delta + d_t) * I
    dV = params.p * I - params.c * V
    return np.stack([dT, dE, dI, dV], axis=-1)


def fd_jacobian(f, t: float, y: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a vector field with respect to the state."""
    y = np.asarray(y, dtype=float)
    n = len(y)
    cols = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        cols.append((np.asarray(f(t, y + e)) - np.asarray(f(t, y - e))) / (2.0 * h))
    return np.column_stack(cols)


def count_calls(monkeypatch, module, name: str) -> list:
    """Wrap module.name for the test; each call appends its positional args to the returned list."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls
