"""Shared parameter factories and independent reference implementations.

The oracles here deliberately avoid the library's own code paths: the
matrix exponential is plain scaling-and-squaring Taylor summation, the
spectral radius oracle is power iteration, the monodromy radius oracle
reads T* from its interpolant (`combined`) where the library carries T in
the state, T*'s interpolant has a scalar transcription on Python floats,
Hill's R0 computes its Fourier basis per call on the times themselves,
T* and K's solves are tridiagonal on e^{i k w t} (`exponential_operator`),
the Collatz-Wielandt bounds take K u through an integrating factor and
numpy's FFT, R0's slow-forcing limit is a frozen-time growth rate found
by bisection, the vector-field oracles are a scalar transcription of the
four model equations and a per-column-view formulation for batches, and
the R0 search oracle is plain doubling and bisection on the library's
rho(lambda). The float loop's step and its dense output have
list-comprehension transcriptions, value by value and left to right,
which the generated step kernels and the after-the-loop interpolant must
match bit for bit, and the step-size controller a transcription with
min and max and its constants written out, which the stepping loop's
step sizes must match bit for bit. MP_R0 pins R0 at 30 digits from
`tests/mp_references.py`, which needs mpmath; CI checks that it still
prints them.
"""

from __future__ import annotations

import math
from dataclasses import replace
from unittest import mock

import numpy as np
from hypothesis import strategies as st

from perivir import (
    ConvergedToBoundary,
    IntegratorConfig,
    LinearizedSystem,
    ModelParameters,
    NonFiniteState,
    R0Result,
    SinusoidalCoefficient,
    State,
    VirusFreeSolution,
    build_linearization,
    floquet_multipliers,
    integrate_matrix,
    rho_for_lambda,
)
from perivir import periodic, reproduction
from perivir.integrate import _A_ROWS, _C, _D_ROW, _E_ROW

OMEGA = 2.0 * math.pi / 24.0


def table_coefficients(amps: float = 1.0, beta_scale: float = 1.0):
    """The standard circadian coefficient constants, optionally rescaled."""
    mu = SinusoidalCoefficient(0.1, 0.05 * amps)
    beta = SinusoidalCoefficient(0.3 * beta_scale, 0.1 * amps * beta_scale)
    d = SinusoidalCoefficient(0.01, 0.005 * amps)
    return mu, beta, d


def baseline_params(amps: float = 1.0, beta_scale: float = 1.0) -> ModelParameters:
    mu, beta, d = table_coefficients(amps=amps, beta_scale=beta_scale)
    return ModelParameters(angular_frequency=OMEGA, mu=mu, beta=beta, d=d, k=0.2, delta=0.09,
                           p=0.5, c=0.18, c1=0.1, c2=0.1)


def persistence_params(amps: float = 1.0) -> ModelParameters:
    mu, beta, d = table_coefficients(amps=amps)
    return ModelParameters(angular_frequency=OMEGA, mu=mu, beta=beta, d=d, k=0.2, delta=0.1,
                           p=0.5, c=0.1, c1=0.1, c2=0.1)


def flat_mu_wide_d_params() -> ModelParameters:
    """persistence's rates with mu constant and d's amplitude 0.9 of its mean: T* varies."""
    return replace(persistence_params(), mu=SinusoidalCoefficient(0.1, 0.0),
                   d=SinusoidalCoefficient(0.01, 0.009))


# R0 to 30 digits from tests/mp_references.py (32-digit Hill's method in
# mpmath): the three shipped configs and flat_mu_wide_d_params()
MP_R0 = {
    "baseline": "39.4696624197224135218550612428",
    "extinction": "0.394696624197224158474699535558",
    "persistence": "64.6809593984312507691449164467",
    "flat-mu-wide-d": "64.7077802124499240890122547872",
}


def rescaled_extinction_params() -> ModelParameters:
    """Baseline constants with the infection rate divided by 100 (R0 < 1)."""
    return baseline_params(beta_scale=0.01)


def skewed_params() -> ModelParameters:
    """Amplitudes out of proportion so T*(t) genuinely varies over the period."""
    return ModelParameters(
        angular_frequency=OMEGA,
        mu=SinusoidalCoefficient(0.1, 0.03),
        beta=SinusoidalCoefficient(0.3, 0.05),
        d=SinusoidalCoefficient(0.01, 0.004),
        k=0.2, delta=0.1, p=0.5, c=0.1, c1=0.1, c2=0.1)


def zero_beta_params() -> ModelParameters:
    mu, _, d = table_coefficients()
    return ModelParameters(angular_frequency=OMEGA, mu=mu, beta=SinusoidalCoefficient(0.0, 0.0),
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
        angular_frequency=OMEGA,
        mu=SinusoidalCoefficient(r["mu0"], 0.0),
        beta=SinusoidalCoefficient(beta0, 0.0),
        d=SinusoidalCoefficient(r["d0"], 0.0),
        k=r["k"], delta=r["delta"], p=r["p"], c=r["c"], c1=r["c1"], c2=r["c2"])
    return params


def random_periodic_params(rng: np.random.Generator) -> ModelParameters:
    """Random parameter set with nonzero amplitudes, R0 spread around 1."""
    r = random_rate_set(rng)
    beta_c = beta_at_threshold(r["mu0"], r["d0"], r["k"], r["delta"], r["p"],
                               r["c"], r["c1"])
    beta0 = beta_c * 10.0 ** rng.uniform(-1.5, 1.5)
    return ModelParameters(
        angular_frequency=OMEGA,
        mu=SinusoidalCoefficient(r["mu0"], rng.uniform(0.0, 0.9) * r["mu0"]),
        beta=SinusoidalCoefficient(beta0, rng.uniform(0.0, 0.9) * beta0),
        d=SinusoidalCoefficient(r["d0"], rng.uniform(0.0, 0.9) * r["d0"]),
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
        angular_frequency=OMEGA,
        mu=SinusoidalCoefficient(r["mu0"], amps[0] * r["mu0"]),
        beta=SinusoidalCoefficient(beta0, amps[1] * beta0),
        d=SinusoidalCoefficient(r["d0"], amps[2] * r["d0"]),
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


def adiabatic_r0(params: ModelParameters, phases: int = 2048) -> float:
    """lambda_ad, R0's slow-forcing limit: the root of mean_t s(F(t)/lam - G(t)) = 0.

    s is the spectral abscissa of the 3x3 with T* frozen at mu(t)/d(t),
    taken by numpy's eigvals at `phases` uniform times of one period; the
    mean falls as lam grows, and bisection_root finds where exp(mean s)
    crosses 1. No integrator, T* solve or Hill matrix of the library.
    """
    w = params.angular_frequency
    t = np.linspace(0.0, params.period, phases + 1)[:-1]
    mu, beta, d = (_coefficient_at(c, w, t) for c in (params.mu, params.beta, params.d))
    t_star = mu / d
    f = beta * t_star / (1.0 + params.c1 * t_star)
    a = np.zeros((phases, 3, 3))
    a[:, 0, 0], a[:, 1, 1] = -(params.k + d), -(params.delta + d)
    a[:, 1, 0], a[:, 2, 1], a[:, 2, 2] = params.k, params.p, -params.c

    def growth(lam: float) -> float:
        a[:, 0, 2] = f / lam
        return math.exp(float(np.linalg.eigvals(a).real.max(axis=-1).mean()))

    lo, hi, _ = bisection_root(growth, 1e-10)
    return 0.5 * (lo + hi)


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


def combined(lin: LinearizedSystem, lam):
    """t -> F(t)/lam - G(t) of lin: (3, 3) for a number lam, (m, 3, 3) for m lambdas.

    A(t), with T* from `t_star_by_hand` (bitwise its `value`), is the
    oracle that `reproduction._combined_field`, which carries T in its
    state, and the radii built on it are held to.
    """
    params, t_star = lin.params, t_star_by_hand(lin.t_star)
    k, delta, p, c, c1 = params.k, params.delta, params.p, params.c, params.c1
    inv_lam = 1.0 / np.asarray(lam, dtype=float)
    shape = inv_lam.shape + (3, 3)
    constant = np.array([[0.0, 0.0, 0.0], [k, 0.0, 0.0], [0.0, p, -c]])

    def A(t: float) -> np.ndarray:
        _, beta_t, d_t = params.rates(t)
        ts = t_star(t)
        a = np.empty(shape)
        a[...] = constant
        a[..., 0, 0], a[..., 1, 1] = -(k + d_t), -(delta + d_t)
        a[..., 0, 2] = inv_lam * (beta_t * ts / (1.0 + c1 * ts))
        return a

    return A


def recorded_monodromy(lin: LinearizedSystem, lam: float, cfg: IntegratorConfig, wrap=None):
    """(rho, Solution) of one `rho_for_lambda` call; the Solution's final is its end state.

    The end state is lam's monodromy, row-major, then T(P), read by spying
    on `reproduction.integrate` during the call. wrap, when given, hands
    integrate wrap(f) for the run's field f, as perfbench's tracer hands it
    a wrapper without f.floats.
    """
    sols, run = [], reproduction.integrate

    def recorded(f, *args, **kwargs):
        sols.append(run(f if wrap is None else wrap(f), *args, **kwargs))
        return sols[-1]

    with mock.patch.object(reproduction, "integrate", recorded):
        rho = rho_for_lambda(lin, lam, cfg)
    (sol,) = sols
    return rho, sol


def interpolated_t_star_radii(lin, lams, cfg: IntegratorConfig) -> np.ndarray:
    """rho of the one-period monodromy at each of lams, with T* from its cubic interpolant.

    One integrate_matrix stack on combined(lin, lams), which reads T* from
    its nodes, and floquet_multipliers: an oracle apart from
    rho_for_lambda, which carries T in its state. abs_tol is the smallest
    normal float, as there, so errors are relative.
    """
    lams = np.asarray(lams, dtype=float)
    eye = np.broadcast_to(np.eye(3), lams.shape + (3, 3))
    cfg = replace(cfg, abs_tol=np.finfo(float).tiny)
    end = integrate_matrix(combined(lin, lams), 0.0, lin.params.period, eye, cfg).end_matrix
    return np.abs(floquet_multipliers(end)[..., 0])


def exponential_operator(w: float, mean: float, amplitude: float, order: int) -> np.ndarray:
    """d/dt + mean + amplitude sin(w t) on e^{i k w t}, |k| <= order: tridiagonal.

    An oracle apart from `periodic._periodic_operator`'s real basis and
    projected sine: sin couples neighbouring k exactly, so row k is
    (i k w + mean) c_k + amplitude (c_{k-1} - c_{k+1}) / 2i.
    """
    k = np.arange(-order, order + 1)
    return (np.diag(mean + 1j * w * k) + np.diag(np.full(2 * order, amplitude / 2j), -1)
            + np.diag(np.full(2 * order, -amplitude / 2j), 1))


def galerkin_t_star(params: ModelParameters, order: int) -> VirusFreeSolution:
    """T* from a Galerkin solve on e^{i k w t}, |k| <= order, sampled on the TSTAR_SAMPLES nodes.

    The system is `exponential_operator` of d's mean and amplitude, with
    mu's coefficients on the right.
    """
    system = exponential_operator(params.angular_frequency, params.d.mean, params.d.amplitude,
                                  order)
    m0, m1 = params.mu.mean, params.mu.amplitude
    mu_hat = np.zeros(2 * order + 1, dtype=complex)
    mu_hat[order], mu_hat[order + 1], mu_hat[order - 1] = m0, m1 / 2j, -m1 / 2j
    c = np.linalg.solve(system, mu_hat)
    nodes, k = periodic.TSTAR_SAMPLES, np.arange(-order, order + 1)
    values = np.exp(1j * np.outer(2.0 * np.pi * np.arange(nodes) / nodes, k)) @ c
    return VirusFreeSolution(values.real, params.period)


def t_star_by_hand(t_star: VirusFreeSolution):
    """t -> T*(t) from t_star's samples on Python floats: one t, one cubic Lagrange formula.

    Sample j is T*(j P/n) and the grid wraps, so t lands in cell i of the
    period and the weights of samples i-1 .. i+2 are taken at theta = s - i.
    The samples are made a list once, here, not at every t.
    """
    values, period = t_star.values.tolist(), t_star.period
    n = len(values)

    def at(t: float) -> float:
        s = (t % period) * (n / period)
        i = min(int(s), n - 1)
        th = s - i
        w_m1 = -th * (th - 1.0) * (th - 2.0) / 6.0
        w_0 = (th + 1.0) * (th - 1.0) * (th - 2.0) / 2.0
        w_1 = -(th + 1.0) * th * (th - 2.0) / 2.0
        w_2 = (th + 1.0) * th * (th - 1.0) / 6.0
        return (w_m1 * values[(i - 1) % n] + w_0 * values[i]
                + w_1 * values[(i + 1) % n] + w_2 * values[(i + 2) % n])

    return at


def t_star_order(params: ModelParameters) -> int:
    """The order at which virus_free_closed_form settles for params."""
    orders, build = [], periodic._hill_basis

    def spied(nodes, order):
        orders.append(order)
        return build(nodes, order)

    with mock.patch.object(periodic, "_hill_basis", spied):
        periodic.virus_free_closed_form(params)
    return orders[-1]


def refined_linearization(params: ModelParameters) -> LinearizedSystem:
    """params linearized at the galerkin_t_star of twice virus_free_closed_form's order."""
    return LinearizedSystem(t_star=galerkin_t_star(params, 2 * t_star_order(params)),
                            params=params)


def refined_r0(params: ModelParameters, **kwargs) -> R0Result:
    """r0_periodic(params, **kwargs) with its T* replaced by refined_linearization's."""
    t_star = refined_linearization(params).t_star
    with mock.patch.object(reproduction, "virus_free_closed_form", lambda _: t_star):
        return reproduction.r0_periodic(params, **kwargs)


def hill_on_time_grid(lin, tol: float, max_order: int = 64):
    """Hill's R0 with its basis computed per call from cos(outer(t, w m)) on T*'s times.

    The same truncations, convergence test and inverse-iteration solve as
    reproduction._hill_r0, with no cached basis and no phase grid: f and d
    come from lin's T* samples and rates. Returns (value, u, order), order
    the last one tried; (nan, None, order) when unconverged.
    """
    p, t, t_star = lin.params, lin.t_star.times, lin.t_star.values
    _, beta, d = p.rates(t)
    f = beta * t_star / (1.0 + p.c1 * t_star)
    previous, n = math.nan, 8
    while n <= max_order:
        w, eye = p.angular_frequency * np.arange(1, n + 1), np.eye(2 * n + 1)
        phi = np.hstack([np.ones((len(t), 1)), np.cos(np.outer(t, w)), np.sin(np.outer(t, w))])
        weights = np.r_[1.0, np.full(2 * n, 2.0)][:, None] / len(t)
        deriv = np.zeros_like(eye)
        deriv[1:n + 1, n + 1:], deriv[n + 1:, 1:n + 1] = np.diag(w), -np.diag(w)
        s_d = deriv + weights * (phi.T @ (d[:, None] * phi))
        x = weights * (phi.T @ (f[:, None] * phi))
        for s in (s_d + p.k * eye, s_d + p.delta * eye, deriv + p.c * eye):
            x = np.linalg.solve(s, x)
        x *= p.p * p.k
        eig = np.linalg.eigvals(x)
        top = eig[np.argmax(np.abs(eig))]
        value = float(top.real) if top.imag == 0.0 and top.real > 0.0 else math.nan
        if abs(value - previous) <= 0.25 * tol:
            try:
                u = phi @ np.linalg.solve(x - value * eye, eye[0])
            except np.linalg.LinAlgError:
                return value, None, n
            return value, (u if u.sum() > 0.0 else -u), n
        previous, n = value, 2 * n
    return math.nan, None, n // 2


def periodic_solve(h: np.ndarray, rate: float, w: float) -> np.ndarray:
    """The periodic y with y' + rate y = h, both on len(h) uniform nodes of one period.

    Each harmonic m of h's DFT is divided by i m w + rate: exact for a trig
    polynomial of degree below len(h)/2.
    """
    m = np.arange(len(h) // 2 + 1)
    return np.fft.irfft(np.fft.rfft(h) / (rate + 1j * w * m), len(h))


def integrating_factor_bounds(lin: LinearizedSystem, u: np.ndarray) -> tuple[float, float]:
    """(min, max) of (K u)/u on lin's T* nodes, K u through an integrating factor.

    With q = exp((d1/w)(1 - cos w t)) for d = d0 + d1 sin w t,
    (d/dt + x + d(t)) y = g is (d/dt + x + d0)(q y) = q g, so
    K u = p R_c(R_{delta+d0}(k R_{k+d0}(q f u)) / q), each R_a = (d/dt + a)^-1
    a `periodic_solve`: no Galerkin operator of the library. q spans
    e^{2 d1/w}, so rounding grows with the period.
    """
    params, t, t_star = lin.params, lin.t_star.times, lin.t_star.values
    w, d0, k = params.angular_frequency, params.d.mean, params.k
    f = params.rates(t)[1] * t_star / (1.0 + params.c1 * t_star)
    q = np.exp((params.d.amplitude / w) * (1.0 - np.cos(w * t)))
    y = k * periodic_solve(q * f * u, k + d0, w)
    y = params.p * periodic_solve(y, params.delta + d0, w) / q
    ratio = periodic_solve(y, params.c, w) / u
    return float(ratio.min()), float(ratio.max())


def plain_warm_start(params: ModelParameters, ic: State, transient: float,
                     cfg: IntegratorConfig) -> State:
    """warm_start_guess's guess by plain iteration: each pass starts from the last image.

    The same passes, tolerances, step carry, stop rule and boundary exits as
    warm_start_guess, without its extrapolation or its change <= 1 stop
    condition: the iteration the accelerated route must not do worse than.
    """
    periods = math.floor(transient / params.period)
    loose = IntegratorConfig.simulation()
    cfg = replace(cfg, rel_tol=max(cfg.rel_tol, loose.rel_tol),
                  abs_tol=max(cfg.abs_tol, loose.abs_tol))
    x = ic.as_array()
    last = np.nan
    for n in range(1, periods + 1):
        image, step = periodic._period_pass(params, x, cfg)
        if image.e_cells == image.i_cells == image.virus == 0.0:
            raise ConvergedToBoundary(
                f"warm-start pass {n} landed on the virus-free face E = I = V = 0")
        x_next = image.as_array()
        cfg = replace(cfg, initial_step=step)
        with np.errstate(divide="ignore", invalid="ignore"):
            change = np.max(np.abs(x_next - x) / (cfg.rel_tol * np.abs(x_next)))
            q = change / last
            settled = q < 1.0 and change * q / (1.0 - q) <= 1.0
        x, last = x_next, change if np.isfinite(change) else np.nan
        if settled:
            break
    if np.any(x <= 0.0):
        raise ConvergedToBoundary(f"warm start ended with a component at zero after {n} passes")
    return State.from_array(x)


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


def _coefficient_at(coeff: SinusoidalCoefficient, w: float, t):
    """mean + amplitude*sin(w*t) for one coefficient, with its own sine.

    math.sin at a number t (the mean itself at zero amplitude), np.sin on
    an array: independent of `ModelParameters.rates`, which it checks.
    """
    if isinstance(t, (float, int)):
        if coeff.amplitude == 0.0:
            return coeff.mean
        return coeff.mean + coeff.amplitude * math.sin(w * t)
    return coeff.mean + coeff.amplitude * np.sin(w * np.asarray(t, dtype=float))


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
    w = params.angular_frequency
    mu_t, beta_t, d_t = (_coefficient_at(c, w, t) for c in (params.mu, params.beta, params.d))
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


def hide_float_forms(monkeypatch, module) -> list:
    """Wrap module.integrate so that each field reaches integrate without f.floats.

    perfbench's tracer wraps fields so; the float loop then calls the field
    on a numpy array. Each call appends its y0 to the returned list.
    """
    starts, run = [], module.integrate

    def hidden(f, t0, t1, y0, *args, **kwargs):
        starts.append(y0)
        return run(lambda t, y: f(t, y), t0, t1, y0, *args, **kwargs)

    monkeypatch.setattr(module, "integrate", hidden)
    return starts


def spy_t_evals(monkeypatch, module, sample_the_end: bool = False) -> list:
    """Wrap module.integrate; each call appends its t_eval. sample_the_end turns () into [t1]."""
    t_evals = []
    original = module.integrate

    def spy(f, t0, t1, y0, cfg, t_eval=None):
        t_evals.append(t_eval)
        if sample_the_end and t_eval is not None and len(t_eval) == 0:
            t_eval = np.array([t1])
        return original(f, t0, t1, y0, cfg, t_eval=t_eval)

    monkeypatch.setattr(module, "integrate", spy)
    return t_evals


def comprehension_step(field, t, h, ys, k0, atol, rtol, width):
    """One attempted float-loop step written as list comprehensions: the kernel's oracle.

    Returns (y_new, k1, ..., k6, err) for the flat state ys in members of
    `width` values, or raises NonFiniteState as the kernel does.
    """
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65), (a71, a72, a73, a74, a75, a76) = _A_ROWS
    e1, e2, e3, e4, e5, e6, e7 = _E_ROW
    _, c2, c3, c4, c5, c6, c7 = _C
    isfinite = math.isfinite
    try:
        k1 = field(t + c2 * h, [y + h * (a21 * p) for y, p in zip(ys, k0)])
        k2 = field(t + c3 * h, [y + h * (a31 * p + a32 * q)
                                for y, p, q in zip(ys, k0, k1)])
        k3 = field(t + c4 * h, [y + h * (a41 * p + a42 * q + a43 * r)
                                for y, p, q, r in zip(ys, k0, k1, k2)])
        k4 = field(t + c5 * h, [y + h * (a51 * p + a52 * q + a53 * r + a54 * s)
                                for y, p, q, r, s in zip(ys, k0, k1, k2, k3)])
        k5 = field(t + c6 * h, [y + h * (a61 * p + a62 * q + a63 * r + a64 * s + a65 * u)
                                for y, p, q, r, s, u in zip(ys, k0, k1, k2, k3, k4)])
        y_new = [y + h * (a71 * p + a72 * q + a73 * r + a74 * s + a75 * u + a76 * v)
                 for y, p, q, r, s, u, v in zip(ys, k0, k1, k2, k3, k4, k5)]
        k6 = field(t + c7 * h, y_new)
    except ZeroDivisionError:
        raise NonFiniteState(f"state became non-finite near t={t}") from None
    err_vec = [h * (e1 * p + e2 * q + e3 * r + e4 * s + e5 * u + e6 * v + e7 * w)
               for p, q, r, s, u, v, w in zip(k0, k1, k2, k3, k4, k5, k6)]
    if not (all(map(isfinite, y_new)) and all(map(isfinite, err_vec))):
        raise NonFiniteState(f"state became non-finite near t={t}")
    ratios = [e / (atol + rtol * (y if y >= z else z))
              for e, y, z in zip(err_vec, map(abs, ys), map(abs, y_new))]
    worst = 0.0
    for i in range(0, len(ratios), width):
        acc = 0.0
        for e in ratios[i:i + width]:
            acc += e * e
        if acc > worst:
            worst = acc
    return y_new, k1, k2, k3, k4, k5, k6, math.sqrt(worst / width)


# the step-size controller's constants, as the integrator sets them
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _PI_BETA = 0.9, 0.2, 10.0, 0.04
_PI_ALPHA = 0.2 - 0.75 * _PI_BETA


def _pi_factor(err: float, err_old: float, rejected_last: bool) -> float:
    """Step-size factor after an accepted step; at most 1 right after a rejection."""
    fac = (err ** _PI_ALPHA) / (err_old ** _PI_BETA)
    fac = max(_MIN_FACTOR, min(_MAX_FACTOR, _SAFETY / fac if fac > 0.0 else _MAX_FACTOR))
    return min(fac, 1.0) if rejected_last else fac


def controlled_steps(errs, t0: float, t1: float, cfg: IntegratorConfig):
    """The (t, h) of every attempted step, and next_step, by the step-size rule.

    errs are the attempts' error norms in order, each accepted when <= 1.
    The first step tries initial_step; every one is cut to max_step and to
    what is left of [t0, t1]; after it h grows by _pi_factor when accepted
    and by max(0.2, 0.9 * err**-0.17) when rejected. next_step is the h
    proposed after the last accepted step that did not end on t1, at most
    max_step, and initial_step when there was none.
    """
    attempts = []
    t, h = t0, min(cfg.initial_step, t1 - t0)
    next_step, err_old, rejected_last = cfg.initial_step, 1e-4, False
    for err in errs:
        h = min(h, cfg.max_step, t1 - t)
        attempts.append((t, h))
        if err <= 1.0:
            last_leg = h == t1 - t
            t += h
            h *= _pi_factor(err, err_old, rejected_last)
            if not last_leg:
                next_step = h
            err_old, rejected_last = max(err, 1e-4), False
        else:
            h *= max(_MIN_FACTOR, _SAFETY * err ** (-_PI_ALPHA))
            rejected_last = True
    return attempts, min(next_step, cfg.max_step)


def dense_samples_by_hand(steps, grid) -> np.ndarray:
    """The quartic interpolant at every sample of grid, one sample at a time.

    steps are the attempted steps in order, each (t, h, ys, k0, y_new, ks,
    err) with ks = (k1, ..., k6) as flat float lists; those with err <= 1
    were accepted. A sample goes to the first accepted step whose end it
    does not pass (within the loop's 1e-14 relative slack).
    """
    d1, _, d3, d4, d5, d6, d7 = _D_ROW  # k1's weight is zero: no term
    grid = [float(tv) for tv in grid]
    out, idx = [], 0
    for t, h, ys, k0, y_new, (_, k2, k3, k4, k5, k6), err in steps:
        if err > 1.0:
            continue
        t_new = t + h
        hi = idx
        while hi < len(grid) and grid[hi] <= t_new + 1e-14 * max(1.0, abs(t_new)):
            hi += 1
        ydiff = [z - y for y, z in zip(ys, y_new)]
        bspl = [h * p - dy for p, dy in zip(k0, ydiff)]
        r4 = [dy - h * w - b for dy, w, b in zip(ydiff, k6, bspl)]
        r5 = [h * (d1 * p + d3 * r + d4 * s + d5 * u + d6 * v + d7 * w)
              for p, r, s, u, v, w in zip(k0, k2, k3, k4, k5, k6)]
        for tv in grid[idx:hi]:
            th = (tv - t) / h
            th1 = 1.0 - th
            out.append([y + th * (dy + th1 * (b + th * (r + th1 * s)))
                        for y, dy, b, r, s in zip(ys, ydiff, bspl, r4, r5)])
        idx = hi
    assert idx == len(grid)
    return np.array(out)
