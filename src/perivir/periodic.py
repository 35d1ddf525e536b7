"""Periodic solutions: the virus-free orbit, the Poincare map, and shooting.

With no virus present the healthy-cell density obeys the scalar linear
equation dT/dt = mu(t) - d(t)*T, which has exactly one periodic solution
T*(t); (T*(t), 0, 0, 0) is the virus-free periodic orbit of the full
model. T* is computed both in closed form (integrating factor plus
quadrature) and numerically (fixed point of the scalar period map), and
the two routes cross-check each other.

Interior (endemic) periodic orbits are located as fixed points of the
full Poincare map by Newton shooting, with the Newton Jacobian taken from
the variational equation integrated along the trajectory rather than from
finite differences of the map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .integrate import IntegratorConfig, NumericalFailure, integrate
from .model import (
    ModelParameters,
    State,
    clamp_small_negatives,
    incidence,
    incidence_partials,
    vector_field,
)

__all__ = [
    "DegenerateDecay",
    "NewtonDiverged",
    "ConvergedToBoundary",
    "VirusFreeSolution",
    "PeriodicOrbit",
    "virus_free_closed_form",
    "virus_free_numeric",
    "poincare_map",
    "find_periodic_orbit",
    "warm_start_guess",
    "floquet_multipliers",
]

ORBIT_SAMPLES = 256
TSTAR_SAMPLES = 512
MAX_NEWTON_ITERS = 30


class DegenerateDecay(ValueError):
    """The death rate integrates to too little over one period for T* to exist."""


class NewtonDiverged(NumericalFailure):
    """Shooting residual grew or the iteration budget ran out."""


class ConvergedToBoundary(NumericalFailure):
    """Newton or the warm start collapsed onto the virus-free orbit: no interior orbit found."""


@dataclass(frozen=True)
class VirusFreeSolution:
    """One-period sampling of T*(t) on a uniform grid over [0, P]."""

    t_star_initial: float
    times: np.ndarray
    values: np.ndarray
    period: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if not np.all((self.values > 0.0) & (self.values < math.inf)):  # nan fails
            raise ValueError("T* must be finite and strictly positive at every sample")
        wrap = abs(self.values[-1] - self.values[0])
        if wrap > 1e-8 * max(1.0, abs(self.values[0])):
            raise ValueError("T* samples do not close up over one period")
        object.__setattr__(self, "_samples", tuple(self.values.tolist()))

    def value(self, t):
        """T*(t) by cubic Lagrange interpolation, extended periodically.

        A number or a 0-d array gives a float. Any other array-like gives
        an array of its shape, each element through the same formula.
        """
        if not isinstance(t, (float, int)):
            t = np.asarray(t, dtype=float)
            if t.ndim:
                return np.array([self._at(x) for x in t.ravel().tolist()]).reshape(t.shape)
            t = float(t)
        return self._at(t)

    def _at(self, t: float) -> float:
        values = self._samples
        n = len(values) - 1
        s = (t % self.period) * (n / self.period)
        i = min(int(s), n - 1)
        th = s - i
        w_m1 = -th * (th - 1.0) * (th - 2.0) / 6.0
        w_0 = (th + 1.0) * (th - 1.0) * (th - 2.0) / 2.0
        w_1 = -(th + 1.0) * th * (th - 2.0) / 2.0
        w_2 = (th + 1.0) * th * (th - 1.0) / 6.0
        return (w_m1 * values[(i - 1) % n] + w_0 * values[i]
                + w_1 * values[(i + 1) % n] + w_2 * values[(i + 2) % n])


@dataclass(frozen=True)
class PeriodicOrbit:
    """A located periodic solution of the full system.

    newton_residual is max |flow_P(x) - x| where flow_P is the 20-wide
    state-plus-variational integration that Newton shooting runs: it says
    how well that one discretisation closes on itself, not how far x is
    from the true orbit (the README's numerical notes compare it with the
    closure of poincare_map). states are the clamped 4-wide flow of the
    model from initial_state at times: they close as the plain flow does.

    trace holds one (residual, damping_step) pair per Newton iterate, in
    order: max |flow_P(x) - x| at the iterate and the damping factor s of
    the step x + s*dx taken from it (0.0 on the last, returned iterate,
    from which no step was taken); iterations == len(trace).
    """

    initial_state: State
    times: np.ndarray
    states: np.ndarray
    newton_residual: float
    floquet_multipliers: np.ndarray
    stable: bool
    stability_margin: float
    iterations: int
    trace: tuple[tuple[float, float], ...]


def _death_integral(params: ModelParameters, t):
    """Integral of d over [0, t]; analytic for the single-harmonic form."""
    d, w = params.d, params.angular_frequency
    t = np.asarray(t, dtype=float)
    return d.mean * t + (d.amplitude / w) * (1.0 - np.cos(w * t))


def virus_free_closed_form(params: ModelParameters) -> VirusFreeSolution:
    """T*(t) by the integrating-factor formula.

    T*(t) = e^{-D(t)} (int_0^t mu(s) e^{D(s)} ds + T*(0)) with
    D(t) = int_0^t d and the periodic initial value
    T*(0) = e^{-D(P)} int_0^P mu e^{D} / (1 - e^{-D(P)}). D is analytic
    for sinusoidal d; the remaining integral is composite Simpson on
    2*TSTAR_SAMPLES panels, cumulated at the TSTAR_SAMPLES+1 sample nodes.
    """
    P = params.period
    DP = float(_death_integral(params, P))
    decay = math.exp(-DP)
    if not decay < 1.0:  # D(P) <= 0, or too small for e^{-D(P)} to round below 1
        raise DegenerateDecay(f"death rate integrates to D(P) = {DP!r} over one period; "
                              "e^-D(P) does not fall below 1, so T* is unbounded")

    fine = np.linspace(0.0, P, 2 * TSTAR_SAMPLES + 1)
    g = params.rates(fine)[0] * np.exp(_death_integral(params, fine))
    h2 = P / (2 * TSTAR_SAMPLES)
    panels = (h2 / 3.0) * (g[0:-1:2] + 4.0 * g[1::2] + g[2::2])
    integral = np.concatenate(([0.0], np.cumsum(panels)))

    t0_value = decay * integral[-1] / (1.0 - decay)
    times = fine[::2]
    values = np.exp(-_death_integral(params, times)) * (integral + t0_value)
    return VirusFreeSolution(
        t_star_initial=float(t0_value),
        times=times,
        values=values,
        period=P,
    )


def _healthy_field(params: ModelParameters):
    def f(t, y):
        mu_t, _, d_t = params.rates(t)
        return np.array([mu_t - d_t * y[0]])

    return f


def virus_free_numeric(params: ModelParameters, cfg: IntegratorConfig) -> VirusFreeSolution:
    """T*(t) as the fixed point of the scalar period map.

    The map T(0) -> T(P) of dT/dt = mu(t) - d(t)T is affine: T(P) = a + b T(0)
    with a the image of 0, one integration, and the contraction factor
    b = e^{-D(P)} in closed form (`_death_integral`), so
    T*(0) = a / (1 - b). One more pass over the period collects the samples.
    """
    P = params.period
    f = _healthy_field(params)
    a = float(integrate(f, 0.0, P, [0.0], cfg, t_eval=()).final[0])
    b = math.exp(-float(_death_integral(params, P)))
    if not b < 1.0:
        raise DegenerateDecay(f"period map contraction factor {b} outside [0, 1)")
    t0_value = a / (1.0 - b)

    grid = np.linspace(0.0, P, TSTAR_SAMPLES + 1)
    traj, _ = integrate(f, 0.0, P, [t0_value], cfg, t_eval=grid)
    values = traj.states[:, 0].copy()
    values[-1] = values[0]  # closes up to integration accuracy; make it exact
    return VirusFreeSolution(
        t_star_initial=t0_value,
        times=grid,
        values=values,
        period=P,
    )


def poincare_map(params: ModelParameters, x0, cfg: IntegratorConfig) -> State:
    """Solution of the full system at time P started from x0 at time 0.

    x0 is a State or array-like in the nonnegative cone. Undershoot within
    the integrator's absolute tolerance is clamped to zero in the image.
    """
    return _period_pass(params, x0, cfg)[0]


def _period_pass(params: ModelParameters, x0, cfg: IntegratorConfig) -> tuple[State, float]:
    """poincare_map's image of x0, and the step the integrator proposes for a next pass."""
    sol = integrate(vector_field(params), 0.0, params.period, State.from_array(x0), cfg, t_eval=())
    return State.from_array(clamp_small_negatives(sol.final, cfg.abs_tol)), sol.next_step


def _augmented_field(params: ModelParameters):
    """Vector field for state + fundamental matrix of the variational equation.

    The 20-wide state is (T, E, I, V) followed by the rows of Phi. f.floats
    returns its one float form, written out by hand: it takes and returns
    the state as a list of floats, the state block is `model.rhs`, operation
    for operation, and the Phi block is jacobian(t, y) @ Phi written out on
    the Jacobian's nonzero entries. f on an array returns the same numbers
    as an array.
    """
    w, mu, beta, d = params.angular_frequency, params.mu, params.beta, params.d
    mu0, mu1, beta0, beta1, d0, d1 = (mu.mean, mu.amplitude, beta.mean, beta.amplitude,
                                      d.mean, d.amplitude)
    k, delta, p, c, c1, c2 = params.k, params.delta, params.p, params.c, params.c1, params.c2

    def floats(t, ya):
        # the rows of Phi are (x0..x3), (y0..y3), (z0..z3), (w0..w3)
        T, E, I, V, x0, x1, x2, x3, y0, y1, y2, y3, z0, z1, z2, z3, w0, w1, w2, w3 = ya
        s = math.sin(w * t)  # params.rates(t), without its call and type test
        mu_t, beta_t, d_t = mu0 + mu1 * s, beta0 + beta1 * s, d0 + d1 * s
        kd, dd = k + d_t, delta + d_t
        inc = incidence(beta_t, T, V, c1, c2)
        a, b = incidence_partials(beta_t, T, V, c1, c2)
        j00 = -a - d_t
        # J = [[j00, 0, 0, -b], [a, -kd, 0, b], [0, k, -dd, 0], [0, 0, p, -c]]
        return [mu_t - inc - d_t * T, inc - kd * E, k * E - dd * I, p * I - c * V,
                j00 * x0 - b * w0, j00 * x1 - b * w1, j00 * x2 - b * w2, j00 * x3 - b * w3,
                a * x0 - kd * y0 + b * w0, a * x1 - kd * y1 + b * w1,
                a * x2 - kd * y2 + b * w2, a * x3 - kd * y3 + b * w3,
                k * y0 - dd * z0, k * y1 - dd * z1, k * y2 - dd * z2, k * y3 - dd * z3,
                p * z0 - c * w0, p * z1 - c * w1, p * z2 - c * w2, p * z3 - c * w3]

    def f(t, ya):
        return np.array(floats(t, ya.tolist()))

    f.floats = lambda n: floats
    return f


def _flow_and_monodromy(params: ModelParameters, x: np.ndarray, cfg: IntegratorConfig):
    """One-period flow of x together with the monodromy of the variational equation.

    Returns (end, monodromy): the state at P and Phi(P; x), from one
    20-wide integration that takes no samples.
    """
    ya0 = np.concatenate([x, np.eye(4).ravel()])
    _, ya = integrate(_augmented_field(params), 0.0, params.period, ya0, cfg, t_eval=())
    return ya[:4], ya[4:].reshape(4, 4)


def find_periodic_orbit(params: ModelParameters, guess: State, cfg: IntegratorConfig,
                        newton_tol: float = 1e-10) -> PeriodicOrbit:
    """Newton shooting for a fixed point of the Poincare map.

    Solves g(x) = flow_P(x) - x = 0 with Jacobian Dg = Phi(P; x) - I from
    the variational equation along the trajectory. Damping halves the
    Newton step up to 8 times when the residual does not decrease.

    Every trial point is integrated once, state and variational equation
    together, for its end state and monodromy only: the flow that accepts
    a damped step also supplies the next iterate's residual and Jacobian.
    The returned orbit's samples come from one plain 4-wide flow of the
    model from the returned state (_package_orbit), the only sampled
    integration here.

    Converges when max |g| < newton_tol. When no damped step decreases the
    residual but it already lies within the integrator's own error scale,
    max_i |g_i| / (abs_tol + rel_tol*|x_i|) <= 1, the flow cannot resolve a
    better fixed point and x is returned with its true residual.

    Raises ValueError unless 0 <= newton_tol < inf, ConvergedToBoundary
    when min(E, I, V) is not above the Newton error bound max |dx|, the next
    step's size (the virus-free orbit), and NewtonDiverged when the Jacobian
    is singular, the residual stalls above the integrator's error scale or
    the iteration budget runs out.
    """
    if not 0.0 <= newton_tol < math.inf:  # written so that nan fails
        raise ValueError("newton_tol must be finite and nonnegative")
    x = np.asarray(guess, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("guess must be strictly positive componentwise")

    eye = np.eye(4)
    y_end, mono = _flow_and_monodromy(params, x, cfg)
    g = y_end - x
    res = float(np.max(np.abs(g)))
    trace = []
    for _ in range(MAX_NEWTON_ITERS):
        try:
            dx = np.linalg.solve(mono - eye, -g)
        except np.linalg.LinAlgError as exc:
            raise NewtonDiverged(f"singular shooting Jacobian at residual {res:.3e}") from exc
        if res < newton_tol:
            return _package_orbit(params, x, dx, mono, trace + [(res, 0.0)], cfg)

        step = 1.0
        for _ in range(9):
            x_try = x + step * dx
            y_try, mono_try = _flow_and_monodromy(params, x_try, cfg)
            g_try = y_try - x_try
            res_try = float(np.max(np.abs(g_try)))
            if res_try < res:
                break
            step *= 0.5
        else:
            if np.max(np.abs(g) / (cfg.abs_tol + cfg.rel_tol * np.abs(x))) <= 1.0:
                return _package_orbit(params, x, dx, mono, trace + [(res, 0.0)], cfg)
            raise NewtonDiverged(f"residual stalled at {res:.3e}")
        trace.append((res, step))
        x, mono, g, res = x_try, mono_try, g_try, res_try

    raise NewtonDiverged(f"no convergence within {MAX_NEWTON_ITERS} iterations")


def _package_orbit(params: ModelParameters, x: np.ndarray, dx: np.ndarray,
                   mono: np.ndarray, trace: list, cfg: IntegratorConfig) -> PeriodicOrbit:
    """The orbit at x, sampled by one 4-wide flow of the model from its initial state."""
    bound = float(np.max(np.abs(dx)))  # the next Newton step's size bounds x's error
    if not np.min(x[1:]) > bound:  # written so that nan fails
        raise ConvergedToBoundary(
            f"fixed point has E, I or V within its Newton error bound {bound:.1e} of zero; "
            "this is the virus-free orbit, not an interior one")
    x = clamp_small_negatives(x, cfg.abs_tol)
    times = np.linspace(0.0, params.period, ORBIT_SAMPLES + 1)
    traj, _ = integrate(vector_field(params), 0.0, params.period, x, cfg, t_eval=times)
    multipliers = floquet_multipliers(mono)
    max_mod = float(np.abs(multipliers[0]))
    return PeriodicOrbit(
        initial_state=State.from_array(x),
        times=times,
        states=clamp_small_negatives(traj.states, cfg.abs_tol),
        newton_residual=trace[-1][0],
        floquet_multipliers=multipliers,
        stable=max_mod < 1.0,
        stability_margin=1.0 - max_mod,
        iterations=len(trace),
        trace=tuple(trace),
    )


def warm_start_guess(params: ModelParameters, ic: State, transient: float,
                     cfg: IntegratorConfig) -> State:
    """Iterate the Poincare map from ic until it settles, within a transient budget.

    In the persistence regime trajectories approach the endemic orbit, so
    the iterates enter the Newton basin. They only have to reach that
    basin, since Newton shooting polishes the fixed point at the caller's
    tolerance, so the transient runs at simulation tolerance or looser:
    rel_tol and abs_tol are raised to at least those of
    IntegratorConfig.simulation(), while the step limits stay as given
    (max_steps applies to each pass).

    Each pass is one poincare_map over [0, P], at most floor(transient / P)
    of them; every pass after the first starts from the step size the pass
    before it proposed, not from initial_step. After pass n the change is
    measured in units of that rel_tol,
    delta_n = max_i |x_n,i - x_{n-1},i| / (rel_tol * |x_n,i|), and the
    iteration stops once q = delta_n / delta_{n-1} < 1 and
    delta_n * q / (1 - q) <= 1: the a-posteriori bound on the distance to
    the fixed point of a map contracting by q. A growing change (an
    infection still rising from near the virus-free orbit) never stops it,
    and an infinite one (a component clamped to zero) is no reference for
    the next q. A start on the invariant virus-free face E = I = V = 0
    raises ValueError; a pass that lands on it (E, I and V all clamped to
    zero) raises ConvergedToBoundary, since no later pass can leave it, as
    does a final iterate with a zero component, which Newton cannot start from.
    """
    if not math.isfinite(transient):
        raise ValueError("transient must be finite")
    if ic.e_cells == ic.i_cells == ic.virus == 0.0:
        raise ValueError("ic lies on the invariant virus-free face E = I = V = 0")
    periods = math.floor(transient / params.period)
    if periods < 1:
        raise ValueError("transient must cover at least one period")
    loose = IntegratorConfig.simulation()
    cfg = replace(cfg, rel_tol=max(cfg.rel_tol, loose.rel_tol),
                  abs_tol=max(cfg.abs_tol, loose.abs_tol))
    x = ic.as_array()
    last = np.nan  # no change before the first pass, so q is nan after it
    for n in range(1, periods + 1):
        image, step = _period_pass(params, x, cfg)
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


def floquet_multipliers(monodromy: np.ndarray) -> np.ndarray:
    """Eigenvalues of a monodromy matrix, or of each in a stack, by modulus, largest first."""
    m = np.asarray(monodromy, dtype=float)
    if not np.all(np.isfinite(m)):
        raise ValueError("monodromy matrix must be finite")
    eig = np.linalg.eigvals(m)
    return np.take_along_axis(eig, np.argsort(-np.abs(eig), axis=-1, kind="stable"), axis=-1)
