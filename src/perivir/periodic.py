"""Periodic solutions: the virus-free orbit, the Poincare map, and shooting.

With no virus present the healthy-cell density obeys the scalar linear
equation dT/dt = mu(t) - d(t)*T, which has exactly one periodic solution
T*(t); (T*(t), 0, 0, 0) is the virus-free periodic orbit of the full
model. T* is computed both spectrally (one Galerkin solve of d/dt + d(t),
the `_periodic_operator` K's three solves share, on Hill's basis
`_hill_basis`) and numerically (fixed point of the scalar period map), and
the two routes cross-check each other.

Interior (endemic) periodic orbits are located as fixed points of the
full Poincare map by Newton shooting, with the Newton Jacobian taken from
the variational equation integrated along the trajectory rather than from
finite differences of the map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache

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
    "UnresolvedTStar",
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
TSTAR_MAX_ORDER = 128       # highest harmonic of T*'s Galerkin solve; 2N+1 < TSTAR_SAMPLES
TSTAR_RESOLUTION = 1e-15    # largest top-quarter harmonic / mean, at most
MAX_NEWTON_ITERS = 30
NEWTON_TOL = 1e-10  # find_periodic_orbit's default shooting residual target
FACE_PASSES = 5  # warm-start passes in a row within abs_tol of E = I = V = 0 that end it


class DegenerateDecay(ValueError):
    """The death rate integrates to too little over one period for T* to exist."""


class UnresolvedTStar(NumericalFailure):
    """T*'s harmonics have not decayed by the highest order its Galerkin solve takes."""


class NewtonDiverged(NumericalFailure):
    """Shooting residual grew or the iteration budget ran out."""


class ConvergedToBoundary(NumericalFailure):
    """Newton or the warm start collapsed onto the virus-free orbit: no interior orbit found."""


@dataclass(frozen=True)
class VirusFreeSolution:
    """T* over one period, read-only: values[j] = T*(j P/M), M = len(values); T*(P) = values[0]."""

    values: np.ndarray
    period: float

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        if not np.all((values > 0.0) & (values < math.inf)):  # nan fails
            raise ValueError("T* must be finite and strictly positive at every sample")
        object.__setattr__(self, "values", *_read_only(values))

    @property
    def times(self) -> np.ndarray:
        """The sample times j P/M, j = 0 .. M-1."""
        return np.linspace(0.0, self.period, len(self.values) + 1)[:-1]

    @property
    def t_star_initial(self) -> float:
        """T*(0)."""
        return float(self.values[0])

    def value(self, t):
        """T*(t) by cubic Lagrange interpolation on four samples around t, extended periodically.

        A float for a number or a 0-d array, else an array of t's shape.
        """
        values, n = self.values, len(self.values)
        s = np.mod(np.asarray(t, dtype=float), self.period) * (n / self.period)
        i = np.minimum(s.astype(int), n - 1)
        th = s - i
        w_m1 = -th * (th - 1.0) * (th - 2.0) / 6.0
        w_0 = (th + 1.0) * (th - 1.0) * (th - 2.0) / 2.0
        w_1 = -(th + 1.0) * th * (th - 2.0) / 2.0
        w_2 = (th + 1.0) * th * (th - 1.0) / 6.0
        out = (w_m1 * values[(i - 1) % n] + w_0 * values[i]
               + w_1 * values[(i + 1) % n] + w_2 * values[(i + 2) % n])
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class PeriodicOrbit:
    """A located periodic solution of the full system.

    newton_residual is max |flow_P(x) - x| for x = initial_state, flow_P the
    model's 4-wide flow at the caller's tolerance (poincare_map's); states
    are that flow at times, clamped. One state-plus-variational flow from x
    at that tolerance gives floquet_multipliers.

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


def _period_decay(params: ModelParameters) -> float:
    """e^{-D(P)}, D(P) = int_0^P d, T's period map contraction; DegenerateDecay unless < 1."""
    d, w, P = params.d, params.angular_frequency, params.period
    DP = float(d.mean * P + (d.amplitude / w) * (1.0 - np.cos(w * P)))
    decay = math.exp(-DP)
    if not decay < 1.0:
        raise DegenerateDecay(f"death rate integrates to D(P) = {DP!r} over one period; "
                              "e^-D(P) does not fall below 1, so T* is unbounded")
    return decay


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """arrays, made unwritable: one copy is read by every caller that holds it."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@cache
def _hill_basis(nodes: int, order: int) -> tuple[np.ndarray, ...]:
    """(phi, weights, deriv, sine) of Hill's method at order on theta_j = 2 pi j/nodes; read-only.

    phi = [1, cos m theta, sin m theta], m = 1..order, is the process's one
    trig table: T*, Hill's R0 and its enclosure (some orders higher) read it
    on the T* nodes. m theta_j is 2 pi (j m mod nodes)/nodes, so phi is
    gathered in place from cos and sin at the nodes' own phases (a stacked
    copy lifted r0_scan's peak RSS). g's coefficients are weights * (g @ phi).
    deriv (d/dtheta, the band +-m) and sine (times sin theta, projected
    once: the band 1, +-1/2) build every `_periodic_operator`.
    """
    turn, phi = (2.0 * math.pi / nodes) * np.arange(nodes), np.empty((nodes, 2 * order + 1))
    jm = np.outer(np.arange(nodes), np.arange(order + 1))
    phi[:, :order + 1] = np.take(np.cos(turn), jm, mode="wrap")
    phi[:, order + 1:] = np.take(np.sin(turn), jm[:, 1:], mode="wrap")
    weights, m = np.r_[1.0, np.full(2 * order, 2.0)] / nodes, np.arange(order + 1.0)
    deriv = np.diag(m, order) - np.diag(m, -order)
    sine = weights[:, None] * (phi.T @ (phi[:, order + 1, None] * phi))
    return _read_only(phi, weights, deriv, sine)


def _periodic_operator(w: float, mean: float, amplitude: float, basis) -> np.ndarray:
    """The matrix of d/dt + mean + amplitude sin(w t) on basis: every periodic solve's S."""
    _, weights, deriv, sine = basis
    return w * deriv + mean * np.eye(len(weights)) + amplitude * sine


def virus_free_closed_form(params: ModelParameters) -> VirusFreeSolution:
    """T*(t) from one Galerkin solve of T' + d(t) T = mu(t) on Hill's basis.

    T*'s coefficients c on `_hill_basis` at order N solve S_d c = mu-hat:
    S_d is the `_periodic_operator` of d's mean and amplitude, and mu-hat
    mu's at 1 and sin w t, with no quadrature. N doubles from 8 until the
    largest harmonic of c's top quarter is at most TSTAR_RESOLUTION of c0,
    up to TSTAR_MAX_ORDER, which the TSTAR_SAMPLES nodes resolve; the
    samples are phi c on them. The coefficients decay geometrically, so the
    solve is exact to rounding at any period (Boyd 2001, ch. 2).

    Raises DegenerateDecay (`_period_decay`, first) and UnresolvedTStar
    when the top quarter is still above that at TSTAR_MAX_ORDER.
    """
    _period_decay(params)
    P, w, d, order = params.period, params.angular_frequency, params.d, 8
    while True:
        basis = _hill_basis(TSTAR_SAMPLES, order)
        mu_hat = np.zeros(2 * order + 1)
        mu_hat[0], mu_hat[order + 1] = params.mu.mean, params.mu.amplitude
        c = np.linalg.solve(_periodic_operator(w, d.mean, d.amplitude, basis), mu_hat)
        top = float(np.hypot(c[1:order + 1], c[order + 1:])[3 * order // 4:].max() / abs(c[0]))
        if top <= TSTAR_RESOLUTION:
            return VirusFreeSolution(basis[0] @ c, P)
        if order == TSTAR_MAX_ORDER:
            raise UnresolvedTStar(f"T* is not resolved at period {P!r} h: at order {order} "
                                  f"its top harmonics reach {top:.1e} of its mean")
        order *= 2


def _healthy_field(params: ModelParameters):
    def f(t, y):
        mu_t, _, d_t = params.rates(t)
        return np.array([mu_t - d_t * y[0]])

    return f


def virus_free_numeric(params: ModelParameters, cfg: IntegratorConfig) -> VirusFreeSolution:
    """T*(t) as the fixed point of the scalar period map.

    The map T(0) -> T(P) of dT/dt = mu(t) - d(t)T is affine: T(P) = a + b T(0)
    with a the image of 0, one integration, and the contraction factor
    b = e^{-D(P)} in closed form (`_period_decay`, first), so
    T*(0) = a / (1 - b). One more pass from T*(0) samples the period's nodes.
    """
    b, P = _period_decay(params), params.period
    f = _healthy_field(params)
    a = float(integrate(f, 0.0, P, [0.0], cfg, t_eval=()).final[0])
    grid = np.linspace(0.0, P, TSTAR_SAMPLES + 1)[:-1]
    traj, _ = integrate(f, 0.0, P, [a / (1.0 - b)], cfg, t_eval=grid)
    return VirusFreeSolution(traj.states[:, 0], P)


def poincare_map(params: ModelParameters, x0, cfg: IntegratorConfig) -> State:
    """Solution of the full system at time P started from x0 at time 0.

    x0 is a State or array-like in the nonnegative cone. Undershoot within
    the integrator's absolute tolerance is clamped to zero in the image.
    """
    return _period_pass(params, x0, cfg)[0]


def _period_pass(params: ModelParameters, x0, cfg: IntegratorConfig) -> tuple[State, float]:
    """poincare_map's image of x0, and the step the integrator proposes for a next pass."""
    x0 = State.from_array(x0).as_array()  # in the cone; an array, as every start here
    sol = integrate(vector_field(params), 0.0, params.period, x0, cfg, t_eval=())
    return State.from_array(clamp_small_negatives(sol.final, cfg.abs_tol)), sol.next_step


def _augmented_field(params: ModelParameters):
    """Vector field for state + fundamental matrix of the variational equation.

    The 20-wide state is (T, E, I, V) followed by the rows of Phi. The
    field is written out by hand and is its own float form, f.floats(n) is
    f: it takes and returns the state as a list of floats, the state block
    is `model.rhs`, operation for operation, and the Phi block is
    jacobian(t, y) @ Phi written out on the Jacobian's nonzero entries.
    """
    w, mu0, mu1, beta0, beta1, d0, d1, k, delta, p, c, c1, c2 = params.flat

    def f(t, ya):
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

    f.floats = lambda n: f
    return f


def _flow_and_monodromy(params: ModelParameters, x: np.ndarray, cfg: IntegratorConfig):
    """One-period flow of x together with the monodromy of the variational equation.

    Returns (end, monodromy): the state at P and Phi(P; x), from one
    20-wide integration that takes no samples.
    """
    ya0 = np.concatenate([x, np.eye(4).ravel()])
    _, ya = integrate(_augmented_field(params), 0.0, params.period, ya0, cfg, t_eval=())
    return ya[:4], ya[4:].reshape(4, 4)


def _loosened(cfg: IntegratorConfig) -> IntegratorConfig:
    """cfg with rel_tol and abs_tol raised to at least those of IntegratorConfig.simulation()."""
    s = IntegratorConfig.simulation()
    return replace(cfg, rel_tol=max(cfg.rel_tol, s.rel_tol), abs_tol=max(cfg.abs_tol, s.abs_tol))


def _newton_step(params: ModelParameters, x: np.ndarray, g: np.ndarray, cfg: IntegratorConfig):
    """The Newton step dx = -(Phi(P; x) - I)^-1 g, and Phi(P; x) from one flow at cfg."""
    _, mono = _flow_and_monodromy(params, x, cfg)
    try:
        return np.linalg.solve(mono - np.eye(4), -g), mono
    except np.linalg.LinAlgError as exc:
        raise NewtonDiverged(
            f"singular shooting Jacobian at residual {np.max(np.abs(g)):.3e}") from exc


def find_periodic_orbit(params: ModelParameters, guess: State, cfg: IntegratorConfig,
                        newton_tol: float = NEWTON_TOL) -> PeriodicOrbit:
    """Newton shooting for a fixed point of the Poincare map.

    Solves g(x) = flow_P(x) - x = 0, flow_P the model's 4-wide flow at cfg
    on the orbit grid, whose samples at the returned point are the orbit's.
    The Jacobian Dg = Phi(P; x) - I is taken at the warm start's tolerance
    (`_loosened`), which slows convergence but does not move the fixed
    point; one variational flow at cfg from the returned point gives the
    multipliers and the error bound. Damping halves the Newton step up to 8
    times when the residual does not decrease.

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

    field, times = vector_field(params), np.linspace(0.0, params.period, ORBIT_SAMPLES + 1)

    def closure(x):  # the samples of x's flow, its residual g and max |g|
        traj, end = integrate(field, 0.0, params.period, x, cfg, t_eval=times)
        return traj.states, end - x, float(np.max(np.abs(end - x)))

    states, g, res = closure(x)
    trace = []
    for _ in range(MAX_NEWTON_ITERS):
        if res < newton_tol:
            break
        dx, _ = _newton_step(params, x, g, _loosened(cfg))
        step = 1.0
        for _ in range(9):
            x_try = x + step * dx
            states_try, g_try, res_try = closure(x_try)
            if res_try < res:
                break
            step *= 0.5
        else:
            if np.max(np.abs(g) / (cfg.abs_tol + cfg.rel_tol * np.abs(x))) <= 1.0:
                break
            raise NewtonDiverged(f"residual stalled at {res:.3e}")
        trace.append((res, step))
        x, states, g, res = x_try, states_try, g_try, res_try
    else:
        raise NewtonDiverged(f"no convergence within {MAX_NEWTON_ITERS} iterations")
    trace.append((res, 0.0))
    dx, mono = _newton_step(params, x, g, cfg)
    bound = float(np.max(np.abs(dx)))  # the next Newton step's size bounds x's error
    if not np.min(x[1:]) > bound:  # written so that nan fails
        raise ConvergedToBoundary(
            f"fixed point has E, I or V within its Newton error bound {bound:.1e} of zero; "
            "this is the virus-free orbit, not an interior one")
    multipliers = floquet_multipliers(mono)
    max_mod = float(np.abs(multipliers[0]))
    return PeriodicOrbit(
        initial_state=State.from_array(x),
        times=times,
        states=clamp_small_negatives(states, cfg.abs_tol),
        newton_residual=res,
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
    tolerance, so the transient runs at `_loosened(cfg)`, the step limits
    as given (max_steps applies to each pass).

    Each pass is one poincare_map G over [0, P], at most floor(transient / P)
    of them; every pass after the first starts from the step size the pass
    before it proposed, not from initial_step. After the pass from x_n the
    change is measured in units of that rel_tol,
    delta_n = max_i |G(x_n)_i - x_n,i| / (rel_tol * |G(x_n)_i|), and the
    iteration stops once q = delta_n / delta_{n-1} < 1, delta_n <= 1 and
    delta_n * q / (1 - q) <= 1: the a-posteriori bound on the distance to
    the fixed point of a map contracting by q. It returns G(x_n). A growing
    change (an infection still rising from near the virus-free orbit) never
    stops it, and an infinite one (a component clamped to zero) is no
    reference for the next q.

    The next pass starts from an Anderson extrapolate (type II, mixing 1,
    Walker & Ni 2011) of the last three starts and their residuals
    r = G(x) - x: G(x_n) - (dX + dR) gamma, with gamma the least-squares
    fit of the residual differences dR to r_n in units of G(x_n), from its
    normal equations. The slow error of the map lies in one complex pair of
    Floquet multipliers, which two differences remove. The history restarts
    whenever q is not below 1, so a rising infection is never extrapolated,
    and the pass starts from G(x_n) itself when the normal equations are
    singular or the extrapolate moves a component by more than half its value.
    After the second pass from an extrapolate that lowered E, I and V
    together and did not shrink the change the passes run plain: such
    extrapolates aim at the map's other fixed point, the virus-free orbit.

    A start on the invariant virus-free face E = I = V = 0 raises
    ValueError; a pass that lands on it (E, I and V all clamped to zero)
    raises ConvergedToBoundary, since no later pass can leave it, as do
    FACE_PASSES passes in a row whose E, I and V all lie within the
    transient's abs_tol of zero, where the flow cannot tell them from the
    face (below threshold they flicker between 0 and noise there), and a
    final image with a zero component, which Newton cannot start from.
    When those are the first FACE_PASSES passes, no pass has resolved the
    infection at all, and the message says so: from a start that close
    to the face, growth above threshold is integrator noise too.
    """
    if not math.isfinite(transient):
        raise ValueError("transient must be finite")
    if ic.e_cells == ic.i_cells == ic.virus == 0.0:
        raise ValueError("ic lies on the invariant virus-free face E = I = V = 0")
    periods = math.floor(transient / params.period)
    if periods < 1:
        raise ValueError("transient must cover at least one period")
    cfg = _loosened(cfg)
    x = ic.as_array()
    xs, rs = [], []  # the last three starts and their residuals G(x) - x, oldest first
    last = np.nan  # no change before the first pass, so q is nan after it
    near_face = 0  # passes in a row with E, I and V within abs_tol of zero
    kept, strikes = None, 0  # the image the extrapolate x replaced; failed ones aimed at the face
    for n in range(1, periods + 1):
        image, step = _period_pass(params, x, cfg)
        if image.e_cells == image.i_cells == image.virus == 0.0:
            raise ConvergedToBoundary(
                f"warm-start pass {n} landed on the virus-free face E = I = V = 0")
        near_face = near_face + 1 if max(image.as_array()[1:]) <= cfg.abs_tol else 0
        if near_face == FACE_PASSES:
            if n == FACE_PASSES:  # no pass has risen above abs_tol
                raise ConvergedToBoundary(
                    f"warm start never resolved the infection: E, I and V stayed within "
                    f"abs_tol {cfg.abs_tol:g} of zero for passes 1-{n}, and growth from a start "
                    f"this close to the virus-free face is below what the loosened transient "
                    f"resolves")
            raise ConvergedToBoundary(
                f"warm start settled on the virus-free orbit: E, I and V stayed within "
                f"abs_tol {cfg.abs_tol:g} of zero for passes {n - FACE_PASSES + 1}-{n}")
        x_next = image.as_array()
        cfg = replace(cfg, initial_step=step)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = x_next - x
            change = np.max(np.abs(r) / (cfg.rel_tol * np.abs(x_next)))
            q = change / last
            if q < 1.0 and change <= 1.0 and change * q / (1.0 - q) <= 1.0:
                break
            if not q < 1.0:  # a first or rising change: nothing to extrapolate from
                xs, rs = [], []
                strikes += kept is not None and bool(np.all(x[1:] < kept[1:]))
            xs, rs = (xs + [x])[-3:], (rs + [r])[-3:]
            x, kept = x_next, None
            if strikes < 2 and len(xs) > 1:
                dx, dr = np.diff(xs, axis=0), np.diff(rs, axis=0)  # one difference a row
                w = dr / np.abs(x_next)  # relative to the image
                # sums, not @: a first matmul maps BLAS buffers, which lifts peak RSS
                normal = (w[:, None] * w[None, :]).sum(axis=-1)
                try:
                    gamma = np.linalg.solve(normal, (w * (r / np.abs(x_next))).sum(axis=-1))
                    trial = x_next - ((dx + dr) * gamma[:, None]).sum(axis=0)
                    if np.all(np.abs(trial - x_next) <= 0.5 * x_next):
                        x, kept = trial, x_next
                except np.linalg.LinAlgError:
                    pass
        last = change if np.isfinite(change) else np.nan
    if np.any(x_next <= 0.0):
        raise ConvergedToBoundary(f"warm start ended with a component at zero after {n} passes")
    return State.from_array(x_next)


def floquet_multipliers(monodromy: np.ndarray) -> np.ndarray:
    """Eigenvalues of a monodromy matrix, or of each in a stack, by modulus, largest first."""
    m = np.asarray(monodromy, dtype=float)
    if not np.all(np.isfinite(m)):
        raise ValueError("monodromy matrix must be finite")
    eig = np.linalg.eigvals(m)
    return np.take_along_axis(eig, np.argsort(-np.abs(eig), axis=-1, kind="stable"), axis=-1)
