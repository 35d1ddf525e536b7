"""Reproduction numbers from the next-generation operator of the linearized infection subsystem.

Linearizing the infection compartments (E, I, V) at the virus-free orbit
gives a new-infection matrix F(t), nonzero only in entry (1,3) where
exposure is created from virions, and a transfer matrix G(t) whose
negative is cooperative:

    F(t) = [[0, 0, beta(t) T*(t)/(1 + c1 T*(t))], [0,0,0], [0,0,0]]
    G(t) = [[k + d(t), 0, 0], [-k, delta + d(t), 0], [0, -p, c]]

R0 is the spectral radius of F (d/dt + G)^{-1} on P-periodic functions,
the unique lambda0 > 0 at which the one-period monodromy of
w' = (F(t)/lambda - G(t)) w has spectral radius 1 (Wang & Zhao 2008). G
is lower triangular, so the operator acts on the scalar rate of new E
infections, and its truncated Fourier matrix gives R0 (Hill's method;
Deconinck & Kutz 2006), which one batched monodromy integration certifies:
its stack of three 3x3 monodromies is 27 values, so the integrator's one
stepping loop takes it in float steps, through `combined(lam).floats`.
Failing that, the search goes on in rounds of one `rho_for_lambda` call
each: a ladder of ROUND_LAMBDAS = 6 lambdas in log lambda until rho
straddles 1, then a pair around the secant crossing of log rho on log
lambda and 6 evenly spaced interior points, up to 8 lambdas. A stack of
5 or more lambdas takes array steps, through `combined(lam)(t)`, and a
stack of at most 4 takes float steps (integrate_matrix's
MATRIX_FLOAT_MAX_VALUES).
sign(R0 - 1) = sign(rho(Phi_{F-G}(P)) - 1), which is reported too. With
beta identically zero R0 is 0 by convention.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .integrate import IntegratorConfig, NumericalFailure, integrate_matrix
from .model import ModelParameters
from .periodic import VirusFreeSolution, floquet_multipliers, virus_free_closed_form

__all__ = [
    "BracketFailure",
    "LinearizedSystem",
    "R0Result",
    "build_linearization",
    "rho_for_lambda",
    "r0_periodic",
    "r0_autonomous",
]

MAX_ROUNDS = 40       # search rounds after the first
ROUND_LAMBDAS = 6     # ladder or evenly spaced lambdas of a search round
LADDER_STEP = 0.1     # ladder spacing in log lambda
HILL_MAX_ORDER = 64   # highest harmonic of the Fourier truncation


class BracketFailure(NumericalFailure):
    """No lambda bracket found; spectral radius plateaued or broke down numerically."""


@dataclass(frozen=True)
class LinearizedSystem:
    """The infection subsystem linearized at the virus-free orbit T*.

    F and G are those of the module docstring, and `combined(lam)` is
    t -> F(t)/lam - G(t). Compartment ordering is (E, I, V) everywhere.
    """

    t_star: VirusFreeSolution
    params: ModelParameters

    def combined(self, lam):
        """t -> F(t)/lam - G(t): (3, 3) for a number lam, (m, 3, 3) for m lambdas.

        A.floats(t, ms) is A(t) @ M on Python floats for each flat row-major
        3x3 member M of the list ms, one lambda per member (a number lam
        serves them all), written out on A's nonzero entries; A(t) and it
        share one formula per entry. integrate_matrix steps a stack of up
        to 4 members through A.floats and a larger one through A(t) @ M;
        A(t) is also the oracle the tests hold A.floats to.
        """
        params, t_star = self.params, self.t_star
        k, delta, p, c, c1 = params.k, params.delta, params.p, params.c, params.c1
        inv_lam = 1.0 / np.asarray(lam, dtype=float)
        inverses = np.ravel(inv_lam).tolist()  # np.float64 arithmetic would take twice as long
        shape = inv_lam.shape + (3, 3)
        constant = np.array([[0.0, 0.0, 0.0], [k, 0.0, 0.0], [0.0, p, -c]])

        def entries(t):
            """A(t)'s (0, 0) and (1, 1), and F's (0, 2), beta T* / (1 + c1 T*), before 1/lam."""
            _, beta_t, d_t = params.rates(t)
            ts = t_star.value(t)
            return -(k + d_t), -(delta + d_t), beta_t * ts / (1.0 + c1 * ts)

        def A(t: float) -> np.ndarray:
            a00, a11, f = entries(t)
            a = np.empty(shape)
            a[...] = constant
            a[..., 0, 0], a[..., 1, 1], a[..., 0, 2] = a00, a11, inv_lam * f
            return a

        def floats(t, ms):
            a00, a11, f = entries(t)
            a02s = [inv * f for inv in inverses]
            if len(a02s) == 1:
                a02s *= len(ms) // 9
            out = []
            for a02, i in zip(a02s, range(0, len(ms), 9), strict=True):
                m00, m01, m02, m10, m11, m12, m20, m21, m22 = ms[i:i + 9]
                out += (a00 * m00 + a02 * m20, a00 * m01 + a02 * m21, a00 * m02 + a02 * m22,
                        k * m00 + a11 * m10, k * m01 + a11 * m11, k * m02 + a11 * m12,
                        p * m10 - c * m20, p * m11 - c * m21, p * m12 - c * m22)
            return out

        A.floats = floats
        return A


@dataclass(frozen=True)
class R0Result:
    """Reproduction number with the evidence that produced it.

    method is "periodic-monodromy" (the unit crossing of the monodromy
    spectral radius) or "no-infection-term" (beta identically zero; value
    0 by convention). bracket straddles the root: rho at bracket[0] >= 1 >=
    rho at bracket[1], and value is its midpoint. trace holds every
    (lambda, rho) evaluation in order, and iterations == len(trace) (3 when
    the first bracket is certified).
    rho_at_one is rho(Phi_{F-G}(P)); sign(value - 1) == sign(rho_at_one - 1).
    """

    value: float
    method: str
    bracket: tuple[float, float]
    iterations: int
    rho_at_one: float
    trace: tuple[tuple[float, float], ...]


def build_linearization(params: ModelParameters) -> LinearizedSystem:
    """Linearized infection subsystem at the virus-free orbit of params.

    T* comes from virus_free_closed_form(params), so F and G always share
    one parameter set.
    """
    return LinearizedSystem(t_star=virus_free_closed_form(params), params=params)


def rho_for_lambda(lin: LinearizedSystem, lam: float | np.ndarray,
                   cfg: IntegratorConfig) -> float | np.ndarray:
    """rho of the one-period monodromy of w' = (F/lam - G) w.

    A float for a number lam; a 1-D array of m lambdas gives m radii from one integration.
    """
    eye = np.broadcast_to(np.eye(3), np.shape(lam) + (3, 3))
    end = integrate_matrix(lin.combined(lam), 0.0, lin.params.period, eye, cfg).end_matrix
    radius = np.abs(floquet_multipliers(end)[..., 0])
    return float(radius) if radius.ndim == 0 else radius


def r0_periodic(params: ModelParameters, tol: float = 1e-8,
                cfg: IntegratorConfig | None = None) -> R0Result:
    """Reproduction number of the periodic model: the unit crossing of rho(lambda).

    The first value is R0_H of `_hill_r0`, or the autonomous R0 of the
    coefficient means (at least tol) when R0_H did not converge or is not
    above tol. One `rho_for_lambda` call on a stack of three evaluates rho
    at lambda = 1, value - tol/2 and value + tol/2; the last two are the
    bracket (at most `tol` wide, an absolute width) when rho straddles 1
    across them. Otherwise `_unit_crossing` searches on from those two
    points in rounds of one `rho_for_lambda` call each; lambda = 1 only
    gives rho_at_one and is never a bracket end.

    Raises ValueError unless tol is finite and positive, and BracketFailure
    when no bracket is found within MAX_ROUNDS further rounds.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be finite and positive")
    if cfg is None:
        cfg = IntegratorConfig.spectral()
    lin = build_linearization(params)
    if params.beta.is_zero:
        rho_at_one = rho_for_lambda(lin, 1.0, cfg)  # F == 0, so this is rho(Phi_{-G})
        return R0Result(value=0.0, method="no-infection-term", bracket=(0.0, 0.0),
                        iterations=1, rho_at_one=rho_at_one, trace=((1.0, rho_at_one),))
    guess = _hill_r0(lin, tol)
    if not guess > tol:
        guess = max(tol, r0_autonomous(params.mu.mean, params.beta.mean, params.d.mean,
                                       params.k, params.delta, params.p, params.c, params.c1))
    trace = []

    def rho(lams: list[float]) -> list[float]:
        radii = rho_for_lambda(lin, np.array(lams), cfg).tolist()
        trace.extend(zip(lams, radii))
        return radii

    rho_at_one = rho([1.0, *_pair(guess, tol)])[0]
    lo, hi = _unit_crossing(rho, trace[1:], tol)
    return R0Result(value=0.5 * (lo + hi), method="periodic-monodromy", bracket=(lo, hi),
                    iterations=len(trace), rho_at_one=rho_at_one, trace=tuple(trace))


def _pair(center: float, tol: float) -> list[float]:
    """[center - tol/2, hi] with hi as near center + tol/2 as keeps hi - lo <= tol."""
    lo = center - 0.5 * tol
    hi = lo + tol
    while hi - lo > tol:  # lo + tol can round up
        hi = math.nextafter(hi, lo)
    return [lo, hi]


def _hill_r0(lin: LinearizedSystem, tol: float) -> float:
    """R0 from the truncated Fourier next-generation matrix, or nan if unconverged.

    On the E infection rate the operator is f p S_V^-1 k S_I^-1 S_E^-1, with
    S_x = d/dt + x + d(t) and S_V = d/dt + c, each factor projected onto
    {1, cos n w t, sin n w t}, n <= N, by quadrature on the T* nodes. N
    doubles from 8 until two values agree within tol/4, up to HILL_MAX_ORDER;
    a top eigenvalue that is not real and positive counts as unconverged.
    """
    p, t, t_star = lin.params, lin.t_star.times[:-1], lin.t_star.values[:-1]
    _, beta, d = p.rates(t)
    f = beta * t_star / (1.0 + p.c1 * t_star)
    previous, n = math.nan, 8
    while n <= HILL_MAX_ORDER:
        w, eye = p.angular_frequency * np.arange(1, n + 1), np.eye(2 * n + 1)
        phi = np.hstack([np.ones((len(t), 1)), np.cos(np.outer(t, w)), np.sin(np.outer(t, w))])
        weights = np.r_[1.0, np.full(2 * n, 2.0)][:, None] / len(t)
        deriv = np.zeros_like(eye)
        deriv[1:n + 1, n + 1:], deriv[n + 1:, 1:n + 1] = np.diag(w), -np.diag(w)
        s_d = deriv + weights * (phi.T @ (d[:, None] * phi))
        x = weights * (phi.T @ (f[:, None] * phi))
        for s in (s_d + p.k * eye, s_d + p.delta * eye, deriv + p.c * eye):
            x = np.linalg.solve(s, x)
        eig = np.linalg.eigvals(p.p * p.k * x)
        top = eig[np.argmax(np.abs(eig))]
        value = float(top.real) if top.imag == 0.0 and top.real > 0.0 else math.nan
        if abs(value - previous) <= 0.25 * tol:
            return value
        previous, n = value, 2 * n
    return math.nan


def _unit_crossing(rho, points: list[tuple[float, float]], tol: float) -> tuple[float, float]:
    """Bracket (lo, hi), hi - lo <= tol, with rho(lo) >= 1 >= rho(hi).

    rho maps a list of lambdas to their radii in one call, a round; the
    radius is positive and nonincreasing in lambda > 0. points are the
    (lambda, rho) pairs already evaluated, at two or more distinct lambdas.
    The bracket is the narrowest pair of neighbouring points straddling 1.

    Without one, a round continues a ladder of ROUND_LAMBDAS steps of
    LADDER_STEP in log lambda beyond the outermost point, on the root's
    side. With one wider than tol, a round takes the `_pair` around the
    secant crossing of log rho against log lambda (clamped to [lo + tol/2,
    hi - tol/2]), which ends the search once the secant is within tol/2 of
    the root, and ROUND_LAMBDAS evenly spaced interior lambdas, which
    shrink the bracket at least (ROUND_LAMBDAS + 1)-fold whatever rho's
    shape. A bracket with no float strictly inside is returned as it is.
    """
    points = sorted(points)
    for rounds in itertools.count():
        brackets = [(a, b) for a, b in zip(points, points[1:]) if a[1] >= 1.0 >= b[1]]
        if brackets:
            (lo, rho_lo), (hi, rho_hi) = min(brackets, key=lambda ab: ab[1][0] - ab[0][0])
            if hi - lo <= tol:
                return lo, hi
            y_lo, y_hi = math.log(rho_lo), math.log(rho_hi)
            share = y_lo / (y_lo - y_hi) if y_lo > y_hi else 0.5  # secant zero in log(hi / lo)
            est = min(max(lo * (hi / lo) ** share, lo + 0.5 * tol), hi - 0.5 * tol)
            inner = [lo + (hi - lo) * j / (ROUND_LAMBDAS + 1)
                     for j in range(1, ROUND_LAMBDAS + 1)]
            lams = sorted({lam for lam in _pair(est, tol) + inner if lo < lam < hi})
            if not lams:  # bracket at floating resolution
                return lo, hi
        else:  # rho is above 1 at the largest lambda, or below 1 at the smallest
            step = LADDER_STEP if points[-1][1] > 1.0 else -LADDER_STEP
            x = math.log(points[-1 if step > 0.0 else 0][0])
            lams = [math.exp(x + step * j) for j in range(1, ROUND_LAMBDAS + 1)]
        if rounds == MAX_ROUNDS:
            raise BracketFailure(f"no bracket within {MAX_ROUNDS} rounds")
        points = sorted(points + list(zip(lams, rho(lams))))


def r0_autonomous(mu: float, beta: float, d: float, k: float, delta: float,
                  p: float, c: float, c1: float) -> float:
    """Closed-form reproduction number of the time-invariant model.

    R0 = p*beta*k*mu / (c (d + delta)(d + k)(d + c1*mu)); beta = 0 gives 0.
    """
    for name, v in (("mu", mu), ("d", d), ("k", k), ("delta", delta),
                    ("p", p), ("c", c)):
        if not (math.isfinite(v) and v > 0.0):
            raise ValueError(f"{name} must be strictly positive")
    if beta < 0.0 or c1 < 0.0:
        raise ValueError("beta and c1 must be nonnegative")
    return (p * beta * k * mu) / (c * (d + delta) * (d + k) * (d + c1 * mu))
