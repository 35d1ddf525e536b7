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
is lower triangular, so the operator acts on one scalar function, the
virus load, as K = p k S_V^-1 S_I^-1 S_E^-1 (f .), and its truncated
Fourier matrix gives R0 (Hill's method; Deconinck & Kutz 2006).

K certifies that value itself: K is positive, so for Hill's top
eigenfunction u > 0, min (K u)/u <= R0 <= max (K u)/u (Collatz-Wielandt;
Thieme 2009, SIAM J. Appl. Math. 70:188; Bacaer & Guernaoui 2006,
J. Math. Biol. 53:421), taken on ENCLOSURE_NODES of the T* nodes
(`_collatz_wielandt`). When these bounds lie inside value -+ tol/2, that
pair is the bracket. Otherwise one batched integration of the pair
certifies it by the monodromy, and failing that the search goes on in
rounds of one `rho_for_lambda` call each: a ladder of ROUND_LAMBDAS = 6
lambdas in log lambda until rho straddles 1, then a pair around the
secant crossing of log rho on log lambda and 6 evenly spaced interior
points, up to 8 lambdas, each stack stepping on arrays through
`combined(lam)(t)`. Every route reports rho(Phi_{F-G}(P)), whose side of
1 is R0's, from one 3x3 monodromy at lambda = 1 in float steps through
`combined(1.0).floats` (`_combined_field`). A monodromy's error is
relative to each entry, so one that decays keeps its radius. With beta
identically zero R0 is 0 by convention.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cache, cached_property, partial

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
ENCLOSURE_NODES = 128          # T* nodes the Collatz-Wielandt bounds are taken on
ENCLOSURE_RESOLUTION = 1e-12   # largest top-quarter DFT coefficient / largest, at most


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

        For a number lam, A.floats(9) is A(t) @ M on one flat row-major 3x3
        M: `_combined_field` with the rates, T*'s `value` and 1/lam bound.
        integrate_matrix steps a single matrix through it. m lambdas give no
        float form, so their stack steps on arrays through A(t) @ M; A(t) is
        also the oracle the tests hold A.floats to.
        """
        params, t_star = self.params, self.t_star
        k, delta, p, c, c1 = params.k, params.delta, params.p, params.c, params.c1
        beta, d = params.beta, params.d
        inv_lam = 1.0 / np.asarray(lam, dtype=float)
        shape = inv_lam.shape + (3, 3)
        constant = np.array([[0.0, 0.0, 0.0], [k, 0.0, 0.0], [0.0, p, -c]])

        def A(t: float) -> np.ndarray:
            _, beta_t, d_t = params.rates(t)
            ts = t_star.value(t)
            a = np.empty(shape)
            a[...] = constant
            a[..., 0, 0], a[..., 1, 1] = -(k + d_t), -(delta + d_t)
            a[..., 0, 2] = inv_lam * (beta_t * ts / (1.0 + c1 * ts))
            return a

        if inv_lam.ndim == 0:  # a Python float: np.float64 arithmetic takes twice as long
            A.floats = lambda n: partial(_combined_field, params.angular_frequency, beta.mean,
                                         beta.amplitude, d.mean, d.amplitude, k, delta, p, c,
                                         c1, t_star.value, float(inv_lam))
        return A

    @cached_property
    def _nodes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """t, d(t) and F's entry f = beta T*/(1 + c1 T*) on T*'s nodes, one period."""
        t, t_star = self.t_star.times[:-1], self.t_star.values[:-1]
        _, beta, d = self.params.rates(t)
        return t, d, beta * t_star / (1.0 + self.params.c1 * t_star)


def _combined_field(w, beta0, beta1, d0, d1, k, delta, p, c, c1, tstar, inv, t, ms):
    """A(t) @ M on one flat row-major 3x3 M: `combined(lam).floats` for a number lam.

    w is the angular frequency, beta0, beta1, d0 and d1 the mean and
    amplitude of beta and d, tstar T*(t) as a function and inv 1/lam; t is a
    number. A has the nonzero entries a00 = -(k + d), a02 = inv * beta T* /
    (1 + c1 T*), k, a11 = -(delta + d), p and -c, and each product entry is
    written out on them, left to right.
    """
    s = math.sin(w * t)
    beta_t, d_t = beta0 + beta1 * s, d0 + d1 * s
    ts = tstar(t)
    a00, a11, a02 = -(k + d_t), -(delta + d_t), inv * (beta_t * ts / (1.0 + c1 * ts))
    m0, m1, m2, m3, m4, m5, m6, m7, m8 = ms
    return [a00 * m0 + a02 * m6, a00 * m1 + a02 * m7, a00 * m2 + a02 * m8,
            k * m0 + a11 * m3, k * m1 + a11 * m4, k * m2 + a11 * m5,
            p * m3 - c * m6, p * m4 - c * m7, p * m5 - c * m8]


@dataclass(frozen=True)
class R0Result:
    """Reproduction number with the evidence that produced it.

    method is "periodic-monodromy" (the unit crossing of the monodromy
    spectral radius) or "no-infection-term" (beta identically zero; value
    0 by convention). bracket straddles the root: rho at bracket[0] >= 1 >=
    rho at bracket[1], and value is its midpoint. trace holds every
    (lambda, rho) evaluation in order, lambda = 1 first, and iterations ==
    len(trace): 1 when the enclosure certifies the first bracket, 3 when
    the monodromy of the pair does. rho_at_one is rho(Phi_{F-G}(P));
    sign(value - 1) == sign(rho_at_one - 1). enclosure is (min, max) of
    (K u)/u, the Collatz-Wielandt bounds that certified the bracket, and
    None on every other route.
    """

    value: float
    method: str
    bracket: tuple[float, float]
    iterations: int
    rho_at_one: float
    trace: tuple[tuple[float, float], ...]
    enclosure: tuple[float, float] | None = None


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
    cfg's abs_tol is replaced by the smallest normal float: each entry's error is relative.
    """
    eye = np.broadcast_to(np.eye(3), np.shape(lam) + (3, 3))
    cfg = replace(cfg, abs_tol=np.finfo(float).tiny)
    end = integrate_matrix(lin.combined(lam), 0.0, lin.params.period, eye, cfg).end_matrix
    radius = np.abs(floquet_multipliers(end)[..., 0])
    return float(radius) if radius.ndim == 0 else radius


def r0_periodic(params: ModelParameters, tol: float = 1e-8,
                cfg: IntegratorConfig | None = None) -> R0Result:
    """Reproduction number of the periodic model: the unit crossing of rho(lambda).

    One `rho_for_lambda` call at lambda = 1 gives rho_at_one, first, on
    every route. The first value is R0_H of `_hill_r0`. When it is above
    tol and the `_collatz_wielandt` bounds of its eigenfunction lie inside
    its `_pair`, value -+ tol/2, that pair is the bracket (at most `tol`
    wide, an absolute width). The bounds are K's own, so they hold at a tol
    the monodromy cannot resolve: at rel_tol 1e-9 its radius errs by
    8.8e-12 at the persistence set's R0, 5.6e-10 in lambda.

    On every other route the first value is R0_H, or the autonomous R0 of
    the coefficient means (at least tol) when R0_H did not converge or is
    not above tol. One `rho_for_lambda` call on the pair evaluates rho
    there; the pair is the bracket when rho straddles 1 across it.
    Otherwise `_unit_crossing` searches on from those two points in rounds
    of one `rho_for_lambda` call each.

    Raises ValueError unless tol is finite and positive, and BracketFailure
    when no bracket is found within MAX_ROUNDS further rounds.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be finite and positive")
    if cfg is None:
        cfg = IntegratorConfig.spectral()
    lin = build_linearization(params)
    rho_at_one = rho_for_lambda(lin, 1.0, cfg)
    trace = [(1.0, rho_at_one)]
    if params.beta.is_zero:  # F == 0, so rho_at_one is rho(Phi_{-G})
        return R0Result(value=0.0, method="no-infection-term", bracket=(0.0, 0.0),
                        iterations=1, rho_at_one=rho_at_one, trace=tuple(trace))
    guess, u = _hill_r0(lin, tol)
    lo, hi = _pair(guess, tol)
    enclosure = _collatz_wielandt(lin, u)
    if not (guess > tol and enclosure is not None and lo <= enclosure[0] and enclosure[1] <= hi):
        enclosure = None
        if not guess > tol:
            guess = max(tol, r0_autonomous(params.mu.mean, params.beta.mean, params.d.mean,
                                           params.k, params.delta, params.p, params.c, params.c1))

        def rho(lams: list[float]) -> list[float]:
            radii = rho_for_lambda(lin, np.array(lams), cfg).tolist()
            trace.extend(zip(lams, radii))
            return radii

        rho(_pair(guess, tol))
        lo, hi = _unit_crossing(rho, trace[1:], tol)
    return R0Result(value=0.5 * (lo + hi), method="periodic-monodromy", bracket=(lo, hi),
                    iterations=len(trace), rho_at_one=rho_at_one, trace=tuple(trace),
                    enclosure=enclosure)


def _pair(center: float, tol: float) -> list[float]:
    """[center - tol/2, hi] with hi as near center + tol/2 as keeps hi - lo <= tol."""
    lo = center - 0.5 * tol
    hi = lo + tol
    while hi - lo > tol:  # lo + tol can round up
        hi = math.nextafter(hi, lo)
    return [lo, hi]


def _hill_r0(lin: LinearizedSystem, tol: float) -> tuple[float, np.ndarray | None]:
    """R0 from the truncated Fourier next-generation matrix, with its eigenfunction.

    On the virus load the operator is K = p k S_V^-1 S_I^-1 S_E^-1 (f .),
    with S_x = d/dt + x + d(t) and S_V = d/dt + c, each factor projected
    onto {1, cos n w t, sin n w t}, n <= N, by quadrature on the T* nodes. N
    doubles from 8 until two values agree within tol/4, up to HILL_MAX_ORDER;
    a top eigenvalue that is not real and positive counts as unconverged.
    Returns (value, u), u the top eigenfunction on the T* nodes from one
    inverse-iteration solve at the last order, with its sum made positive,
    or None when that solve fails; (nan, None) when unconverged.
    """
    p, (t, d, f) = lin.params, lin._nodes
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
        x *= p.p * p.k
        eig = np.linalg.eigvals(x)
        top = eig[np.argmax(np.abs(eig))]
        value = float(top.real) if top.imag == 0.0 and top.real > 0.0 else math.nan
        if abs(value - previous) <= 0.25 * tol:
            try:  # from the constant function; a shift at the eigenvalue itself is fine
                u = phi @ np.linalg.solve(x - value * eye, eye[0])
            except np.linalg.LinAlgError:
                return value, None
            return value, (u if u.sum() > 0.0 else -u)
        previous, n = value, 2 * n
    return math.nan, None


@cache
def _dft_table() -> np.ndarray:
    """cos(m theta_j) over sin(m theta_j), m = 0..N/2, theta_j = 2 pi j/N, N = ENCLOSURE_NODES."""
    n = ENCLOSURE_NODES
    theta = (2.0 * math.pi / n) * (np.outer(np.arange(n // 2 + 1), np.arange(n)) % n)
    return np.vstack([np.cos(theta), np.sin(theta)])


def _periodic_solve(h: np.ndarray, rate: float, w: float) -> np.ndarray:
    """The periodic y with y' + rate y = h on ENCLOSURE_NODES nodes over one period.

    One real DFT of h (a = sum h cos, b = sum h sin), each harmonic divided
    by i m w + rate, and the inverse transform. All nan when a coefficient
    of h's top quarter exceeds ENCLOSURE_RESOLUTION of its largest.
    """
    table, n = _dft_table(), ENCLOSURE_NODES
    a, b = np.split(table @ h, 2)
    size = np.hypot(a, b)
    if not size[3 * n // 8:].max() <= ENCLOSURE_RESOLUTION * size.max():
        return np.full(n, math.nan)
    freq = w * np.arange(n // 2 + 1)
    scale = np.r_[1.0, np.full(n // 2 - 1, 2.0), 1.0] / (n * (rate * rate + freq * freq))
    return np.concatenate([(a * rate - b * freq) * scale, (a * freq + b * rate) * scale]) @ table


def _collatz_wielandt(lin: LinearizedSystem, u: np.ndarray | None) -> tuple[float, float] | None:
    """(min, max) of (K u)/u on ENCLOSURE_NODES of the T* nodes, or None.

    K is `_hill_r0`'s operator and u > 0, so the two enclose R0
    (Collatz-Wielandt; Thieme 2009). With q = exp((d1/w)(1 - cos w t)) for
    d = d0 + d1 sin w t, (d/dt + x + d(t)) y = g is (d/dt + x + d0)(q y) = q g,
    so K u = p R_c(R_{delta+d0}(k R_{k+d0}(q f u)) / q), each
    R_a = (d/dt + a)^-1 a `_periodic_solve`. None unless u is positive on
    the nodes and all three spectra are resolved.
    """
    if u is None:
        return None
    params, w, stride = lin.params, lin.params.angular_frequency, len(u) // ENCLOSURE_NODES
    f, u = lin._nodes[2][::stride], u[::stride]
    d0, k = params.d.mean, params.k
    with np.errstate(all="ignore"):
        q = np.exp((params.d.amplitude / w) * (1.0 - _dft_table()[1]))
        y = k * _periodic_solve(q * f * u, k + d0, w)
        y = params.p * _periodic_solve(y, params.delta + d0, w) / q
        ratio = _periodic_solve(y, params.c, w) / u
        bounds = float(ratio.min()), float(ratio.max())
        return bounds if np.all(u > 0.0) and np.all(np.isfinite(bounds)) else None


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
