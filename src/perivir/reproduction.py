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
virus load, as K = p k S_V^-1 S_I^-1 S_E^-1 (f .), each S one
`periodic._periodic_operator` d/dt + a + b sin(w t), as T*'s, and its
truncated Fourier matrix on T*'s basis, `periodic._hill_basis`, gives R0
(Hill's method; Deconinck & Kutz 2006); `_apply_k` is K on coefficients.

K certifies that value itself: K is positive, so min (K u)/u <= R0 <=
max (K u)/u for any u > 0 (Collatz-Wielandt; Thieme 2009, SIAM J. Appl.
Math. 70:188; Bacaer & Guernaoui 2006, J. Math. Biol. 53:421), widened by
K u's error bound from its solves' residuals (`_collatz_wielandt`). The
order doubles from 4 and stops at the first whose bounds on Hill's top
eigenfunction lie inside value -+ tol/2: that pair is the bracket. Else
the search starts from the bounds on u = 1 (`_operator_bounds`) and
evaluates the pair of the first value from order 16 on that agrees with
the order before it within tol/4, when it lies between the bounds; when it
straddles 1 it is the bracket, and otherwise the bounds are evaluated
too. Rounds then narrow the bracket, using that log rho is convex in log
lambda (Kingman 1961, Quart. J. Math. 12:283): the chord across the
bracket crosses 1 right of R0, and a chord through an end and its outer
neighbour crosses 1 left of it (`_unit_crossing`). Each lambda
is one `rho_for_lambda` call, one 10-wide integration of its 3x3
monodromy with T carried after it, T' = mu - d T from T*(0)
(`_combined_field`); rho(Phi_{F-G}(P)), whose side of 1 is R0's, is the
radius at lambda = 1 on every route. A monodromy's error is relative to
each entry, so one that decays keeps its radius. With beta identically
zero R0 is 0 by convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, partial

import numpy as np

from .integrate import IntegratorConfig, NumericalFailure, integrate
from .model import ModelParameters
from .periodic import (VirusFreeSolution, _hill_basis, _periodic_operator, floquet_multipliers,
                       virus_free_closed_form)

__all__ = [
    "BracketFailure",
    "LinearizedSystem",
    "R0Result",
    "build_linearization",
    "rho_for_lambda",
    "r0_periodic",
    "r0_autonomous",
]

R0_TOL = 1e-8          # r0_periodic's default bracket width
MAX_ROUNDS = 40        # search rounds after the first
HILL_MAX_ORDER = 64    # highest harmonic of the Fourier truncation
ENCLOSURE_MARGIN = 16  # harmonics K u is taken at beyond u's order


class BracketFailure(NumericalFailure):
    """No lambda bracket found; spectral radius plateaued or broke down numerically."""


@dataclass(frozen=True)
class LinearizedSystem:
    """The infection subsystem linearized at the virus-free orbit T*.

    F and G are those of the module docstring. Compartment ordering is
    (E, I, V) everywhere.
    """

    t_star: VirusFreeSolution
    params: ModelParameters

    @cached_property
    def _f(self) -> np.ndarray:
        """F's entry f = beta T*/(1 + c1 T*) on T*'s nodes, one period."""
        t_star = self.t_star.values
        return self.params.rates(self.t_star.times)[1] * t_star / (1.0 + self.params.c1 * t_star)


def _combined_field(w, mu0, mu1, beta0, beta1, d0, d1, k, delta, p, c, c1, c2, inv, t, ys):
    """(A(t) @ M, T') on one flat row-major 3x3 M followed by T: lam's monodromy field.

    w .. c2 are `ModelParameters.flat`, c2 unused (the linearization is
    taken at V = 0), and inv is 1/lam; t is a number. T is carried in the
    state, so T' = mu - d T takes the place of a T* lookup. A has the
    nonzero entries a00 = -(k + d), a02 = inv * beta T / (1 + c1 T), k,
    a11 = -(delta + d), p and -c, and each entry is written out on them,
    left to right.
    """
    s = math.sin(w * t)
    beta_t, d_t = beta0 + beta1 * s, d0 + d1 * s
    m0, m1, m2, m3, m4, m5, m6, m7, m8, ts = ys
    a00, a11, a02 = -(k + d_t), -(delta + d_t), inv * (beta_t * ts / (1.0 + c1 * ts))
    return [a00 * m0 + a02 * m6, a00 * m1 + a02 * m7, a00 * m2 + a02 * m8,
            k * m0 + a11 * m3, k * m1 + a11 * m4, k * m2 + a11 * m5,
            p * m3 - c * m6, p * m4 - c * m7, p * m5 - c * m8, (mu0 + mu1 * s) - d_t * ts]


@dataclass(frozen=True)
class R0Result:
    """Reproduction number with the evidence that produced it.

    method is "periodic-monodromy" (the unit crossing of the monodromy
    spectral radius) or "no-infection-term" (beta identically zero; value
    0 by convention). bracket straddles the root: rho at bracket[0] >= 1 >=
    rho at bracket[1], and value is its midpoint. trace holds every
    (lambda, rho) evaluation in order, lambda = 1 first, and iterations ==
    len(trace): 1 when the enclosure certifies an order's bracket; on the
    search, 3 when Hill's pair straddles 1, else 3 after K's bounds (5 with
    Hill's pair inside them) plus each round's lambdas. rho_at_one is
    rho(Phi_{F-G}(P)); sign(value - 1) == sign(rho_at_one - 1). enclosure
    is the widened (min, max) of (K u)/u, the Collatz-Wielandt bounds that
    certified the bracket, and None on every other route.
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


def rho_for_lambda(lin: LinearizedSystem, lam: float, cfg: IntegratorConfig) -> float:
    """rho of the one-period monodromy of w' = (F/lam - G) w, for one number lam.

    One 10-wide run from I, row-major, then T*(0), with cfg's abs_tol the
    smallest normal float: errors are relative.
    """
    field = _monodromy_field(lin, float(lam))
    y0 = np.eye(3).ravel().tolist() + [lin.t_star.t_star_initial]
    cfg = replace(cfg, abs_tol=np.finfo(float).tiny)
    end = integrate(field, 0.0, lin.params.period, y0, cfg, t_eval=()).final
    return float(np.abs(floquet_multipliers(end[:9].reshape(3, 3))[0]))


def _monodromy_field(lin: LinearizedSystem, lam: float):
    """`_combined_field` with lin's rates and 1/lam bound, on its 10 values; its own float form."""
    field = partial(_combined_field, *lin.params.flat, 1.0 / lam)
    field.floats = lambda n: field
    return field


def r0_periodic(params: ModelParameters, tol: float = R0_TOL,
                cfg: IntegratorConfig | None = None) -> R0Result:
    """Reproduction number of the periodic model: the unit crossing of rho(lambda).

    One `rho_for_lambda` call at lambda = 1 gives rho_at_one, first, on
    every route. `_hill_r0` then walks orders 4, 8, ..., HILL_MAX_ORDER and
    stops at the first whose value is above tol and whose eigenfunction's
    `_collatz_wielandt` bounds lie inside its `_pair`, value -+ tol/2: that
    pair is the bracket (at most `tol` wide, an absolute width). The bounds
    are K's own, so they hold at a tol the monodromy cannot resolve: at
    rel_tol 1e-9 its radius errs by 8.8e-12 at the persistence set's R0,
    5.6e-10 in lambda. K is built on T*'s samples, which the Galerkin solve
    gives to rounding, so the enclosure alone decides.

    When no order certifies, the search of the module docstring runs, one
    `rho_for_lambda` call per lambda: Hill's pair when it lies inside
    `_operator_bounds`, those bounds unless the pair straddles 1, then
    `_unit_crossing`'s rounds.

    Raises ValueError unless tol is finite and positive, and BracketFailure
    when rho does not straddle 1 across the first lambdas or no bracket is
    found within MAX_ROUNDS further rounds.
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
    guess, previous, n = math.nan, math.nan, 4
    while n <= HILL_MAX_ORDER:
        value, u = _hill_r0(lin, n)
        lo, hi = _pair(value, tol)
        enclosure = _collatz_wielandt(lin, u, n) if value > tol else None
        if enclosure is not None and lo <= enclosure[0] and enclosure[1] <= hi:
            break
        if n > 8 and math.isnan(guess) and abs(value - previous) <= 0.25 * tol:
            guess = value
        previous, n = value, 2 * n
    else:
        enclosure, (lo, hi) = None, _pair(guess, tol)

        def rho(lams: list[float]) -> list[float]:
            radii = [rho_for_lambda(lin, lam, cfg) for lam in lams]
            trace.extend(zip(lams, radii))
            return radii

        low, high = _operator_bounds(lin, tol)
        if not (low < lo and hi < high and (pair := rho([lo, hi]))[0] >= 1.0 >= pair[1]):
            rho([low, high])
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


def _hill_r0(lin: LinearizedSystem, order: int) -> tuple[float, np.ndarray | None]:
    """R0 from the next-generation matrix truncated at order harmonics, with its eigenfunction.

    The matrix is `_apply_k` on F's, f's multiplication projected onto
    {1, cos n w t, sin n w t}, n <= order, by quadrature on the M T* nodes.
    They are uniform, t_j = j P/M, so w t_j = 2 pi j/M for every period:
    the basis depends on M and order only (`_hill_basis`), and w scales
    only d/dt. Returns (value, u): value the top eigenvalue when it is real
    and positive, else nan; u its eigenfunction on the T* nodes from one
    inverse-iteration solve, with its sum made positive, or None when value
    is nan or that solve fails.
    """
    f = lin._f
    basis = phi, weights, *_ = _hill_basis(len(f), order)
    x = _apply_k(lin, weights[:, None] * (phi.T @ (f[:, None] * phi)), basis)[0]
    eye = np.eye(2 * order + 1)
    eig = np.linalg.eigvals(x)
    top = eig[np.argmax(np.abs(eig))]
    if not (top.imag == 0.0 and top.real > 0.0):
        return math.nan, None
    value = float(top.real)
    try:  # from the constant function; a shift at the eigenvalue itself is fine
        u = phi @ np.linalg.solve(x - value * eye, eye[0])
    except np.linalg.LinAlgError:
        return value, None
    return value, (u if u.sum() > 0.0 else -u)


def _apply_k(lin: LinearizedSystem, g: np.ndarray, basis) -> tuple[np.ndarray, list]:
    """(K g, solves): K on coefficients g (a vector, or a matrix's columns) on basis.

    K g = p k S_V^-1 S_I^-1 S_E^-1 g. S_x = d/dt + x + d(t) for x = k, delta,
    and S_V = d/dt + c: each one `periodic._periodic_operator` on basis, of
    (a, b) = (x + d's mean, d's amplitude) or (c, 0). solves holds each
    one's (a, b, y) in turn, y its solution from the y before.
    """
    p, d, solves = lin.params, lin.params.d, []
    for a, b in ((p.k + d.mean, d.amplitude), (p.delta + d.mean, d.amplitude), (p.c, 0.0)):
        g = np.linalg.solve(_periodic_operator(p.angular_frequency, a, b, basis), g)
        solves.append((a, b, g))
    return p.p * p.k * g, solves


def _collatz_wielandt(lin: LinearizedSystem, u: np.ndarray | None,
                      order: int) -> tuple[float, float] | None:
    """(min, max) of (K u)/u on the T* nodes, each widened by K u's error over min u; or None.

    K u is `_hill_r0`'s K on f u's coefficients ENCLOSURE_MARGIN harmonics
    above order; for u > 0 on the nodes the two enclose R0 (Collatz-Wielandt;
    Thieme 2009). Each S = d/dt + a + b sin(w t) has a positive Green's
    function of mass at most 1/(a - |b|), so a solve whose residual on the
    nodes (against f u itself first, its truncation inside) is r errs there
    by at most (r + e)/(a - |b|), e the error before (Higham 2002, ch. 7).
    The bound holds on the nodes only (Bernstein's inequality between them is
    not applied), a posteriori in floats: numpy has no directed rounding (Rump 2010).
    """
    if u is None or not np.all(u > 0.0):
        return None
    n = order + ENCLOSURE_MARGIN
    basis = phi, weights, deriv, _ = _hill_basis(len(u), n)
    g, e, w = lin._f * u, 0.0, lin.params.angular_frequency
    ku, solves = _apply_k(lin, weights * (g @ phi), basis)
    for a, b, y in solves:  # phi's column n + 1 is sin(w t) on the nodes
        nodes = phi @ y
        residual = w * (phi @ (deriv @ y)) + (a + b * phi[:, n + 1]) * nodes - g
        g, e = nodes, (float(np.abs(residual).max()) + e) / (a - abs(b))
    ratio, widening = (phi @ ku) / u, lin.params.p * lin.params.k * e / float(u.min())
    return float(ratio.min()) - widening, float(ratio.max()) + widening


def _operator_bounds(lin: LinearizedSystem, tol: float) -> tuple[float, float]:
    """K 1's `_collatz_wielandt` bounds on R0, each end widened by tol/2, the lower kept above 0.

    Raises BracketFailure when the lower bound is not positive.
    """
    low, high = _collatz_wielandt(lin, np.ones(len(lin._f)), 0)
    if not low > 0.0:
        raise BracketFailure("K 1 does not bound R0 away from 0 on the T* nodes")
    return max(low - 0.5 * tol, 0.5 * low), high + 0.5 * tol


def _chord_zero(a: tuple[float, float], b: tuple[float, float]) -> float:
    """log lambda where the chord through (lambda, rho) points a and b crosses rho = 1.

    The chord is the line through a and b in log rho against log lambda;
    inf unless rho is finite, positive and falling from a to b.
    """
    if not 0.0 < b[1] < a[1] < math.inf:
        return math.inf
    return math.log(a[0]) + math.log(a[1]) / math.log(a[1] / b[1]) * math.log(b[0] / a[0])


def _unit_crossing(rho, points: list[tuple[float, float]], tol: float) -> tuple[float, float]:
    """Bracket (lo, hi), hi - lo <= tol, with rho(lo) >= 1 >= rho(hi).

    rho maps a round's list of lambdas to their radii; the radius is
    positive and nonincreasing in lambda > 0, and log rho is convex in log
    lambda. points are the (lambda, rho) pairs already evaluated, and some
    neighbouring two of them straddle 1; the bracket is the narrowest such
    pair. A round evaluates, inside it, the crossing of its chord in log
    rho against log lambda, where rho <= 1 by convexity, and the crossings
    of the chords through each end and its outer neighbour, where
    rho >= 1; and, when the last round (the first time, the one that gave
    points) did not halve the bracket or no crossing falls inside it, its
    thirds in log lambda, which keep a rho that is not log-convex within
    MAX_ROUNDS. A bracket with no float strictly inside is returned as it
    is. Raises BracketFailure without a round when no two neighbouring
    points straddle 1.
    """
    points, width = sorted(points), 0.0  # the points' round halved no bracket
    for rounds in range(MAX_ROUNDS + 1):
        straddles = [i for i, (a, b) in enumerate(zip(points, points[1:])) if a[1] >= 1.0 >= b[1]]
        if not straddles:
            raise BracketFailure("rho does not straddle 1 across the evaluated lambdas")
        i = min(straddles, key=lambda i: points[i + 1][0] - points[i][0])
        lo, hi, ends = points[i][0], points[i + 1][0], points[max(i - 1, 0):i + 3]
        # a crossing beyond log hi is no candidate, and its exp could overflow
        lams = [math.exp(x) for x in map(_chord_zero, ends, ends[1:]) if x < math.log(hi)]
        if not any(lo < lam < hi for lam in lams) or hi - lo > 0.5 * width:
            lams += [lo * (hi / lo) ** (1.0 / 3.0), lo * (hi / lo) ** (2.0 / 3.0)]
        width, lams = hi - lo, sorted({lam for lam in lams if lo < lam < hi})
        if hi - lo <= tol or not lams:  # not lams: the bracket is at floating resolution
            return lo, hi
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
