"""Reproduction numbers via monodromy spectra of the linearized infection subsystem.

Linearizing the infection compartments (E, I, V) at the virus-free orbit
gives a new-infection matrix F(t), nonzero only in entry (1,3) where
exposure is created from virions, and a transfer matrix G(t) whose
negative is cooperative:

    F(t) = [[0, 0, beta(t) T*(t)/(1 + c1 T*(t))], [0,0,0], [0,0,0]]
    G(t) = [[k + d(t), 0, 0], [-k, delta + d(t), 0], [0, -p, c]]

The reproduction number is the unique lambda0 > 0 at which the one-period
monodromy of w' = (F(t)/lambda - G(t)) w has spectral radius exactly 1;
rho(lambda) is continuous and nonincreasing, so a doubling/halving
bracket from lambda = 1 followed by bisection locates it. Its sign
relative to 1 matches the sign of rho(Phi_{F-G}(P)) - 1, which is also
reported. A model with beta identically zero has no infection term; that
case reports the conventional value 0 instead of searching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .integrate import IntegratorConfig, integrate_matrix
from .model import ModelParameters
from .periodic import VirusFreeSolution, virus_free_closed_form

__all__ = [
    "ParamsMismatch",
    "BracketFailure",
    "LinearizedSystem",
    "MonodromyResult",
    "R0Result",
    "build_linearization",
    "monodromy",
    "spectral_radius",
    "rho_for_lambda",
    "r0_periodic",
    "r0_autonomous",
]

MAX_BRACKET_STEPS = 60


class ParamsMismatch(ValueError):
    """The virus-free solution was generated from different parameters."""


class BracketFailure(RuntimeError):
    """No lambda bracket found; spectral radius plateaued or broke down numerically."""


@dataclass(frozen=True)
class LinearizedSystem:
    """F(t), G(t) and their combination at the virus-free orbit.

    Compartment ordering is (E, I, V) everywhere.
    """

    t_star: VirusFreeSolution
    period: float
    params: ModelParameters

    def infection_entry(self, t: float) -> float:
        """The single nonzero entry of F: beta(t) T*(t) / (1 + c1 T*(t))."""
        ts = self.t_star.value(t)
        return self.params.beta.value(t) * ts / (1.0 + self.params.c1 * ts)

    def F(self, t: float) -> np.ndarray:
        out = np.zeros((3, 3))
        out[0, 2] = self.infection_entry(t)
        return out

    def G(self, t: float) -> np.ndarray:
        p = self.params
        d_t = p.d.value(t)
        return np.array([
            [p.k + d_t, 0.0, 0.0],
            [-p.k, p.delta + d_t, 0.0],
            [0.0, -p.p, p.c],
        ])

    def combined(self, lam: float):
        """Matrix function t -> F(t)/lam - G(t), the bisection integrand."""
        p = self.params
        k, delta, pp, c = p.k, p.delta, p.p, p.c
        inv_lam = 1.0 / lam

        def A(t: float) -> np.ndarray:
            d_t = p.d.value(t)
            return np.array([
                [-(k + d_t), 0.0, inv_lam * self.infection_entry(t)],
                [k, -(delta + d_t), 0.0],
                [0.0, pp, -c],
            ])

        return A


@dataclass(frozen=True)
class MonodromyResult:
    """Fundamental matrix over one period with its spectrum."""

    matrix: np.ndarray
    spectral_radius: float
    eigenvalues: np.ndarray


@dataclass(frozen=True)
class R0Result:
    """Reproduction number with the evidence that produced it.

    method is one of "periodic-bisection", "autonomous-closed-form", or
    "no-infection-term" (beta identically zero; value 0 by convention).
    bracket straddles the root: rho at bracket[0] >= 1 >= rho at bracket[1].
    iterations counts spectral-radius evaluations (bracketing plus bisection).
    rho_at_one is rho(Phi_{F-G}(P)); sign(value - 1) == sign(rho_at_one - 1).
    """

    value: float
    method: str
    bracket: tuple[float, float]
    iterations: int
    rho_at_one: float


def build_linearization(params: ModelParameters,
                        t_star: VirusFreeSolution) -> LinearizedSystem:
    """Linearized infection subsystem at the virus-free orbit.

    Raises ParamsMismatch when t_star was generated from other parameters.
    """
    if t_star.params_hash != params.hash_id():
        raise ParamsMismatch("virus-free solution belongs to a different parameter set")
    return LinearizedSystem(t_star=t_star, period=params.period, params=params)


def monodromy(A, period: float, cfg: IntegratorConfig) -> MonodromyResult:
    """Fundamental matrix of z' = A(t) z over [0, period], with its spectrum."""
    n = A(0.0).shape[0]
    sol = integrate_matrix(A, 0.0, period, np.eye(n), cfg)
    eig = np.linalg.eigvals(sol.end_matrix)
    return MonodromyResult(
        matrix=sol.end_matrix,
        spectral_radius=float(np.max(np.abs(eig))),
        eigenvalues=eig,
    )


def spectral_radius(M: np.ndarray) -> float:
    """Maximum eigenvalue modulus of a small dense matrix."""
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix must be finite")
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def rho_for_lambda(lin: LinearizedSystem, lam: float, cfg: IntegratorConfig) -> float:
    """rho of the one-period monodromy of w' = (F/lam - G) w."""
    return monodromy(lin.combined(lam), lin.period, cfg).spectral_radius


def r0_periodic(params: ModelParameters, tol: float = 1e-8,
                cfg: IntegratorConfig | None = None) -> R0Result:
    """Reproduction number of the periodic model by bracketing and bisection.

    Each evaluation of rho(lambda) costs one 3x3 monodromy integration;
    bisection rather than a secant update because rho can be nearly flat
    where the dominant multiplier crosses 1 slowly.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if cfg is None:
        cfg = IntegratorConfig.spectral()
    lin = build_linearization(params, virus_free_closed_form(params))

    if params.beta.is_zero:
        rho_g = rho_for_lambda(lin, 1.0, cfg)  # F == 0: any lambda gives rho(Phi_{-G})
        return R0Result(value=0.0, method="no-infection-term", bracket=(0.0, 0.0),
                        iterations=1, rho_at_one=rho_g)

    rho_at_one = rho_for_lambda(lin, 1.0, cfg)
    evals = 1

    if rho_at_one == 1.0:
        return R0Result(value=1.0, method="periodic-bisection", bracket=(1.0, 1.0),
                        iterations=evals, rho_at_one=rho_at_one)

    # expand until rho(lo) >= 1 >= rho(hi); rho is nonincreasing in lambda
    if rho_at_one > 1.0:
        lo, hi = 1.0, 2.0
        for _ in range(MAX_BRACKET_STEPS):
            rho_hi = rho_for_lambda(lin, hi, cfg)
            evals += 1
            if rho_hi <= 1.0:
                break
            lo, hi = hi, 2.0 * hi
        else:
            raise BracketFailure("no upper bracket within 60 doublings")
    else:
        lo, hi = 0.5, 1.0
        for _ in range(MAX_BRACKET_STEPS):
            rho_lo = rho_for_lambda(lin, lo, cfg)
            evals += 1
            if rho_lo >= 1.0:
                break
            lo, hi = 0.5 * lo, lo
        else:
            raise BracketFailure("no lower bracket within 60 halvings")

    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # interval at floating resolution
            break
        rho_mid = rho_for_lambda(lin, mid, cfg)
        evals += 1
        if rho_mid >= 1.0:
            lo = mid
        else:
            hi = mid

    return R0Result(value=0.5 * (lo + hi), method="periodic-bisection",
                    bracket=(lo, hi), iterations=evals, rho_at_one=rho_at_one)


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
