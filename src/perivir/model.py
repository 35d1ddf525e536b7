"""Within-host viral infection model with Crowley-Martin incidence.

The state is (T, E, I, V): healthy target cells, exposed cells, actively
infected cells, and free virions. Cell birth, cell death, and infection
rates oscillate with a common period (circadian forcing), each as a
single-harmonic sine around a positive mean:

    dT/dt = mu(t) - beta(t)*T*V / ((1 + c1*T)(1 + c2*V)) - d(t)*T
    dE/dt = beta(t)*T*V / ((1 + c1*T)(1 + c2*V)) - (k + d(t))*E
    dI/dt = k*E - (delta + d(t))*I
    dV/dt = p*I - c*V

The three share one angular frequency, a field of `ModelParameters`, whose
`rates(t)` gives mu, beta and d at t from one sine. All rates are per
hour, time is in hours. This module holds the domain types, the vector
field, and its analytic Jacobian; everything is immutable and
side-effect free.

The field has one formula per number type: `rhs` on numpy arrays and,
on flat lists of floats, `_field_source`'s generated straight-line form,
one compiled function per member count (`_field_kernel`), built on first
use like the integrator's step kernels. `jacobian` has no caller in
perivir; it is the oracle of `periodic._augmented_field`'s Phi block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial
from operator import attrgetter
from typing import get_type_hints

import numpy as np

__all__ = [
    "SinusoidalCoefficient",
    "ModelParameters",
    "State",
    "Trajectory",
    "incidence",
    "rhs",
    "jacobian",
    "vector_field",
]


@dataclass(frozen=True)
class SinusoidalCoefficient:
    """One periodic rate of the form mean + amplitude*sin(angular_frequency*t).

    The angular frequency is the one that mu, beta and d share, held by
    ModelParameters. amplitude < mean keeps the coefficient strictly
    positive for all t. The identically-zero coefficient (mean ==
    amplitude == 0) is admitted so a model without transmission (beta ==
    0) stays representable; the birth and death rates are required to be
    strictly positive at the ModelParameters level.
    """

    mean: float
    amplitude: float

    def __post_init__(self) -> None:
        for name in ("mean", "amplitude"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.mean < 0.0:
            raise ValueError("mean must be nonnegative")
        if self.amplitude < 0.0:
            raise ValueError("amplitude must be nonnegative")
        if self.amplitude >= self.mean and not self.is_zero:
            raise ValueError("amplitude must be strictly less than mean")

    @property
    def is_zero(self) -> bool:
        return self.mean == 0.0 and self.amplitude == 0.0


@dataclass(frozen=True)
class ModelParameters:
    """Full parameter set: the forcing frequency, three periodic coefficients, the constant rates.

    mu, beta and d oscillate at the one angular_frequency; the common period
    is exposed as `period`, and their values at t as `rates(t)`.
    """

    angular_frequency: float
    mu: SinusoidalCoefficient
    beta: SinusoidalCoefficient
    d: SinusoidalCoefficient
    k: float
    delta: float
    p: float
    c: float
    c1: float
    c2: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.angular_frequency):
            raise ValueError("angular_frequency must be finite")
        if self.angular_frequency <= 0.0:
            raise ValueError("angular_frequency must be positive")
        for name in ("k", "delta", "p", "c"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be strictly positive")
        for name in ("c1", "c2"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be nonnegative")
        if self.mu.mean <= 0.0:
            raise ValueError("mu.mean must be strictly positive")
        if self.d.mean <= 0.0:
            raise ValueError("d.mean must be strictly positive")

    @property
    def period(self) -> float:
        """Common period of the coefficients, 2*pi/angular_frequency (hours)."""
        return 2.0 * math.pi / self.angular_frequency

    def rates(self, t) -> tuple:
        """(mu(t), beta(t), d(t)) from one shared sine: math.sin at a number t, else np.sin."""
        w = self.angular_frequency
        s = (math.sin(w * t) if isinstance(t, (float, int))
             else np.sin(w * np.asarray(t, dtype=float)))
        mu, beta, d = self.mu, self.beta, self.d
        return mu.mean + mu.amplitude * s, beta.mean + beta.amplitude * s, d.mean + d.amplitude * s

    @property
    def flat(self) -> tuple[float, ...]:
        """The 13 rates in field order, a coefficient as its mean and amplitude."""
        return _flat_rates(self)


# The parameter names, from the dataclasses: the config schema and sweep read these.
_PARAM_TYPES = get_type_hints(ModelParameters)
COEFF_NAMES = tuple(n for n, t in _PARAM_TYPES.items() if t is SinusoidalCoefficient)
CONSTANT_NAMES = tuple(n for n, t in _PARAM_TYPES.items() if t is float)
COEFF_KEYS = tuple(get_type_hints(SinusoidalCoefficient))
# ModelParameters.flat, the arguments that the float forms of the fields bind
_flat_rates = attrgetter(*(n for name, t in _PARAM_TYPES.items() for n in (
    [f"{name}.{key}" for key in COEFF_KEYS] if t is SinusoidalCoefficient else [name])))


@dataclass(frozen=True)
class State:
    """One point (T, E, I, V) of the admissible cone: all densities nonnegative."""

    t_cells: float
    e_cells: float
    i_cells: float
    virus: float

    def __post_init__(self) -> None:
        for name in ("t_cells", "e_cells", "i_cells", "virus"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} must be finite and nonnegative")

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array([self.t_cells, self.e_cells, self.i_cells, self.virus], dtype=dtype)

    as_array = __array__

    @classmethod
    def from_array(cls, y) -> "State":
        """The State of a State or length-4 array-like, which must lie in the cone."""
        return cls(*np.asarray(y, dtype=float).tolist())


@dataclass(frozen=True)
class Trajectory:
    """Time-stamped states from one integration run.

    `states` has one row per time point; rows hold whatever shape the
    integrated state has: (4,) for one infection-model state, (m, 4) for a
    batch of m members sharing the time grid.
    """

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "states", np.asarray(self.states, dtype=float))
        if self.times.ndim != 1 or self.states.ndim < 2:
            raise ValueError("times must be 1-D and states at least 2-D")
        if len(self.times) != len(self.states):
            raise ValueError("times and states must have equal length")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0.0):
            raise ValueError("times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.times)

    def window(self, t_from: float, t_to: float) -> "Trajectory":
        """Sub-trajectory with t_from <= t <= t_to (small tolerance on the edges)."""
        eps = 1e-9 * max(1.0, abs(t_to))
        m = (self.times >= t_from - eps) & (self.times <= t_to + eps)
        return Trajectory(self.times[m], self.states[m])


def incidence(beta_t: float, t_cells, virus, c1: float, c2: float):
    """Crowley-Martin infection rate beta(t)*T*V / ((1 + c1*T)(1 + c2*V)).

    Saturates in both densities; bounded above by beta_t*T*V, and by
    beta_t/(c1*c2) as T, V grow when both saturation constants are positive.
    """
    return beta_t * t_cells * virus / ((1.0 + c1 * t_cells) * (1.0 + c2 * virus))


def incidence_partials(beta_t: float, t_cells: float, virus: float, c1: float, c2: float):
    """The incidence's partial derivatives (d(inc)/dT, d(inc)/dV) at one state.

        d(inc)/dT = beta(t)*V / ((1 + c1*T)^2 (1 + c2*V)),
        d(inc)/dV = beta(t)*T / ((1 + c1*T)(1 + c2*V)^2).
    """
    qT = 1.0 + c1 * t_cells
    qV = 1.0 + c2 * virus
    return beta_t * virus / (qT * qT * qV), beta_t * t_cells / (qT * qV * qV)


def _field_source(m: int) -> str:
    """Source of the vector field on m members, a flat list of floats (T, E, I, V per member).

    field(w, mu0, mu1, beta0, beta1, d0, d1, k, delta, p, c, c1, c2, t, ys):
    the angular frequency, the mean and amplitude of mu, beta and d, and the
    constant rates, then a number t. One sine, then `rhs`'s operations in
    its order, each member written out, so bitwise equal to it, except that
    a zero incidence denominator raises ZeroDivisionError, not inf or nan.
    """
    members = range(m)
    lines = ["def field(w, mu0, mu1, beta0, beta1, d0, d1, k, delta, p, c, c1, c2, t, ys):",
             "    s = sin(w * t)",
             "    mu_t, beta_t, d_t = mu0 + mu1 * s, beta0 + beta1 * s, d0 + d1 * s",
             "    kd, dd = k + d_t, delta + d_t",
             "    " + " ".join(f"T{i}, E{i}, I{i}, V{i}," for i in members) + " = ys"]
    lines += [f"    inc{i} = beta_t * T{i} * V{i} / ((1.0 + c1 * T{i}) * (1.0 + c2 * V{i}))"
              for i in members]
    lines += ["    return ["]
    lines += [f"        mu_t - inc{i} - d_t * T{i}, inc{i} - kd * E{i}, "
              f"k * E{i} - dd * I{i}, p * I{i} - c * V{i}," for i in members]
    lines.append("    ]")
    return "\n".join(lines) + "\n"


@cache
def _field_kernel(m: int):
    """The compiled field of _field_source(m), built on first use and kept for the process."""
    namespace = {"sin": math.sin}
    exec(compile(_field_source(m), f"<perivir field {m}>", "exec"), namespace)
    return namespace["field"]


def rhs(t: float, state, params: ModelParameters) -> np.ndarray:
    """Vector field of the model at time t.

    `state` is a State or array-like: one length-4 state or a (..., 4)
    batch of states; the result is an array of the matching shape. An
    array t must broadcast against one component of `state.T`.
    """
    T, E, I, V = np.asarray(state, dtype=float).T
    mu_t, beta_t, d_t = params.rates(t)
    inc = incidence(beta_t, T, V, params.c1, params.c2)
    dT = mu_t - inc - d_t * T
    dE = inc - (params.k + d_t) * E
    dI = params.k * E - (params.delta + d_t) * I
    dV = params.p * I - params.c * V
    return np.array([dT, dE, dI, dV]).T


def jacobian(t: float, state, params: ModelParameters) -> np.ndarray:
    """Analytic 4x4 Jacobian of `rhs` with respect to one state, a State or array-like.

    The incidence partials come from `incidence_partials`. Kept analytic
    because it feeds variational equations over full periods, where
    finite-difference noise compounds.
    """
    T, _, _, V = np.asarray(state, dtype=float).tolist()
    _, beta_t, d_t = params.rates(t)
    dinc_dT, dinc_dV = incidence_partials(beta_t, T, V, params.c1, params.c2)
    k, delta, p, c = params.k, params.delta, params.p, params.c
    return np.array([
        [-dinc_dT - d_t, 0.0, 0.0, -dinc_dV],
        [dinc_dT, -(k + d_t), 0.0, dinc_dV],
        [0.0, k, -(delta + d_t), 0.0],
        [0.0, 0.0, p, -c],
    ])


def vector_field(params: ModelParameters):
    """Closure f(t, y) over a fixed parameter set, for the integrator.

    f is `rhs` on one state (4,) or a batch (m, 4). f.floats(n) is the
    same field on a flat list of n floats, n/4 members: `_field_kernel(n // 4)`
    with params' rates bound, which the integrator's float steps call. The
    rates are bound when f.floats is called, never compiled in, so one
    kernel serves every parameter set.
    """
    def f(t, y):
        return rhs(t, y, params)

    f.floats = lambda n: partial(_field_kernel(n // 4), *params.flat)
    return f


# The step controller bounds each member's RMS of component errors weighted
# by abs_tol + rel_tol*|y|, which leaves any single component of a 4-state
# a sqrt(4) slack whatever the batch size, and errors accumulate over a few
# adjacent steps near the zero face. A band of 4*abs_tol covers the
# observed worst case with margin while staying well below any meaningful
# density threshold.
POSITIVITY_BAND_FACTOR = 4.0


def clamp_small_negatives(values: np.ndarray, abs_tol: float) -> np.ndarray:
    """Zero out components within the rounding band [-4*abs_tol, 0).

    True solutions stay positive, so undershoot on this scale is rounding,
    not dynamics. Anything below the band is left untouched for the
    invariant monitor to flag as a genuine positivity violation.
    """
    out = np.array(values, dtype=float, copy=True)
    mask = (out < 0.0) & (out >= -POSITIVITY_BAND_FACTOR * abs_tol)
    out[mask] = 0.0
    return out
