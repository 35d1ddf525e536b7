"""Adaptive Dormand-Prince 5(4) integration for vectors and square-matrix ODEs.

One embedded Runge-Kutta pair drives everything downstream: plain
simulation, scalar virus-free dynamics, variational equations, and the
monodromy integrations behind the reproduction number. The 5th-order
solution is propagated; the embedded 4th-order solution provides the
error estimate, and a proportional-integral controller adjusts the step.

Error measure per step: err_i / (abs_tol + rel_tol*max(|y0_i|, |y1_i|)),
combined by RMS. Components of the infection model span several orders of
magnitude (cells vs virions), so the mixed absolute/relative weighting is
load-bearing.

Member-axis rule: a state with two or more axes, (m, n) vectors or an
(m, n, n) matrix stack, is a batch of m members along axis 0 sharing one
step sequence. A step is accepted when the worst member's RMS over its
other axes is <= 1, so each member is held to the tolerance it would get
alone; one RMS over the batch would dilute a member's error by sqrt(m).

Off-step values come from the standard quartic dense-output interpolant
on accepted steps, so requested output grids are hit exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Trajectory

__all__ = [
    "IntegrationError",
    "StepLimitExceeded",
    "NonFiniteState",
    "IntegratorConfig",
    "MatrixSolution",
    "integrate",
    "integrate_matrix",
]


class IntegrationError(Exception):
    """Base class for integration failures."""


class StepLimitExceeded(IntegrationError):
    """The step budget ran out before reaching the end time (stiffness signal)."""


class NonFiniteState(IntegrationError):
    """A state component became NaN or infinite (blow-up or bad vector field)."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and step limits for one integration run.

    Defaults suit plain simulation; spectral() tightens them for monodromy
    and reproduction-number work, where spectral radii near 1 are
    threshold-sensitive.
    """

    rel_tol: float = 1e-6
    abs_tol: float = 1e-9
    initial_step: float = 1e-2
    max_step: float = math.inf
    max_steps: int = 10_000_000

    def __post_init__(self) -> None:
        # written so that nan fails every comparison
        if not (0.0 < self.rel_tol < math.inf and 0.0 < self.abs_tol < math.inf):
            raise ValueError("tolerances must be finite and positive")
        if not (0.0 < self.initial_step < math.inf and self.initial_step <= self.max_step):
            raise ValueError("need 0 < initial_step <= max_step, initial_step finite")
        if self.max_steps <= 0:
            raise ValueError("max_steps must be positive")

    @classmethod
    def simulation(cls) -> "IntegratorConfig":
        return cls(rel_tol=1e-6, abs_tol=1e-9)

    @classmethod
    def spectral(cls) -> "IntegratorConfig":
        return cls(rel_tol=1e-9, abs_tol=1e-12)


@dataclass(frozen=True)
class MatrixSolution:
    """End matrix of a matrix-valued integration with step tallies."""

    end_matrix: np.ndarray
    step_count: int
    rejected: int


# Dormand-Prince 5(4) tableau.
_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0)
_A = tuple(
    np.array(row)
    for row in (
        (1.0 / 5.0,),
        (3.0 / 40.0, 9.0 / 40.0),
        (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
        (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
        (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
        (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
    )
)
# 5th-order weights equal the last A row (FSAL); E = b5 - b4 gives the error estimate.
_E = np.array([
    71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0,
    -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0,
])
# Dense-output weights for the quartic interpolant on an accepted step.
_D = np.array([
    -12715105075.0 / 11282082432.0, 0.0, 87487479700.0 / 32700410799.0,
    -10690763975.0 / 1880347072.0, 701980252875.0 / 199316789632.0,
    -1453857185.0 / 822651844.0, 69997945.0 / 29380423.0,
])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_PI_BETA = 0.04
_PI_ALPHA = 0.2 - 0.75 * _PI_BETA


def _dense_eval(theta, y0, y1, h, K):
    """Quartic interpolant at the fractions theta (a 1-D array) of an accepted step."""
    ydiff = y1 - y0
    bspl = h * K[0] - ydiff
    r4 = ydiff - h * K[6] - bspl
    r5 = h * (_D @ K)
    th = theta[:, None]
    return y0 + th * (ydiff + (1.0 - th) * (bspl + th * (r4 + (1.0 - th) * r5)))


def _integrate_core(f, t0, t1, y0, cfg, t_eval):
    """Shared stepping loop.

    A y0 with ndim >= 2 is a batch along axis 0 (the member-axis rule in the
    module docstring). Returns (times, values, y_final, (steps, rejected)),
    with values shaped (len(times),) + y0.shape and y_final shaped like y0.
    With t_eval=None, samples at every accepted step; otherwise exactly at
    the requested (sorted, in-range) times.
    """
    if not (math.isfinite(t0) and math.isfinite(t1) and t1 > t0):
        raise ValueError("need finite t0 < t1")
    y = np.asarray(y0, dtype=float).copy()
    shape = y.shape
    members = shape[0] if y.ndim >= 2 else 1
    if y.ndim >= 2:
        # the stepping loop runs on the flat state; f sees the batch shape
        f_batch = f
        y = y.ravel()

        def f(t, y_flat):
            return f_batch(t, y_flat.reshape(shape)).ravel()
    if not np.all(np.isfinite(y)):
        raise NonFiniteState("initial state is not finite")

    if t_eval is not None:
        t_eval = np.asarray(t_eval, dtype=float)
        if t_eval.ndim != 1 or len(t_eval) == 0:
            raise ValueError("t_eval must be a nonempty 1-D array")
        if np.any(np.diff(t_eval) <= 0.0):
            raise ValueError("t_eval must be strictly increasing")
        if t_eval[0] < t0 - 1e-12 or t_eval[-1] > t1 + 1e-12:
            raise ValueError("t_eval must lie within [t0, t1]")

    times = [t0]
    values = [y.copy()]
    eval_idx = 0
    if t_eval is not None:
        times, values = [], []
        while eval_idx < len(t_eval) and t_eval[eval_idx] <= t0:
            times.append(float(t_eval[eval_idx]))
            values.append(y.copy())
            eval_idx += 1

    atol, rtol = cfg.abs_tol, cfg.rel_tol
    h = min(cfg.initial_step, cfg.max_step, t1 - t0)
    t = t0
    n = len(y)
    K = np.empty((7, n))
    err_old = 1e-4
    rejected_last = False
    n_steps = n_rejected = 0
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values raise below
        K[0] = f(t, y)
        if not np.all(np.isfinite(K[0])):
            raise NonFiniteState(f"vector field not finite at t={t}")

        while t < t1:
            if n_steps >= cfg.max_steps:
                raise StepLimitExceeded(f"max_steps={cfg.max_steps} reached at t={t}")
            h = min(h, cfg.max_step, t1 - t)
            n_steps += 1

            for i in range(1, 7):
                yi = y + h * (_A[i - 1] @ K[:i])
                K[i] = f(t + _C[i] * h, yi)
            y_new = yi  # stage 7 state is the 5th-order solution (FSAL)
            err_vec = h * (_E @ K)

            if not (np.all(np.isfinite(y_new)) and np.all(np.isfinite(err_vec))):
                raise NonFiniteState(f"state became non-finite near t={t}")

            scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
            err = float(np.sqrt(((err_vec / scale) ** 2).reshape(members, -1).mean(-1).max()))

            if err <= 1.0:
                t_new = t + h
                if t_eval is None:
                    times.append(t_new)
                    values.append(y_new.copy())
                else:
                    hi = eval_idx
                    while hi < len(t_eval) and t_eval[hi] <= t_new + 1e-14 * max(1.0, abs(t_new)):
                        hi += 1
                    if hi > eval_idx:
                        theta = (t_eval[eval_idx:hi] - t) / h
                        interp = _dense_eval(theta, y, y_new, h, K)
                        for j, tv in enumerate(t_eval[eval_idx:hi]):
                            times.append(float(tv))
                            values.append(np.asarray(interp[j]))
                        eval_idx = hi
                # PI step-size update
                fac = (err ** _PI_ALPHA) / (err_old ** _PI_BETA)
                fac = max(_MIN_FACTOR,
                          min(_MAX_FACTOR, _SAFETY / fac if fac > 0.0 else _MAX_FACTOR))
                if rejected_last:
                    fac = min(fac, 1.0)
                err_old = max(err, 1e-4)
                t, y = t_new, y_new
                K[0] = K[6]
                h *= fac
                rejected_last = False
            else:
                h *= max(_MIN_FACTOR, _SAFETY * err ** (-_PI_ALPHA))
                n_rejected += 1
                rejected_last = True

    if t_eval is None:
        times[-1] = t1  # the last accepted step lands within rounding of t1
    else:
        # anything left can only be t1 itself (within rounding)
        while eval_idx < len(t_eval):
            times.append(float(t_eval[eval_idx]))
            values.append(y.copy())
            eval_idx += 1
    values_arr = np.asarray(values).reshape((len(times),) + shape)
    return np.asarray(times), values_arr, y.reshape(shape), (n_steps, n_rejected)


def integrate(f, t0: float, t1: float, y0, cfg: IntegratorConfig, t_eval=None):
    """Integrate y' = f(t, y) from t0 to t1.

    y0 is one state of shape (n,) or a batch of m states of shape (m, n);
    f receives and returns arrays of y0's shape. Returns (Trajectory,
    final state), the trajectory states shaped (len(times),) + y0.shape and
    the final state shaped like y0. Without t_eval the trajectory is
    sampled at t0 and every accepted step (t1 included exactly); with
    t_eval it is sampled exactly at the requested times via the
    dense-output interpolant.

    Raises StepLimitExceeded or NonFiniteState on failure.
    """
    if np.ndim(y0) not in (1, 2):
        raise ValueError("y0 must have shape (n,) or (m, n)")
    times, values, y_final, _ = _integrate_core(f, t0, t1, y0, cfg, t_eval)
    return Trajectory(times, values), y_final


def integrate_matrix(A, t0: float, t1: float, M0, cfg: IntegratorConfig) -> MatrixSolution:
    """Integrate the matrix ODE M' = A(t) @ M from M0, an (n, n) matrix or an (m, n, n) stack.

    The stack goes to the stepping loop as it is: by the member-axis rule
    each of its m matrices is one member on its own error norm, and a single
    matrix is a (1, n, n) stack. end_matrix has M0's shape. With M0 = I this
    yields the evolution operator over [t0, t1] (the fundamental matrix when
    t1 - t0 is one period).
    """
    M0 = np.asarray(M0, dtype=float)
    if M0.ndim not in (2, 3) or M0.shape[-1] != M0.shape[-2]:
        raise ValueError("M0 must be a square matrix or a stack of them")
    _, _, m_final, (steps, rejected) = _integrate_core(
        lambda t, m: A(t) @ m, t0, t1, M0.reshape((-1,) + M0.shape[-2:]), cfg,
        t_eval=np.array([t1]))
    return MatrixSolution(end_matrix=m_final.reshape(M0.shape), step_count=steps,
                          rejected=rejected)
