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

Two stepping loops run this one method. A small state, one (n,) vector or
an (m, n) batch of at most FLOAT_LOOP_MAX_VALUES = 64 values, steps on
Python floats, through the field's float form f.floats when f has one
(the model's is `model._field_floats` bound to its params): the model's
(4,) state, its batches of up to 16 members, and Newton shooting's
20-wide state-plus-variational flow take this loop. Every other state
(the (m, n, n) monodromy stacks, larger batches) steps on numpy arrays.
Both loops use the same tableau, controller, checks and messages.
The float loop sums every tableau product and each member's error norm
left to right; the array loop's @ and sum do not, so the two agree to
rounding, and bitwise once the array loop's sums run left to right too.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace

import numpy as np

from .model import Trajectory

__all__ = [
    "IntegrationError",
    "StepLimitExceeded",
    "NonFiniteState",
    "IntegratorConfig",
    "Solution",
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
        if not float(self.max_steps).is_integer():  # also false for nan and inf
            raise ValueError(f"max_steps must be a whole number, got {self.max_steps}")
        if self.max_steps <= 0:
            raise ValueError("max_steps must be positive")
        object.__setattr__(self, "max_steps", int(self.max_steps))

    @classmethod
    def simulation(cls) -> "IntegratorConfig":
        return cls()

    @classmethod
    def spectral(cls) -> "IntegratorConfig":
        return cls(rel_tol=1e-9, abs_tol=1e-12)


@dataclass(frozen=True)
class Solution:
    """One integration: the sampled trajectory, the final state and the step tallies.

    Unpacks as (trajectory, final). next_step suits a following integration
    of the same field as its initial_step. end_matrix is final under the name that
    matrix-ODE callers (the acceptance tests, perfbench's tracer) read.
    """

    trajectory: Trajectory
    final: np.ndarray
    step_count: int
    rejected: int
    # the step the controller proposed after the last accepted step that did
    # not end on t1 (the final one is cut to fit), at most max_step; the
    # configured initial_step when the first accepted step already ended there
    next_step: float

    def __iter__(self):
        return iter((self.trajectory, self.final))

    @property
    def end_matrix(self) -> np.ndarray:
        return self.final


# Largest (n,) or (m, n) state, counted in values, that steps on Python floats.
FLOAT_LOOP_MAX_VALUES = 64

# Dormand-Prince 5(4) tableau, as floats for the float loop and as arrays for the array loop.
_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0)
_A_ROWS = (
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
)
# 5th-order weights equal the last A row (FSAL); E = b5 - b4 gives the error estimate.
_E_ROW = (
    71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0,
    -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0,
)
# Dense-output weights for the quartic interpolant on an accepted step.
_D_ROW = (
    -12715105075.0 / 11282082432.0, 0.0, 87487479700.0 / 32700410799.0,
    -10690763975.0 / 1880347072.0, 701980252875.0 / 199316789632.0,
    -1453857185.0 / 822651844.0, 69997945.0 / 29380423.0,
)
_A = tuple(np.array(row) for row in _A_ROWS)
_E = np.array(_E_ROW)
_D = np.array(_D_ROW)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_PI_BETA = 0.04
_PI_ALPHA = 0.2 - 0.75 * _PI_BETA


def _pi_factor(err: float, err_old: float, rejected_last: bool) -> float:
    """Step-size factor after an accepted step; at most 1 right after a rejection."""
    fac = (err ** _PI_ALPHA) / (err_old ** _PI_BETA)
    fac = max(_MIN_FACTOR, min(_MAX_FACTOR, _SAFETY / fac if fac > 0.0 else _MAX_FACTOR))
    return min(fac, 1.0) if rejected_last else fac


def _dense_eval(theta, y0, y1, h, K):
    """Quartic interpolant at the fractions theta (a 1-D array) of an accepted step."""
    ydiff = y1 - y0
    bspl = h * K[0] - ydiff
    r4 = ydiff - h * K[6] - bspl
    r5 = h * (_D @ K)
    th = theta[:, None]
    return y0 + th * (ydiff + (1.0 - th) * (bspl + th * (r4 + (1.0 - th) * r5)))


def integrate(f, t0: float, t1: float, y0, cfg: IntegratorConfig, t_eval=None) -> Solution:
    """Integrate y' = f(t, y) from t0 to t1.

    y0 is one state of shape (n,) or, by the member-axis rule, a batch of m
    states ((m, n) vectors, an (m, n, n) matrix stack); f receives and
    returns arrays of y0's shape. The trajectory states are shaped
    (len(times),) + y0.shape and the final state like y0. Without t_eval
    the trajectory is sampled at t0 and every accepted step (t1 included
    exactly); with t_eval, strictly increasing and within [t0, t1] exactly,
    it is sampled at those times via the dense-output interpolant (at
    theta = 0 that is the step's start state, so t0 reads back y0).

    Raises StepLimitExceeded or NonFiniteState on failure.
    """
    if np.ndim(y0) < 1:
        raise ValueError("y0 must have at least one axis")
    if not (math.isfinite(t0) and math.isfinite(t1) and t1 > t0):
        raise ValueError("need finite t0 < t1")
    t0, t1 = float(t0), float(t1)
    y = np.asarray(y0, dtype=float).copy()
    shape = y.shape
    if not np.isfinite(y).all():
        raise NonFiniteState("initial state is not finite")
    if t_eval is not None:
        t_eval = np.asarray(t_eval, dtype=float)
        if t_eval.ndim != 1 or len(t_eval) == 0:
            raise ValueError("t_eval must be a nonempty 1-D array")
        if np.any(np.diff(t_eval) <= 0.0):
            raise ValueError("t_eval must be strictly increasing")
        if t_eval[0] < t0 or t_eval[-1] > t1:
            raise ValueError("t_eval must lie within [t0, t1]")

    # non-finite values raise below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if y.ndim <= 2 and 0 < y.size <= FLOAT_LOOP_MAX_VALUES:
            return _integrate_floats(f, t0, t1, y, cfg, t_eval)
        return _integrate_arrays(f, t0, t1, y, cfg, t_eval)


def _integrate_arrays(f, t0, t1, y, cfg, t_eval) -> Solution:
    """The stepping loop on numpy arrays, for every state the float loop does not take."""
    shape = y.shape
    members = shape[0] if y.ndim >= 2 else 1
    per_member = y.size // members if y.size else 1
    if y.ndim >= 2:
        # the stepping loop runs on the flat state; f sees the batch shape
        f_batch = f
        y = y.ravel()

        def f(t, y_flat):
            return f_batch(t, y_flat.reshape(shape)).ravel()
    if t_eval is not None:
        times, values = [], []
    else:
        times, values = [t0], [y.copy()]
    eval_idx = 0

    atol, rtol = cfg.abs_tol, cfg.rel_tol
    h = min(cfg.initial_step, t1 - t0)
    next_step = cfg.initial_step
    t = t0
    n = len(y)
    K = np.empty((7, n))
    err_old = 1e-4
    rejected_last = False
    n_steps = n_rejected = 0
    K[0] = f(t, y)
    if not np.isfinite(K[0]).all():
        raise NonFiniteState(f"vector field not finite at t={t}")

    while t < t1:
        if n_steps >= cfg.max_steps:
            raise StepLimitExceeded(f"max_steps={cfg.max_steps} reached at t={t}")
        h = min(h, cfg.max_step, t1 - t)
        last_leg = h == t1 - t  # this step ends on t1
        n_steps += 1

        for i in range(1, 7):
            yi = y + h * (_A[i - 1] @ K[:i])
            K[i] = f(t + _C[i] * h, yi)
        y_new = yi  # stage 7 state is the 5th-order solution (FSAL)
        err_vec = h * (_E @ K)

        if not (np.isfinite(y_new).all() and np.isfinite(err_vec).all()):
            raise NonFiniteState(f"state became non-finite near t={t}")

        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        # max of the member sums, then / per_member: the max of the member means
        err = math.sqrt(float(((err_vec / scale) ** 2).reshape(members, -1).sum(-1).max())
                        / per_member)

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
            h *= _pi_factor(err, err_old, rejected_last)
            if not last_leg:
                next_step = h
            err_old = max(err, 1e-4)
            t, y = t_new, y_new
            K[0] = K[6]
            rejected_last = False
        else:
            h *= max(_MIN_FACTOR, _SAFETY * err ** (-_PI_ALPHA))
            n_rejected += 1
            rejected_last = True

    if t_eval is None:
        times[-1] = t1  # the last accepted step lands within rounding of t1
    values_arr = np.asarray(values).reshape((len(times),) + shape)
    return Solution(Trajectory(times, values_arr), y.reshape(shape), n_steps, n_rejected,
                    min(next_step, cfg.max_step))


def _integrate_floats(f, t0, t1, y, cfg, t_eval) -> Solution:
    """The stepping loop on Python floats, for small (n,) and (m, n) states.

    The array loop's tableau, controller, checks and messages, with every
    coefficient sum and every member's sum of squared error ratios written
    out left to right. The field is f.floats when f has it: f on a flat list
    of floats, returning a list, which may raise ZeroDivisionError where
    numpy would give inf or nan. Without it, f is called on arrays of y's
    shape.
    """
    shape = y.shape
    width = shape[-1]  # one member's values
    field = getattr(f, "floats", None)
    if field is None:
        def field(t, ys):
            return np.ravel(f(t, np.array(ys).reshape(shape))).tolist()
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65), (a71, a72, a73, a74, a75, a76) = _A_ROWS
    e1, e2, e3, e4, e5, e6, e7 = _E_ROW
    d1, d2, d3, d4, d5, d6, d7 = _D_ROW
    _, c2, c3, c4, c5, c6, c7 = _C
    isfinite = math.isfinite
    atol, rtol = cfg.abs_tol, cfg.rel_tol
    max_steps, max_step = cfg.max_steps, cfg.max_step
    t = t0
    ys = y.ravel().tolist()
    if t_eval is None:
        grid = None
        times, samples = [t], array("d", ys)
    else:
        grid = t_eval.tolist()
        times, samples = [], array("d")
    eval_idx = 0

    h = min(cfg.initial_step, t1 - t0)
    next_step = cfg.initial_step
    err_old = 1e-4
    rejected_last = False
    n_steps = n_rejected = 0
    try:
        k0 = field(t, ys)
    except ZeroDivisionError:
        k0 = [math.nan]
    if not all(map(isfinite, k0)):
        raise NonFiniteState(f"vector field not finite at t={t}")

    while t < t1:
        if n_steps >= max_steps:
            raise StepLimitExceeded(f"max_steps={max_steps} reached at t={t}")
        h = min(h, max_step, t1 - t)
        last_leg = h == t1 - t  # this step ends on t1
        n_steps += 1

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
            # the stage 7 state is the 5th-order solution (FSAL)
            y_new = [y + h * (a71 * p + a72 * q + a73 * r + a74 * s + a75 * u + a76 * v)
                     for y, p, q, r, s, u, v in zip(ys, k0, k1, k2, k3, k4, k5)]
            k6 = field(t + c7 * h, y_new)
        except ZeroDivisionError:  # numpy's inf or nan would fail the check below
            raise NonFiniteState(f"state became non-finite near t={t}") from None
        err_vec = [h * (e1 * p + e2 * q + e3 * r + e4 * s + e5 * u + e6 * v + e7 * w)
                   for p, q, r, s, u, v, w in zip(k0, k1, k2, k3, k4, k5, k6)]

        if not (all(map(isfinite, y_new)) and all(map(isfinite, err_vec))):
            raise NonFiniteState(f"state became non-finite near t={t}")

        ratios = [e / (atol + rtol * (y if y >= z else z))
                  for e, y, z in zip(err_vec, map(abs, ys), map(abs, y_new))]
        # the largest member sum of squares, each summed left to right, then / width
        worst = 0.0
        for i in range(0, len(ratios), width):
            acc = 0.0
            for e in ratios[i:i + width]:
                acc += e * e
            if acc > worst:
                worst = acc
        err = math.sqrt(worst / width)

        if err <= 1.0:
            t_new = t + h
            if grid is None:
                times.append(t_new)
                samples.extend(y_new)
            else:
                hi = eval_idx
                while hi < len(grid) and grid[hi] <= t_new + 1e-14 * max(1.0, abs(t_new)):
                    hi += 1
                if hi > eval_idx:
                    # the quartic interpolant, as _dense_eval evaluates it
                    ydiff = [z - y for y, z in zip(ys, y_new)]
                    bspl = [h * p - dy for p, dy in zip(k0, ydiff)]
                    r4 = [dy - h * w - b for dy, w, b in zip(ydiff, k6, bspl)]
                    r5 = [h * (d1 * p + d2 * q + d3 * r + d4 * s + d5 * u + d6 * v + d7 * w)
                          for p, q, r, s, u, v, w in zip(k0, k1, k2, k3, k4, k5, k6)]
                    for tv in grid[eval_idx:hi]:
                        th = (tv - t) / h
                        th1 = 1.0 - th
                        samples.extend([y + th * (dy + th1 * (b + th * (r + th1 * s)))
                                        for y, dy, b, r, s in zip(ys, ydiff, bspl, r4, r5)])
                    times += grid[eval_idx:hi]
                    eval_idx = hi
            h *= _pi_factor(err, err_old, rejected_last)
            if not last_leg:
                next_step = h
            err_old = max(err, 1e-4)
            t, ys = t_new, y_new
            k0 = k6
            rejected_last = False
        else:
            h *= max(_MIN_FACTOR, _SAFETY * err ** (-_PI_ALPHA))
            n_rejected += 1
            rejected_last = True

    if grid is None:
        times[-1] = t1  # the last accepted step lands within rounding of t1
    states = np.frombuffer(samples).reshape((len(times),) + shape)
    return Solution(Trajectory(times, states), np.array(ys).reshape(shape), n_steps, n_rejected,
                    min(next_step, max_step))


def integrate_matrix(A, t0: float, t1: float, M0, cfg: IntegratorConfig) -> Solution:
    """Integrate the matrix ODE M' = A(t) @ M from M0, an (n, n) matrix or an (m, n, n) stack.

    The stack goes to `integrate` as it is: by the member-axis rule each of
    its m matrices is one member on its own error norm, and a single matrix
    is a (1, n, n) stack. Sampled at t1 only; end_matrix has M0's shape.
    With M0 = I this yields the evolution operator over [t0, t1] (the
    fundamental matrix when t1 - t0 is one period).
    """
    M0 = np.asarray(M0, dtype=float)
    if M0.ndim not in (2, 3) or M0.shape[-1] != M0.shape[-2]:
        raise ValueError("M0 must be a square matrix or a stack of them")
    sol = integrate(lambda t, m: A(t) @ m, t0, t1, M0.reshape((-1,) + M0.shape[-2:]), cfg,
                    t_eval=np.array([t1]))
    return replace(sol, final=sol.final.reshape(M0.shape))
