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
on accepted steps, so requested output grids are hit exactly. The loop
does not evaluate it while stepping: each step with samples records its
stages, and one numpy pass (_dense_output) evaluates the samples of up
to _DENSE_CHUNK such steps together, operation for operation as the
per-sample formula with its sums left to right, and so bitwise equal
to it.

The step sequence does not depend on t_eval, so neither do the final
state, the tallies and next_step. An empty t_eval records nothing, and
every caller that reads only those passes one.

One stepping loop (_stepping_loop) runs this method with either of two
step kinds, chosen by the state's shape. A small state, one (n,) vector
or an (m, n) batch of at most FLOAT_LOOP_MAX_VALUES = 64 values, steps
on Python floats. When f has a float form, f.floats(n) returns the field
on a flat list of n floats; integrate calls it once per integration,
after the shape has picked float steps. A field written by hand on
lists of floats is its own float form, f.floats(n) returning f. Every
other state (any (m, n, n), so every integrate_matrix stack, and larger
batches) steps on a flat numpy array (_array_step).
Both kinds share the tableau, checks and messages, and the loop holds
the controller, the step budget and the samples for both. A float step
writes no term for a zero tableau weight and sums the other tableau
products and each member's error norm left to right; an array step's @
and sum do not, so the two agree to rounding. Once the array step's sums
run left to right too they agree bit for bit on finite stages, up to the
sign of a zero: the array step keeps its zero columns, and adding
0.0 * k to a sum of -0.0 gives +0.0.

Each float step is one straight-line function per (values, member
width), generated from the tableau and compiled on first use, then kept
for the process (_step_kernel): on states this small a step's cost is
per-call overhead. Nothing is built at import, since a build is almost
all compile, whose time and peak RSS grow with the source. The model's
field, which a step calls six times, is generated the same way
(model._field_kernel); the step kernel does not inline it for that reason.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass, replace

import numpy as np

from .model import Trajectory

__all__ = [
    "NumericalFailure",
    "IntegrationError",
    "StepLimitExceeded",
    "NonFiniteState",
    "IntegratorConfig",
    "Solution",
    "integrate",
    "integrate_matrix",
]


class NumericalFailure(RuntimeError):
    """Base class for failures of the numerics on admissible input (CLI exit 3)."""


class IntegrationError(NumericalFailure):
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

# Dormand-Prince 5(4) tableau, as floats for the float steps and as arrays for the array step.
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

# Steps whose samples are evaluated together: bounds the stages a grid's dense output keeps.
# The step that reaches t1 takes the grid's last sample and evaluates what is left.
_DENSE_CHUNK = 256

# The PI controller, inline in _stepping_loop: an accepted step scales h by
# SAFETY * err_old^BETA / err^ALPHA in [MIN_FACTOR, MAX_FACTOR], at most 1 after a
# rejection; a rejected one by SAFETY * err^-ALPHA, at least MIN_FACTOR.
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_PI_BETA = 0.04
_PI_ALPHA = 0.2 - 0.75 * _PI_BETA


def _step_source(n: int, width: int) -> str:
    """Source of the attempted float step on n values in members of `width` values.

    step(field, t, h, ys, k0, atol, rtol) returns (y_new, k1, ..., k6, err):
    stages 2-7, err_vec, the error ratios and the largest member sum of
    squared ratios, each written out value by value. A zero tableau weight
    gets no term, so k1 enters neither y_new nor err_vec; the terms of the
    nonzero weights are summed left to right, as the tableau rows read.
    The step raises NonFiniteState when the field raises ZeroDivisionError
    or y_new or err_vec is not finite.
    """
    letters = "pqrsuvw"  # k0 .. k6; y is the state, z the new state, e the error, x the ratio

    def names(letter):
        return ", ".join(f"{letter}{i}" for i in range(n)) + ","

    def row(coefficients, i):  # never regrouped: h * (a*p + b*q) is not h*a*p + h*b*q
        return " + ".join(f"{a!r} * {letters[j]}{i}" for j, a in enumerate(coefficients) if a)

    def states(coefficients):
        return ", ".join(f"y{i} + h * ({row(coefficients, i)})" for i in range(n))

    lines = ["def step(field, t, h, ys, k0, atol, rtol):",
             f"    {names('y')} = ys",
             f"    {names('p')} = k0",
             "    try:"]
    lines += [f"        {names(letters[j])} = k{j} = field(t + {_C[j]!r} * h, [{states(a_row)}])"
              for j, a_row in enumerate(_A_ROWS[:-1], 1)]
    lines += [f"        y_new = [{states(_A_ROWS[-1])}]",  # the 5th-order solution (FSAL)
              f"        {names('w')} = k6 = field(t + {_C[6]!r} * h, y_new)",
              "    except ZeroDivisionError:",  # numpy's inf or nan would fail the check below
              "        raise NonFiniteState(f'state became non-finite near t={t}') from None",
              f"    {names('z')} = y_new"]
    lines += [f"    e{i} = h * ({row(_E_ROW, i)})" for i in range(n)]
    lines += [f"    if not (all(map(isfinite, y_new)) and all(map(isfinite, ({names('e')})))):",
              "        raise NonFiniteState(f'state became non-finite near t={t}')"]
    lines += [f"    x{i} = e{i} / (atol + rtol * (a if (a := abs(y{i})) >= (b := abs(z{i})) else b))"
              for i in range(n)]
    lines.append("    worst = 0.0")
    for first in range(0, n, width):
        squares = " + ".join(f"x{i} * x{i}" for i in range(first, first + width))
        lines += [f"    acc = {squares}", "    if acc > worst: worst = acc"]
    lines.append(f"    return y_new, k1, k2, k3, k4, k5, k6, sqrt(worst / {width})")
    return "\n".join(lines) + "\n"


@functools.cache
def _step_kernel(n: int, width: int):
    """The compiled step of _step_source(n, width), built on first use and kept for the process."""
    namespace = {"isfinite": math.isfinite, "sqrt": math.sqrt, "NonFiniteState": NonFiniteState}
    exec(compile(_step_source(n, width), f"<perivir step kernel {n}x{width}>", "exec"), namespace)
    return namespace["step"]


def _array_step(width, field, t, h, ys, k0, atol, rtol):
    """The attempted step on a flat numpy state, with _step_kernel's contract.

    The same tableau, check and message as the kernels, but each tableau
    product is one @ on the stage matrix and each member's sum of squared
    error ratios, over `width` values, one numpy sum.
    """
    K = np.empty((7, len(ys)))
    K[0] = k0
    for i in range(1, 7):
        yi = ys + h * (_A[i - 1] @ K[:i])
        K[i] = field(t + _C[i] * h, yi)
    err_vec = h * (_E @ K)  # yi is now the 5th-order solution (FSAL)
    if not (np.isfinite(yi).all() and np.isfinite(err_vec).all()):
        raise NonFiniteState(f"state became non-finite near t={t}")
    scale = atol + rtol * np.maximum(np.abs(ys), np.abs(yi))
    # max of the member sums, then / width: the max of the member means
    err = math.sqrt(float(((err_vec / scale) ** 2).reshape(-1, width).sum(-1).max()) / width)
    return yi, K[1], K[2], K[3], K[4], K[5], K[6], err


def _dense_output(out, grid, counts, starts, sizes, stages) -> None:
    """Write the quartic interpolant at the samples grid into out, one row per sample.

    Step j of starts and sizes, the j-th step with samples, takes the next
    counts[j] samples; stages holds its y, y_new and k0 .. k6, one row of
    values each. Each sample gets the bits of
    y + theta*(ydiff + (1 - theta)*(bspl + theta*(r4 + (1 - theta)*r5))),
    r5 = h * (D . K) summed left to right over D's nonzero weights (k1 gets
    no term, as in the step kernels): numpy rounds each elementwise
    operation as Python floats do, and the in-place Horner steps below only
    swap the operands of + and *.
    """
    rows = np.frombuffer(stages).reshape(len(counts), 9, -1)
    y, y_new, K = rows[:, 0], rows[:, 1], rows[:, 2:]
    h = np.array(sizes)[:, None]
    r5 = _D_ROW[0] * K[:, 0]
    for j in range(2, 7):
        r5 += _D_ROW[j] * K[:, j]
    r5 *= h
    which = np.repeat(np.arange(len(counts)), counts)
    theta = ((grid - np.array(starts)[which]) / h[which, 0])[:, None]
    theta1 = 1.0 - theta
    ydiff = y_new - y
    bspl = h * K[:, 0] - ydiff
    np.take(r5, which, axis=0, out=out)
    out *= theta1
    out += (ydiff - h * K[:, 6] - bspl)[which]  # r4
    out *= theta
    out += bspl[which]
    out *= theta1
    out += ydiff[which]
    out *= theta
    out += y[which]


def integrate(f, t0: float, t1: float, y0, cfg: IntegratorConfig, t_eval=None) -> Solution:
    """Integrate y' = f(t, y) from t0 to t1.

    y0 is one state of shape (n,) or, by the member-axis rule, a batch of m
    states ((m, n) vectors, an (m, n, n) matrix stack); f receives and
    returns arrays of y0's shape. The trajectory states are shaped
    (len(times),) + y0.shape and the final state like y0. Without t_eval
    the trajectory is sampled at t0 and every accepted step (t1 included
    exactly); with t_eval, strictly increasing and within [t0, t1] exactly,
    it is sampled at those times via the dense-output interpolant (at
    theta = 0 that is the step's start state, so t0 reads back y0). An
    empty t_eval samples nothing and changes no other field of the result.

    Raises StepLimitExceeded or NonFiniteState on failure.
    """
    if np.ndim(y0) < 1 or np.size(y0) == 0:
        raise ValueError("y0 must have at least one axis and at least one value")
    if not (math.isfinite(t0) and math.isfinite(t1) and t1 > t0):
        raise ValueError("need finite t0 < t1")
    t0, t1 = float(t0), float(t1)
    y = np.asarray(y0, dtype=float).copy()
    if not np.isfinite(y).all():
        raise NonFiniteState("initial state is not finite")
    if t_eval is not None:
        t_eval = np.asarray(t_eval, dtype=float)
        if t_eval.ndim != 1:
            raise ValueError("t_eval must be a 1-D array")
        if np.any(np.diff(t_eval) <= 0.0):
            raise ValueError("t_eval must be strictly increasing")
        if len(t_eval) and (t_eval[0] < t0 or t_eval[-1] > t1):
            raise ValueError("t_eval must lie within [t0, t1]")

    shape = y.shape
    width = y.size // len(y) if y.ndim >= 2 else y.size  # one member's values
    if y.ndim <= 2 and y.size <= FLOAT_LOOP_MAX_VALUES:
        step, put, ys = _step_kernel(y.size, width), array.extend, y.ravel().tolist()
        floats = getattr(f, "floats", None)
        if floats is not None:
            field = floats(y.size)
        else:
            def field(t, ys):
                return np.ravel(f(t, np.array(ys).reshape(shape))).tolist()
    else:
        step, ys = functools.partial(_array_step, width), y.ravel()

        def put(buffer, row):  # extend would iterate the row's numpy scalars
            buffer.frombytes(row.tobytes())

        def field(t, ys):
            return f(t, ys.reshape(shape)).ravel()
    # non-finite values raise in the step
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return _stepping_loop(field, step, put, t0, t1, ys, shape, cfg, t_eval)


def _stepping_loop(field, step, put, t0, t1, ys, shape, cfg, t_eval) -> Solution:
    """The stepping loop: step size, controller, step budget and samples, for either step kind.

    ys is y0 flat, as a list of floats or as an array, and field takes and
    returns the same kind. step(field, t, h, ys, k0, atol, rtol) attempts
    one step and returns (y_new, k1, ..., k6, err); put(buffer, row)
    appends a row's values to an array('d'). The field may raise
    ZeroDivisionError where numpy would give inf or nan. Each attempted
    step computes only what it uses: the controller inline on local
    names, and the sample edge only while samples are left.
    """
    atol, rtol = cfg.abs_tol, cfg.rel_tol
    max_steps, max_step = cfg.max_steps, cfg.max_step
    safety, min_factor, max_factor = _SAFETY, _MIN_FACTOR, _MAX_FACTOR
    alpha, beta = _PI_ALPHA, _PI_BETA
    t = t0
    if t_eval is None:
        grid = None
        times, samples = [t], array("d")
        put(samples, ys)
    else:
        grid = t_eval.tolist()
        n_grid = len(grid)
        states = np.empty((n_grid, len(ys)))
        # steps with samples not yet in states: sample counts, t, h, and y, y_new, k0 .. k6
        counts, starts, sizes, stages = [], [], [], array("d")
    eval_idx = done = 0

    h = min(cfg.initial_step, t1 - t0)
    next_step = cfg.initial_step
    err_old = 1e-4
    rejected_last = False
    n_steps = n_rejected = 0
    try:
        k0 = field(t, ys)
    except ZeroDivisionError:
        k0 = [math.nan]
    if not all(map(math.isfinite, k0)):
        raise NonFiniteState(f"vector field not finite at t={t}")

    # min and max are written out as comparisons, with no builtin call, each picking
    # the operand min or max would pick, ties and nan included
    while t < t1:
        if n_steps >= max_steps:
            raise StepLimitExceeded(f"max_steps={max_steps} reached at t={t}")
        if max_step < h:
            h = max_step
        rest = t1 - t
        if rest < h:
            h = rest
        last_leg = h == rest  # this step ends on t1
        n_steps += 1

        y_new, k1, k2, k3, k4, k5, k6, err = step(field, t, h, ys, k0, atol, rtol)

        if err <= 1.0:
            t_new = t + h
            if grid is None:
                times.append(t_new)
                put(samples, y_new)
            elif eval_idx < n_grid:
                edge = t_new + 1e-14 * (a if (a := abs(t_new)) > 1.0 else 1.0)
                hi = eval_idx
                while hi < n_grid and grid[hi] <= edge:
                    hi += 1
                if hi > eval_idx:
                    counts.append(hi - eval_idx)
                    starts.append(t)
                    sizes.append(h)
                    for row in (ys, y_new, k0, k1, k2, k3, k4, k5, k6):
                        put(stages, row)
                    eval_idx = hi
                    if len(counts) == _DENSE_CHUNK or hi == n_grid:
                        _dense_output(states[done:hi], t_eval[done:hi], counts, starts, sizes,
                                      stages)
                        done = hi
                        counts, starts, sizes, stages = [], [], [], array("d")
            fac = err ** alpha / err_old ** beta
            fac = safety / fac if fac > 0.0 else max_factor
            fac = (fac if fac > min_factor else min_factor) if fac < max_factor else max_factor
            h *= 1.0 if rejected_last and 1.0 < fac else fac
            if not last_leg:
                next_step = h
            err_old = 1e-4 if 1e-4 > err else err
            t, ys = t_new, y_new
            k0 = k6
            rejected_last = False
        else:
            fac = safety * err ** -alpha
            h *= fac if fac > min_factor else min_factor
            n_rejected += 1
            rejected_last = True

    if grid is None:
        times[-1] = t1  # the last accepted step lands within rounding of t1
        states = np.frombuffer(samples)
    else:
        times = grid
    return Solution(Trajectory(times, states.reshape((len(times),) + shape)),
                    np.array(ys).reshape(shape), n_steps, n_rejected, min(next_step, max_step))


def integrate_matrix(A, t0: float, t1: float, M0, cfg: IntegratorConfig) -> Solution:
    """Integrate the matrix ODE M' = A(t) @ M from M0, an (n, n) matrix or an (m, n, n) stack.

    By the member-axis rule each of the stack's m matrices is one member on
    its own error norm, the RMS over its n*n values, and a single matrix is
    a stack of one. Every stack goes to `integrate` as it is, with the field
    A(t) @ M, and steps on arrays. The trajectory is empty; end_matrix has
    M0's shape. With M0 = I this yields the evolution operator over
    [t0, t1] (the fundamental matrix over one period).
    """
    M0 = np.asarray(M0, dtype=float)
    if M0.ndim not in (2, 3) or M0.shape[-1] != M0.shape[-2]:
        raise ValueError("M0 must be a square matrix or a stack of them")
    stack = M0.reshape((-1,) + M0.shape[-2:])
    sol = integrate(lambda t, m: A(t) @ m, t0, t1, stack, cfg, t_eval=())
    return replace(sol, final=sol.final.reshape(M0.shape))
