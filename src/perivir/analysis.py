"""Regime classification, invariant monitoring, and parameter sweeps.

The reproduction number separates two asymptotic regimes: below 1 the
infection compartments die out and the healthy-cell density converges to
the virus-free periodic solution; above 1 the infection persists with a
positive floor. `classify` decides between them empirically from long
simulations, with Indeterminate as a first-class outcome for
threshold-adjacent parameter sets where a finite horizon cannot decide.

`monitor_invariants` checks what the theory promises pointwise: no
trajectory component goes negative (beyond integration rounding), and the
weighted population

    W(t) = T + E + I + (delta + d(t)) / (2 p) * V

stays below its analytic ceiling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .integrate import IntegrationError, IntegratorConfig, integrate
from .model import (
    COEFF_KEYS,
    COEFF_NAMES,
    CONSTANT_NAMES,
    POSITIVITY_BAND_FACTOR,
    ModelParameters,
    State,
    Trajectory,
    clamp_small_negatives,
    vector_field,
)
from .periodic import VirusFreeSolution, virus_free_closed_form
from .reproduction import R0Result, r0_periodic

__all__ = [
    "EXTINCTION_EPS",
    "TSTAR_EPS",
    "PERSISTENCE_FLOOR_MIN",
    "DEFAULT_INITIAL_CONDITIONS",
    "Regime",
    "TrajectoryEvidence",
    "ClassificationReport",
    "InvariantLog",
    "SweepRow",
    "simulate",
    "classify",
    "monitor_invariants",
    "sweep",
]

EXTINCTION_EPS = 1e-8
TSTAR_EPS = 1e-4
# well below biologically meaningful densities, well above integrator noise
PERSISTENCE_FLOOR_MIN = 1e-6
# a settled orbit keeps its per-period floor; a slow near-threshold decay
# loses a fraction of it every period and must not be called persistent
FLOOR_TREND_MIN = 0.98
GRID_POINTS_PER_PERIOD = 96
# classify judges the floors and the final period over this many last periods
EVIDENCE_PERIODS = 10

DEFAULT_INITIAL_CONDITIONS = (
    State(10.0, 1.0, 1.0, 1.0),
    State(5.0, 2.0, 0.5, 3.0),
    State(20.0, 0.1, 0.1, 0.1),
)


class Regime:
    EXTINCTION = "Extinction"
    PERSISTENCE = "Persistence"
    INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class TrajectoryEvidence:
    """Per-initial-condition summary backing a classification."""

    initial_state: State
    final_infection_max: float | None = None
    t_star_sup_distance: float | None = None
    infection_floor: float | None = None
    period_floors: tuple[float, ...] = ()
    error: str | None = None


@dataclass(frozen=True)
class ClassificationReport:
    r0: R0Result
    regime: str
    evidence: tuple[TrajectoryEvidence, ...]
    horizon: float
    persistence_eta: float | None = None

    @property
    def eta_relative_variation(self) -> float | None:
        """Spread of the per-period floors over the last 10 periods, max/median - min/median."""
        per_ic = [ev.period_floors for ev in self.evidence if ev.period_floors]
        if not per_ic:
            return None
        worst = 0.0
        for fl in per_ic:
            med = float(np.median(fl))
            if med <= 0.0:
                return math.inf
            worst = max(worst, (max(fl) - min(fl)) / med)
        return worst


@dataclass(frozen=True)
class InvariantLog:
    """Positivity and boundedness bookkeeping for one trajectory."""

    positivity_violations: int
    worst_undershoot: float
    bound_estimate: float
    bounded: bool
    ceiling: float  # W's analytic ceiling; inf when none follows


@dataclass(frozen=True)
class SweepRow:
    value: float
    r0: float | None = None
    rho_at_one: float | None = None
    regime: str | None = None
    error: str | None = None


def simulate(params: ModelParameters, initial_state, t_end: float,
             cfg: IntegratorConfig, grid_step: float | None = None) -> Trajectory:
    """Integrate the full model from t = 0 and clamp rounding-level negatives.

    `initial_state` is a State or array-like: one (4,) state, or an (m, 4)
    batch of initial states integrated together (states come back shaped
    (len(times), m, 4)). Samples at accepted steps by default, shared by
    every member of a batch; `grid_step` requests a uniform output grid
    (always including 0 and t_end exactly).
    """
    t_eval = None if grid_step is None else _uniform_grid(t_end, grid_step)
    return _integrate_clamped(params, initial_state, t_end, cfg, t_eval)


def _uniform_grid(t_end: float, grid_step: float) -> np.ndarray:
    """Multiples of grid_step from 0 to t_end, ending exactly at t_end."""
    if not (0.0 < grid_step < math.inf and math.isfinite(t_end)):
        raise ValueError("grid_step and t_end must be finite, grid_step positive")
    n = int(math.floor(t_end / grid_step + 1e-9))
    grid = grid_step * np.arange(n + 1)
    if grid[-1] < t_end - 1e-9 * max(1.0, t_end):
        return np.append(grid, t_end)
    grid[-1] = t_end
    return grid


def _integrate_clamped(params: ModelParameters, y0, t_end: float,
                       cfg: IntegratorConfig, t_eval) -> Trajectory:
    traj, _ = integrate(vector_field(params), 0.0, t_end, y0, cfg, t_eval=t_eval)
    return Trajectory(traj.times, clamp_small_negatives(traj.states, cfg.abs_tol))


def _final_period_evidence(traj: Trajectory, ics, t_star: VirusFreeSolution,
                           horizon: float, period: float) -> tuple[TrajectoryEvidence, ...]:
    """Per-member evidence from a batch trajectory, states shaped (time, member, 4).

    Reads only the last EVIDENCE_PERIODS periods before the horizon.
    """
    last = traj.window(horizon - period, horizon)
    final_inf = last.states[:, :, 1:4].max(axis=(0, 2))
    sup_t = np.abs(last.states[:, :, 0] - t_star.value(last.times)[:, None]).max(axis=0)
    floors = np.array([
        traj.window(horizon - j * period, horizon - (j - 1) * period)
        .states[:, :, 1:4].min(axis=(0, 2))
        for j in range(EVIDENCE_PERIODS, 0, -1)])
    return tuple(
        TrajectoryEvidence(
            initial_state=ic,
            final_infection_max=float(final_inf[i]),
            t_star_sup_distance=float(sup_t[i]),
            infection_floor=float(floors[-1, i]),
            period_floors=tuple(float(f) for f in floors[:, i]),
        )
        for i, ic in enumerate(ics))


def classify(params: ModelParameters, initial_conditions, horizon: float,
             cfg: IntegratorConfig,
             r0_result: R0Result | None = None) -> ClassificationReport:
    """Decide Extinction / Persistence / Indeterminate from long simulations.

    Extinction requires every trajectory to end its final period with
    max(E, I, V) below EXTINCTION_EPS and sup |T - T*| below TSTAR_EPS.
    Persistence requires every trajectory's final-period infection floor
    to clear PERSISTENCE_FLOOR_MIN AND to hold steady across the last
    EVIDENCE_PERIODS periods (no more than a 2% net decline), which
    separates a settled orbit from a slow near-threshold decay. The
    integration samples only those periods. Anything else, including
    disagreement between trajectories or a failed integration, is
    Indeterminate; parameter sets very close to the threshold genuinely
    cannot be decided on a finite horizon. So is a verdict that contradicts
    the R0 bracket: Extinction with bracket[0] > 1, Persistence with
    bracket[1] < 1.

    All initial conditions run as one batch integration. An integration
    failure is not raised: its message is recorded on the evidence of
    every initial condition, and the verdict is Indeterminate.
    """
    ics = [State.from_array(ic) for ic in initial_conditions]
    if len(ics) < 3:
        raise ValueError("need at least 3 initial conditions")
    period = params.period
    if horizon < 50.0 * period:
        raise ValueError("horizon must cover at least 50 periods")
    y0 = np.array(ics, dtype=float)
    if np.any(y0 <= 0.0):
        raise ValueError("initial conditions must be strictly positive componentwise")

    if r0_result is None:
        r0_result = r0_periodic(params)
    t_star = virus_free_closed_form(params)

    # the step sequence does not depend on t_eval, so sampling only the
    # evidence window gives the samples of the full grid bitwise
    grid_step = period / GRID_POINTS_PER_PERIOD
    grid = _uniform_grid(horizon, grid_step)
    window = grid[grid >= horizon - EVIDENCE_PERIODS * period - 0.5 * grid_step]
    try:
        traj = _integrate_clamped(params, y0, horizon, cfg, window)
    except IntegrationError as exc:
        evidence = tuple(TrajectoryEvidence(initial_state=ic, error=str(exc)) for ic in ics)
        return ClassificationReport(r0=r0_result, regime=Regime.INDETERMINATE,
                                    evidence=evidence, horizon=horizon)
    evidence = _final_period_evidence(traj, ics, t_star, horizon, period)

    all_extinct = all(
        ev.final_infection_max < EXTINCTION_EPS and ev.t_star_sup_distance < TSTAR_EPS
        for ev in evidence)
    all_persist = all(
        ev.infection_floor > PERSISTENCE_FLOOR_MIN
        and ev.period_floors[-1] >= FLOOR_TREND_MIN * ev.period_floors[0]
        for ev in evidence)
    # a verdict the R0 bracket rules out (Wang & Zhao 2008) stays Indeterminate
    lo, hi = r0_result.bracket
    eta = None
    if all_extinct and lo <= 1.0:
        regime = Regime.EXTINCTION
    elif all_persist and hi >= 1.0:
        regime = Regime.PERSISTENCE
        eta = min(ev.infection_floor for ev in evidence)
    else:
        regime = Regime.INDETERMINATE
    return ClassificationReport(r0=r0_result, regime=regime, evidence=evidence,
                                horizon=horizon, persistence_eta=eta)


def monitor_invariants(traj: Trajectory, params: ModelParameters,
                       abs_tol: float = IntegratorConfig().abs_tol) -> InvariantLog:
    """Scan a trajectory for positivity violations and W above its analytic ceiling.

    A sample violates positivity when any component lies below the
    rounding band -4*abs_tol (undershoot inside the band is integration
    rounding and was already clamped). Along the model's flow

        W' = mu - d T - d E - (delta + d)/2 I - (c - d'/(delta + d)) (delta + d)/(2 p) V
           <= mu - m W,  m(t) = min(d, (delta + d)/2, c - d'/(delta + d)),

    so W never exceeds max(W(0), sup mu / m_low), where for d = d0 + d1 sin w t
    m_low = min(d0 - d1, (delta + d0 - d1)/2, c - d1 w/(delta + d0 - d1)) <= inf m.
    The trajectory counts as bounded when W's max lies within that ceiling
    plus the rounding band; when m_low <= 0 no ceiling follows, and it does.
    """
    states = traj.states
    worst = float(min(states.min(), 0.0))
    band = POSITIVITY_BAND_FACTOR * abs_tol
    violations = int(np.sum(np.any(states < -band, axis=1)))

    d_t = params.rates(traj.times)[2]
    w = (states[:, 0] + states[:, 1] + states[:, 2]
         + (params.delta + d_t) / (2.0 * params.p) * states[:, 3])
    d_low = params.d.mean - params.d.amplitude
    m_low = min(d_low, 0.5 * (params.delta + d_low),
                params.c - params.d.amplitude * params.angular_frequency / (params.delta + d_low))
    ceiling = (max(float(w[0]), (params.mu.mean + params.mu.amplitude) / m_low)
               if m_low > 0.0 else math.inf)
    return InvariantLog(
        positivity_violations=violations,
        worst_undershoot=worst,
        bound_estimate=float(w.max()),
        bounded=float(w.max()) <= ceiling + band,
        ceiling=ceiling,
    )


def _param_setter(name: str):
    """(base, value) -> copy of base with field `name` replaced; ValueError if unknown."""
    if name in CONSTANT_NAMES:
        return lambda base, value: replace(base, **{name: value})
    coeff_name, _, attr = name.partition(".")
    if coeff_name in COEFF_NAMES and attr in COEFF_KEYS:
        return lambda base, value: replace(
            base, **{coeff_name: replace(getattr(base, coeff_name), **{attr: value})})
    raise ValueError(f"unknown sweep parameter {name!r}")


def sweep(base: ModelParameters, param_name: str, values, horizon: float,
          cfg: IntegratorConfig, initial_conditions=None) -> list[SweepRow]:
    """Classify the model across one varying parameter.

    Returns one row per value, ordered by value, nan last. Values that
    violate the model invariants produce a marked row instead of aborting
    the sweep; an unknown parameter name raises ValueError before any value.
    """
    with_value = _param_setter(param_name)
    if initial_conditions is None:
        initial_conditions = DEFAULT_INITIAL_CONDITIONS
    rows: list[SweepRow] = []
    for v in sorted(map(float, values), key=lambda v: (math.isnan(v), v)):
        try:
            params = with_value(base, v)
        except ValueError as exc:
            rows.append(SweepRow(value=v, error=f"InvalidSweepValue: {exc}"))
            continue
        report = classify(params, initial_conditions, horizon, cfg)
        rows.append(SweepRow(value=v, r0=report.r0.value, rho_at_one=report.r0.rho_at_one,
                             regime=report.regime))
    return rows
