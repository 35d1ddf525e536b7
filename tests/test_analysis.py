import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perivir import (
    IntegratorConfig,
    R0Result,
    Regime,
    SinusoidalCoefficient,
    State,
    Trajectory,
    classify,
    monitor_invariants,
    r0_periodic,
    rhs,
    simulate,
    sweep,
)
from perivir import analysis
from perivir.analysis import DEFAULT_INITIAL_CONDITIONS, ClassificationReport, TrajectoryEvidence

from .helpers import (
    AMPS,
    RATES,
    admissible_periodic,
    closed_form_r0,
    baseline_params,
    count_calls,
    persistence_params,
    rescaled_extinction_params,
    table_coefficients,
    zero_beta_params,
)


class TestPositivity:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(rates=RATES, log_r0_factor=st.floats(-1.5, 1.5), amps=AMPS,
           state=st.builds(State, *[st.floats(1e-6, 100.0)] * 4), t=st.floats(0.0, 48.0))
    def test_trajectories_stay_in_the_cone(self, rates, log_r0_factor, amps, state, t):
        # the nonnegative cone is invariant: over a few periods at simulation
        # tolerance no sample undershoots by more than the rounding band
        params = admissible_periodic(rates, log_r0_factor, amps)
        assert rhs(t, state, params).tobytes() == rhs(t, state.as_array(), params).tobytes()
        cfg = IntegratorConfig.simulation()
        traj = simulate(params, state, 3 * params.period, cfg)
        assert monitor_invariants(traj, params, abs_tol=cfg.abs_tol).positivity_violations == 0


class TestSimulate:
    def test_grid_sampling(self, sim_cfg):
        traj = simulate(persistence_params(), State(10.0, 1.0, 1.0, 1.0), 48.0, sim_cfg,
                        grid_step=0.5)
        assert traj.times[0] == 0.0 and traj.times[-1] == 48.0
        assert len(traj) == 97

    def test_samples_clamped_nonnegative(self, sim_cfg):
        # undershoot stays inside the rounding band, and the band is clamped
        # to zero, so the stored samples are entirely nonnegative
        params = rescaled_extinction_params()
        traj = simulate(params, State(10.0, 1.0, 1.0, 1.0), 2400.0, sim_cfg,
                        grid_step=0.5)
        assert np.min(traj.states) >= 0.0

    def test_grid_step_validation(self, sim_cfg):
        with pytest.raises(ValueError):
            simulate(persistence_params(), State(1.0, 1.0, 1.0, 1.0), 10.0, sim_cfg,
                     grid_step=-1.0)


class TestClassify:
    def test_extinction_regime(self, sim_cfg):
        report = classify(rescaled_extinction_params(),
                          DEFAULT_INITIAL_CONDITIONS, 2400.0, sim_cfg)
        assert report.regime == Regime.EXTINCTION
        assert report.r0.value < 1.0
        for ev in report.evidence:
            assert ev.final_infection_max < 1e-8
            assert ev.t_star_sup_distance < 1e-4

    def test_persistence_regime(self, sim_cfg):
        report = classify(persistence_params(), DEFAULT_INITIAL_CONDITIONS, 2400.0,
                          sim_cfg)
        assert report.regime == Regime.PERSISTENCE
        assert report.r0.value > 1.0
        assert report.persistence_eta > 0.0
        assert report.eta_relative_variation < 0.05

    def test_zero_transmission_extinct_with_zero_r0(self, sim_cfg):
        report = classify(zero_beta_params(), DEFAULT_INITIAL_CONDITIONS,
                          2400.0, sim_cfg)
        assert report.regime == Regime.EXTINCTION
        assert report.r0.value == 0.0
        assert report.r0.method == "no-infection-term"

    @pytest.mark.parametrize("factory, horizon, r0", [
        (rescaled_extinction_params, 5000.0, 2.0), (persistence_params, 4800.0, 0.5)],
        ids=["extinction-above-one", "persistence-below-one"])
    def test_verdict_contradicting_the_r0_bracket_is_indeterminate(self, sim_cfg, factory,
                                                                   horizon, r0):
        # the threshold theorem rules out Extinction above 1 and Persistence below
        fabricated = R0Result(value=r0, method="periodic-monodromy", bracket=(r0, r0),
                              iterations=0, rho_at_one=r0, trace=())
        report = classify(factory(), DEFAULT_INITIAL_CONDITIONS, horizon, sim_cfg,
                          r0_result=fabricated)
        assert report.regime == Regime.INDETERMINATE
        assert report.persistence_eta is None
        assert report.r0 is fabricated

    def test_integration_failure_recorded_per_ic(self):
        # a step budget this small cannot reach the horizon; the report
        # must carry the error instead of raising
        tiny = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-9, max_steps=40)
        report = classify(persistence_params(), DEFAULT_INITIAL_CONDITIONS, 1200.0, tiny)
        assert report.regime == Regime.INDETERMINATE
        assert all(ev.error is not None for ev in report.evidence)
        assert report.eta_relative_variation is None  # no floors to spread

    def test_floors_with_a_zero_median_spread_without_bound(self):
        r0 = R0Result(value=2.0, method="periodic-monodromy", bracket=(2.0, 2.0),
                      iterations=0, rho_at_one=2.0, trace=())
        evidence = tuple(TrajectoryEvidence(initial_state=ic, period_floors=floors)
                         for ic, floors in zip(DEFAULT_INITIAL_CONDITIONS,
                                               [(1.0, 1.1), (0.0, 0.0, 1e-3), (2.0, 2.0)]))
        report = ClassificationReport(r0=r0, regime=Regime.INDETERMINATE, evidence=evidence,
                                      horizon=1200.0)
        assert report.eta_relative_variation == math.inf

    def test_one_integration_whatever_the_ic_count(self, monkeypatch, sim_cfg):
        params = persistence_params()
        r0 = r0_periodic(params)
        calls = count_calls(monkeypatch, analysis, "integrate")
        for extra in (0, 2):
            ics = DEFAULT_INITIAL_CONDITIONS + tuple(
                State(1.0 + i, 1.0, 1.0, 1.0) for i in range(extra))
            calls.clear()
            report = classify(params, ics, 1200.0, sim_cfg, r0_result=r0)
            assert len(calls) == 1
            assert len(report.evidence) == len(ics)
            assert report.regime == Regime.PERSISTENCE

    @pytest.mark.parametrize("factory, horizon_periods, ic_scale", [
        (persistence_params, 50.0, None), (baseline_params, 52.5, None),
        (rescaled_extinction_params, 51.3, None),
        # infection still growing at the horizon, so each period's floor
        # sits on its first sample, the window's edge
        pytest.param(
            lambda: replace(persistence_params(), beta=table_coefficients(beta_scale=0.02)[1]),
            50.0, 1e-12, id="growing")])
    def test_evidence_equals_full_grid_evidence(self, monkeypatch, sim_cfg, factory,
                                                horizon_periods, ic_scale):
        # classify samples only the evidence window; the step sequence does
        # not depend on the samples, so its evidence is bitwise that of the
        # whole uniform grid
        params = factory()
        ics = DEFAULT_INITIAL_CONDITIONS
        if ic_scale is not None:
            t0 = analysis.virus_free_closed_form(params).t_star_initial
            ics = tuple(State(t0, ic_scale * k, ic_scale, ic_scale) for k in (1.0, 2.0, 3.0))
        period = params.period
        horizon = horizon_periods * period
        samples = []
        original = analysis.integrate

        def spy(f, t0, t1, y0, cfg, t_eval=None):
            samples.append(t_eval)
            return original(f, t0, t1, y0, cfg, t_eval=t_eval)

        monkeypatch.setattr(analysis, "integrate", spy)
        report = classify(params, ics, horizon, sim_cfg, r0_result=r0_periodic(params))
        window = samples[0]
        assert len(window) <= analysis.EVIDENCE_PERIODS * analysis.GRID_POINTS_PER_PERIOD + 2
        assert window[-1] == horizon

        y0 = np.array([ic.as_array() for ic in ics])
        full = simulate(params, y0, horizon, sim_cfg,
                        grid_step=period / analysis.GRID_POINTS_PER_PERIOD)
        expected = analysis._final_period_evidence(
            full, ics, analysis.virus_free_closed_form(params), horizon, period)
        assert report.evidence == expected

    def test_preconditions(self, sim_cfg):
        with pytest.raises(ValueError):
            classify(persistence_params(), DEFAULT_INITIAL_CONDITIONS[:2], 2400.0, sim_cfg)
        with pytest.raises(ValueError):
            classify(persistence_params(), DEFAULT_INITIAL_CONDITIONS, 100.0, sim_cfg)
        bad = (State(10.0, 0.0, 1.0, 1.0),) + DEFAULT_INITIAL_CONDITIONS[:2]
        with pytest.raises(ValueError):
            classify(persistence_params(), bad, 2400.0, sim_cfg)

    def test_positivity_clean_across_classification_runs(self, sim_cfg):
        # extinction runs pass near the zero face; no sample may dip
        # beyond the rounding band at default tolerances
        params = rescaled_extinction_params()
        for ic in DEFAULT_INITIAL_CONDITIONS:
            traj = simulate(params, ic, 2400.0, sim_cfg, grid_step=0.25)
            log = monitor_invariants(traj, params, abs_tol=sim_cfg.abs_tol)
            assert log.positivity_violations == 0


class TestMonitorInvariants:
    def test_positive_trajectory_clean(self, sim_cfg):
        params = persistence_params()
        traj = simulate(params, State(10.0, 1.0, 1.0, 1.0), 1200.0, sim_cfg,
                        grid_step=0.25)
        log = monitor_invariants(traj, params)
        assert log.positivity_violations == 0
        assert log.worst_undershoot >= -4.0 * sim_cfg.abs_tol
        assert log.bounded

    def test_growth_from_empty_state_saturates(self, sim_cfg):
        # W grows from zero under the inflow, then levels off
        params = persistence_params()
        traj = simulate(params, State(0.0, 0.0, 0.0, 0.0), 2400.0, sim_cfg,
                        grid_step=1.0)
        log = monitor_invariants(traj, params)
        assert log.bounded
        assert log.bound_estimate > 0.0

    def test_detector_catches_hand_built_violation(self):
        times = np.array([0.0, 1.0, 2.0])
        states = np.array([
            [10.0, 1.0, 1.0, 1.0],
            [10.0, -1.0, 1.0, 1.0],
            [10.0, 1.0, 1.0, 1.0],
        ])
        log = monitor_invariants(Trajectory(times, states), persistence_params())
        assert log.positivity_violations == 1
        assert log.worst_undershoot == -1.0


class TestSweep:
    def test_autonomous_beta_sweep_scales_linearly(self, sim_cfg):
        base = baseline_params(amps=0.0, beta_scale=0.01)  # beta 0.003, amplitude 0
        rows = sweep(base, "beta.mean", [0.003, 0.03, 0.3], 1200.0, sim_cfg)
        values = [r.value for r in rows]
        assert values == sorted(values)
        r0s = np.array([r.r0 for r in rows])
        # closed form is linear in beta
        assert r0s[1] / r0s[0] == pytest.approx(10.0, rel=1e-6)
        assert r0s[2] / r0s[0] == pytest.approx(100.0, rel=1e-6)
        ref = closed_form_r0(base)
        assert r0s[0] == pytest.approx(ref, rel=1e-6)

    def test_threshold_flip_matches_r0(self, sim_cfg):
        # beta crossing the threshold: regime flips exactly where R0 crosses 1
        base = replace(persistence_params(),
                       beta=SinusoidalCoefficient(0.004, 0.0004))
        rows = sweep(base, "beta.mean", [0.0005, 0.002, 0.01, 0.02], 2400.0,
                     sim_cfg)
        for row in rows:
            assert row.error is None
            if row.regime == Regime.EXTINCTION:
                assert row.r0 <= 1.0 + 1e-6
            elif row.regime == Regime.PERSISTENCE:
                assert row.r0 >= 1.0 - 1e-6
        regimes = [r.regime for r in rows]
        assert regimes == [Regime.EXTINCTION, Regime.EXTINCTION,
                           Regime.PERSISTENCE, Regime.PERSISTENCE]
        assert all((r.rho_at_one > 1.0) == (r.r0 > 1.0) for r in rows)

    def test_invalid_value_marks_row_and_continues(self, sim_cfg):
        base = baseline_params(amps=0.0, beta_scale=0.01)
        rows = sweep(base, "d.mean", [-0.5, 0.01], 1200.0, sim_cfg)
        assert rows[0].error is not None and "InvalidSweepValue" in rows[0].error
        assert rows[0].r0 is None
        assert rows[1].error is None and rows[1].r0 is not None

    def test_nan_values_sort_last(self, sim_cfg):
        # sorted() alone leaves [2.0, nan, 1.0] as it is: nan compares false
        base = baseline_params(amps=0.0, beta_scale=0.01)
        rows = sweep(base, "beta.mean", [0.03, math.nan, 0.003], 1200.0, sim_cfg)
        assert [r.value for r in rows[:2]] == [0.003, 0.03]
        assert math.isnan(rows[2].value) and "InvalidSweepValue" in rows[2].error
        assert rows[0].r0 < rows[1].r0

    @pytest.mark.parametrize("name", ["nonsense", "beta.maen", "mu.mean.x", "d."])
    def test_unknown_parameter_raises_before_any_value(self, sim_cfg, monkeypatch, name):
        # a misspelt name is the caller's error, not one value's: no row runs
        calls = count_calls(monkeypatch, analysis, "r0_periodic")
        with pytest.raises(ValueError, match=f"unknown sweep parameter {name!r}"):
            sweep(baseline_params(), name, [0.1, 0.2], 1200.0, sim_cfg)
        assert calls == []

    def test_empty_values_empty_table(self, sim_cfg):
        assert sweep(baseline_params(), "c", [], 1200.0, sim_cfg) == []

    def test_coefficient_amplitude_sweepable(self, sim_cfg):
        base = baseline_params(amps=0.0, beta_scale=0.01)
        rows = sweep(base, "mu.amplitude", [0.0, 0.05], 1200.0, sim_cfg)
        assert all(r.error is None for r in rows)
