import importlib
import math
import re
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from perivir import (
    ConvergedToBoundary,
    DegenerateDecay,
    IntegratorConfig,
    ModelParameters,
    NewtonDiverged,
    SinusoidalCoefficient,
    State,
    UnresolvedTStar,
    VirusFreeSolution,
    find_periodic_orbit,
    floquet_multipliers,
    integrate,
    integrate_matrix,
    poincare_map,
    r0_periodic,
    virus_free_closed_form,
    virus_free_numeric,
    warm_start_guess,
)
from perivir import cli as cli_module
from perivir import periodic, reproduction
from perivir.analysis import DEFAULT_INITIAL_CONDITIONS
from perivir.model import (
    Trajectory,
    clamp_small_negatives,
    incidence_partials,
    jacobian,
    rhs,
    vector_field,
)
from perivir.periodic import _healthy_field
from perivir.reproduction import build_linearization, rho_for_lambda

from .helpers import (
    AMPS,
    OMEGA,
    RATES,
    admissible_periodic,
    baseline_params,
    closed_form_r0,
    combined,
    count_calls,
    t_star_by_hand,
    persistence_params,
    plain_warm_start,
    rescaled_extinction_params,
    skewed_params,
    spy_t_evals,
    table_coefficients,
)


def constant_coefficient_params(**overrides) -> ModelParameters:
    kwargs = dict(k=0.2, delta=0.09, p=0.5, c=0.18, c1=0.1, c2=0.1)
    kwargs.update(overrides)
    return ModelParameters(
        angular_frequency=OMEGA,
        mu=SinusoidalCoefficient(0.1, 0.0),
        beta=SinusoidalCoefficient(0.3, 0.0),
        d=SinusoidalCoefficient(0.01, 0.0),
        **kwargs)


def autonomous_endemic_equilibrium(params: ModelParameters):
    """Algebraic interior equilibrium of the time-invariant model.

    Reduces the four equilibrium equations to one scalar equation in T on
    (0, mu/d) and solves it with a bracketing root-finder.
    """
    mu, beta, d = params.mu.mean, params.beta.mean, params.d.mean
    k, delta, p, c = params.k, params.delta, params.p, params.c
    c1, c2 = params.c1, params.c2
    gamma = p * k / (c * (k + d) * (delta + d))

    def g(T):
        V = gamma * (mu - d * T)
        return beta * gamma * T / ((1.0 + c1 * T) * (1.0 + c2 * V)) - 1.0

    t_max = mu / d
    T = brentq(g, 1e-12, t_max * (1.0 - 1e-12), xtol=1e-14, rtol=1e-15)
    E = (mu - d * T) / (k + d)
    I = k * E / (delta + d)
    V = gamma * (mu - d * T)
    return np.array([T, E, I, V])


def dop853_flow(params: ModelParameters, x: np.ndarray):
    """x's flow over one period and its monodromy, by scipy's DOP853 at rtol 1e-13.

    The state and the variational equation are integrated together, as
    perfbench's orbit reference does, with the model's rhs and Jacobian.
    """
    def f(t, y):
        return np.concatenate((rhs(t, y[:4], params),
                               (jacobian(t, y[:4], params) @ y[4:].reshape(4, 4)).ravel()))

    sol = solve_ivp(f, (0.0, params.period), np.concatenate((x, np.eye(4).ravel())),
                    method="DOP853", rtol=1e-13, atol=1e-16)
    assert sol.success
    return sol.y[:4, -1], sol.y[4:, -1].reshape(4, 4)


def dop853_fixed_point(params: ModelParameters, x: np.ndarray) -> np.ndarray:
    """The fixed point of dop853_flow's period map, by three Newton steps from x."""
    for _ in range(3):
        end, mono = dop853_flow(params, x)
        x = x + np.linalg.solve(mono - np.eye(4), x - end)
    return x


def shipped_orbit(config_dir, name: str, r0: float | None = None):
    """params and the orbit as `perivir orbit` finds it on a shipped config.

    With r0, the config's beta is scaled so that the periodic R0 is r0.
    """
    cfg = cli_module.load_config(str(config_dir / f"{name}.ini"))
    params = cfg.params
    if r0 is not None:
        scale = r0 / r0_periodic(params, tol=1e-10).value
        params = replace(params, beta=SinusoidalCoefficient(scale * params.beta.mean,
                                                            scale * params.beta.amplitude))
    guess = warm_start_guess(params, State.from_array(cfg.initial_conditions[0]), 2000.0,
                             cfg.integrator)
    return params, cfg.integrator, find_periodic_orbit(params, guess, cfg.integrator)


class TestVirusFreeClosedForm:
    def test_constant_coefficients_give_mu_over_d(self):
        sol = virus_free_closed_form(constant_coefficient_params())
        assert np.max(np.abs(sol.values - 10.0)) < 1e-12
        assert sol.t_star_initial == pytest.approx(10.0, abs=1e-12)

    def test_periodicity_defining_property(self, spectral_cfg):
        # the healthy-cell flow over one period returns T*(0) to itself
        for params in (baseline_params(), skewed_params()):
            sol = virus_free_closed_form(params)
            _, end = integrate(_healthy_field(params), 0.0, params.period,
                               [sol.t_star_initial], spectral_cfg)
            assert abs(end[0] - sol.t_star_initial) < 1e-9 * sol.t_star_initial

    def test_positive_everywhere(self):
        sol = virus_free_closed_form(skewed_params())
        assert np.min(sol.values) > 0.0

    def test_lookup_keeps_shape(self):
        sol = virus_free_closed_form(skewed_params())
        t = np.linspace(-30.0, 50.0, 12)
        flat = sol.value(t)
        assert flat.shape == (12,)
        assert flat.tolist() == [sol.value(x) for x in t.tolist()]
        assert np.array_equal(sol.value(t.reshape(3, 4)), flat.reshape(3, 4))
        assert np.array_equal(sol.value(t.tolist()), flat)
        zero_d = sol.value(np.array(7.5))
        assert type(zero_d) is float and zero_d == sol.value(7.5)
        for x in (0, 24, -24, 7, -1000):
            assert type(sol.value(x)) is float

    def test_node_times_return_samples(self):
        # every grid node, shifted by whole periods either way, reads back its
        # stored sample; t = P wraps to t = 0
        sol = virus_free_closed_form(skewed_params())
        P = sol.period
        for m in range(-3, 6):
            assert np.array_equal(sol.value(sol.times + m * P), sol.values)
            assert sol.value(m * P) == sol.values[0]

    def test_one_period_of_read_only_samples(self):
        # M samples at j P/M, j < M: T*(P) is sample 0, not a stored endpoint
        sol = virus_free_closed_form(skewed_params())
        assert len(sol.values) == periodic.TSTAR_SAMPLES
        assert np.array_equal(sol.times, np.linspace(0.0, sol.period, len(sol.values) + 1)[:-1])
        assert sol.t_star_initial == sol.values[0] and type(sol.t_star_initial) is float
        with pytest.raises(ValueError):
            sol.values[0] = 1.0
        # the caller's array is copied, not held
        values = np.full(8, 2.0)
        held = VirusFreeSolution(values, 24.0)
        values[0] = 5.0
        assert held.values[0] == 2.0

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(samples=st.integers(4, 40), period=st.floats(0.5, 1e4), seed=st.integers(0, 2**32 - 1),
           t=hnp.arrays(float, hnp.array_shapes(max_dims=3, max_side=5),
                        elements=st.floats(-1e6, 1e6)),
           nodes=st.lists(st.integers(-5, 45), max_size=8), periods=st.integers(-4, 4))
    def test_value_is_the_scalar_formula_bit_for_bit(self, samples, period, seed, t, nodes,
                                                     periods):
        # every element of an array, and a number, gets the bits of
        # t_star_by_hand: random t, whole periods k P either way, and nodes j P/M
        values = np.random.default_rng(seed).uniform(0.1, 10.0, samples)
        sol = VirusFreeSolution(values, period)
        by_hand = t_star_by_hand(sol)
        at_nodes = np.array([j * period / samples + periods * period for j in nodes])
        for times in (t, -t, sol.times, at_nodes, np.arange(-4, 5) * period):
            got = sol.value(times)
            assert got.shape == times.shape
            want = [by_hand(x) for x in times.ravel().tolist()]
            assert got.ravel().tobytes() == np.array(want, dtype=float).tobytes()
            for x, w in zip(times.ravel().tolist(), want):
                one = sol.value(x)
                assert type(one) is float and np.array(one).tobytes() == np.array(w).tobytes()

    @pytest.mark.parametrize("d_mean", [1e-18, 2e-18])
    def test_death_rate_too_small_for_t_star_rejected(self, d_mean):
        # e^{-D(P)} rounds to 1 for D(P) below about 5.6e-17: T*(0) would divide by zero
        params = replace(constant_coefficient_params(),
                         d=SinusoidalCoefficient(d_mean, 0.0))
        assert math.exp(-params.d.mean * params.period) == 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateDecay, match=r"death rate integrates to D\(P\) = "):
                virus_free_closed_form(params)

    @pytest.mark.parametrize("d_mean", [1e-8, 1e-10, 1e-12])
    def test_small_death_integral_gives_mu_over_d(self, d_mean):
        # Simpson's T*(0) = e^{-D(P)} I / (1 - e^{-D(P)}) cancelled to about
        # 1e-16/D(P) relative: 1.2e-10, 8.6e-9 and 1.0e-6 off mu/d here
        params = replace(constant_coefficient_params(), d=SinusoidalCoefficient(d_mean, 0.0))
        sol = virus_free_closed_form(params)
        assert abs(sol.t_star_initial * d_mean / 0.1 - 1.0) <= 1e-12
        assert np.max(np.abs(sol.values * d_mean / 0.1 - 1.0)) <= 1e-12

    def test_unresolved_at_the_top_order_names_the_period(self):
        # at 100,000 h with d = 0.05 + 0.0495 sin the harmonics have not
        # decayed by order 128 (8.4e-12 of the mean there): a numerical failure
        params = replace(skewed_params(), angular_frequency=2.0 * math.pi / 1e5,
                         d=SinusoidalCoefficient(0.05, 0.0495))
        with pytest.raises(UnresolvedTStar, match=r"T\* is not resolved at period 1000.* h: "
                                                  r"at order 128 its top harmonics reach"):
            virus_free_closed_form(params)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(rates=RATES, amps=AMPS, d_ratio=st.sampled_from([None, 0.9, 0.99]),
           period=st.floats(24.0, 8760.0))
    @example(rates={"mu0": 0.3, "d0": 0.05, "k": 0.2, "delta": 0.1, "p": 0.5, "c": 0.1,
                    "c1": 0.1, "c2": 0.1}, amps=(0.9, 0.5, 0.9), d_ratio=0.99, period=8760.0)
    def test_matches_the_period_map_fixed_point(self, rates, amps, d_ratio, period):
        # T*(0) and T*(P/2) against end states of virus_free_numeric's flow at
        # rel_tol 1e-12, whose dense samples err by up to 9e-11: 5.8e-13 at most
        # over 40 draws at 24-8760 h, half of them with d's amplitude at 0.9
        # or 0.99 of its mean
        params = replace(admissible_periodic(rates, 0.0, amps),
                         angular_frequency=2.0 * math.pi / period)
        if d_ratio is not None:
            params = replace(params, d=SinusoidalCoefficient(params.d.mean,
                                                             d_ratio * params.d.mean))
        cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-300)
        numeric, sol = virus_free_numeric(params, cfg), virus_free_closed_form(params)
        half = integrate(_healthy_field(params), 0.0, 0.5 * period, [numeric.t_star_initial],
                         cfg, t_eval=()).final[0]
        assert abs(sol.t_star_initial / numeric.t_star_initial - 1.0) <= 1e-12
        assert abs(sol.values[periodic.TSTAR_SAMPLES // 2] / half - 1.0) <= 1e-12

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_samples_rejected(self, bad):
        values = np.full(5, 2.0)
        values[2] = bad
        with pytest.raises(ValueError, match="finite and strictly positive"):
            VirusFreeSolution(values, 24.0)


class TestVirusFreeNumeric:
    def test_constant_coefficients(self, spectral_cfg):
        sol = virus_free_numeric(constant_coefficient_params(), spectral_cfg)
        assert abs(sol.t_star_initial - 10.0) < 1e-9

    def test_zero_amplitude_any_frequency_constant(self, spectral_cfg):
        params = ModelParameters(
            angular_frequency=1.7,
            mu=SinusoidalCoefficient(0.2, 0.0),
            beta=SinusoidalCoefficient(0.3, 0.0),
            d=SinusoidalCoefficient(0.04, 0.0),
            k=0.2, delta=0.09, p=0.5, c=0.18, c1=0.1, c2=0.1)
        sol = virus_free_numeric(params, spectral_cfg)
        assert np.max(np.abs(sol.values - 0.2 / 0.04)) < 1e-9

    @pytest.mark.parametrize("factory", [baseline_params, skewed_params])
    def test_matches_closed_form_at_97_points(self, factory, spectral_cfg):
        params = factory()
        numeric = virus_free_numeric(params, spectral_cfg)
        closed = virus_free_closed_form(params)
        g = np.linspace(0.0, params.period, 97)
        rel = np.abs(closed.value(g) - numeric.value(g)) / np.abs(numeric.value(g))
        assert np.max(rel) < 1e-7

    def test_long_period_contraction_in_closed_form(self, config_dir, spectral_cfg):
        # P = 30,000 h on extinction's rates: e^{-D(P)} = e^{-300}, which an integrated
        # T(P; 1) - T(P; 0) cannot resolve
        params = replace(cli_module.load_config(str(config_dir / "extinction.ini")).params,
                         angular_frequency=2.0 * math.pi / 30_000.0)
        numeric = virus_free_numeric(params, spectral_cfg)
        closed = virus_free_closed_form(params)
        assert abs(numeric.t_star_initial / closed.t_star_initial - 1.0) <= 1e-8
        assert np.max(np.abs(numeric.values / closed.value(numeric.times) - 1.0)) <= 1e-8

    def test_death_rate_too_small_for_t_star_rejected_before_any_flow(self, monkeypatch,
                                                                         spectral_cfg):
        params = replace(constant_coefficient_params(), d=SinusoidalCoefficient(1e-18, 0.0))
        calls = count_calls(monkeypatch, periodic, "integrate")
        with pytest.raises(DegenerateDecay, match=r"death rate integrates to D\(P\) = "):
            virus_free_numeric(params, spectral_cfg)
        assert calls == []

    def test_one_period_return(self, spectral_cfg):
        params = skewed_params()
        sol = virus_free_numeric(params, spectral_cfg)
        _, end = integrate(_healthy_field(params), 0.0, params.period,
                           [sol.t_star_initial], spectral_cfg)
        assert abs(end[0] - sol.t_star_initial) < 1e-9 * sol.t_star_initial


class TestPoincareMap:
    def test_virus_free_fixed_point(self, spectral_cfg):
        params = baseline_params()
        t0 = virus_free_closed_form(params).t_star_initial
        out = poincare_map(params, State(t0, 0.0, 0.0, 0.0), spectral_cfg)
        assert abs(out.t_cells - t0) < 1e-8
        assert out.e_cells == out.i_cells == out.virus == 0.0

    def test_origin_repopulates_healthy_cells_only(self, spectral_cfg):
        out = poincare_map(baseline_params(), State(0.0, 0.0, 0.0, 0.0), spectral_cfg)
        assert out.t_cells > 0.0
        assert out.e_cells == out.i_cells == out.virus == 0.0

    def test_step_halving_pins_value(self):
        params = persistence_params()
        x0 = State(10.0, 1.0, 1.0, 1.0)
        a = poincare_map(params, x0, IntegratorConfig.spectral()).as_array()
        tighter = IntegratorConfig(rel_tol=5e-10, abs_tol=5e-13)
        b = poincare_map(params, x0, tighter).as_array()
        assert np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-10)) < 1e-6
        assert np.all(a > 0.0)

    def test_negative_input_rejected(self, spectral_cfg):
        with pytest.raises(ValueError):
            poincare_map(baseline_params(), np.array([1.0, -1.0, 0.0, 0.0]), spectral_cfg)

    def test_non_finite_start_rejected_before_integrating(self, monkeypatch, spectral_cfg):
        # State.from_array owns the cone and finiteness rules
        calls = count_calls(monkeypatch, periodic, "integrate")
        with pytest.raises(ValueError, match="^virus must be finite and nonnegative$"):
            poincare_map(baseline_params(), np.array([1.0, 0.0, 0.0, math.nan]), spectral_cfg)
        assert calls == []

    def test_preserves_nonnegative_cone(self, sim_cfg):
        # random positive states, propagated as one stacked system; raw
        # (pre-clamp) output must not undershoot below -abs_tol
        params = persistence_params()
        rng = np.random.default_rng(23)
        batch = 10.0 ** rng.uniform(-2.0, math.log10(20.0), size=(64, 4))
        _, end = integrate(vector_field(params), 0.0, params.period, batch, sim_cfg)
        assert np.min(end) >= -sim_cfg.abs_tol
        for row in batch[:6]:
            out = poincare_map(params, State.from_array(row), sim_cfg)
            assert np.all(out.as_array() >= 0.0)


@pytest.fixture
def loose_cfg(spectral_cfg, sim_cfg):
    """spectral_cfg at simulation tolerance: the warm start's, and Newton's Jacobians'."""
    return replace(spectral_cfg, rel_tol=sim_cfg.rel_tol, abs_tol=sim_cfg.abs_tol)


class TestFindPeriodicOrbit:
    def test_extinction_regime_collapses_to_boundary(self, spectral_cfg):
        params = rescaled_extinction_params()
        t0 = virus_free_closed_form(params).t_star_initial
        guess = State(t0, 1e-4, 1e-4, 1e-4)
        with pytest.raises(ConvergedToBoundary):
            find_periodic_orbit(params, guess, spectral_cfg)

    def test_interior_orbit_in_persistence_regime(self, spectral_cfg):
        params = persistence_params()
        guess = warm_start_guess(params, State(10.0, 1.0, 1.0, 1.0), 2000.0,
                                 spectral_cfg)
        orbit = find_periodic_orbit(params, guess, spectral_cfg)
        assert orbit.newton_residual < 1e-10
        assert np.all(np.abs(orbit.floquet_multipliers) < 1.0)
        assert orbit.stable and orbit.stability_margin > 0.0
        # fixed-point property, re-verified through the public map
        x = orbit.initial_state.as_array()
        err = np.max(np.abs(poincare_map(params, orbit.initial_state,
                                         spectral_cfg).as_array() - x))
        assert err < 1e-9
        # samples close up over one period
        assert np.max(np.abs(orbit.states[-1] - orbit.states[0])) < 1e-8
        assert np.all(orbit.states > 0.0)

    def test_autonomous_orbit_is_the_algebraic_equilibrium(self, spectral_cfg):
        params = persistence_params(amps=0.0)
        eq = autonomous_endemic_equilibrium(params)
        guess = warm_start_guess(params, State(10.0, 1.0, 1.0, 1.0), 2000.0,
                                 spectral_cfg)
        orbit = find_periodic_orbit(params, guess, spectral_cfg)
        # constant in t and equal to the equilibrium
        spread = np.max(orbit.states.max(axis=0) - orbit.states.min(axis=0))
        assert spread < 1e-7
        assert np.max(np.abs(orbit.initial_state.as_array() - eq)
                      / np.abs(eq)) < 1e-7

    def test_nonpositive_guess_rejected(self, spectral_cfg):
        with pytest.raises(ValueError):
            find_periodic_orbit(persistence_params(), np.array([10.0, 0.0, 1.0, 1.0]),
                                spectral_cfg)

    def test_stall_within_integration_error_returns_orbit(self, monkeypatch, spectral_cfg,
                                                          loose_cfg):
        # newton_tol = 0 cannot be beaten, so Newton runs until no damped step
        # lowers the residual and the return goes through the stall branch:
        # weighted by the integrator's tolerances the residual is below 1
        params = ModelParameters(
            angular_frequency=OMEGA,
            mu=SinusoidalCoefficient(0.10801091509914085, 0.05176732810088202),
            beta=SinusoidalCoefficient(0.01663690586943997, 0.0034932815317735627),
            d=SinusoidalCoefficient(0.010925537047309815, 0.0036911707968849674),
            k=0.19905098933342835, delta=0.1069240826005271, p=0.5427658726300583,
            c=0.11730922054046482, c1=0.09679950822708207, c2=0.09208330410174287)
        guess = warm_start_guess(params, State(10.0, 1.0, 1.0, 1.0), 2000.0, spectral_cfg)
        flows = count_calls(monkeypatch, periodic, "_flow_and_monodromy")
        calls = count_calls(monkeypatch, periodic, "integrate")
        orbit = find_periodic_orbit(params, guess, spectral_cfg, newton_tol=0.0)
        # residuals: one model flow at the guess, one per trial of every
        # accepted step, and the nine failed trials of the stall
        steps = [s for _, s in orbit.trace[:-1]]
        residual_flows = [args for args in calls if np.size(args[3]) == 4]
        assert len(residual_flows) == 1 + sum(1 + round(-math.log2(s)) for s in steps) + 9
        # a loosened Jacobian at every iterate, the stalled one too, then one
        # monodromy at cfg from the returned state
        assert [args[2] for args in flows] == [loose_cfg] * len(orbit.trace) + [spectral_cfg]
        assert np.array_equal(flows[-1][1], orbit.initial_state.as_array())
        assert orbit.trace[-1] == (orbit.newton_residual, 0.0)
        x = orbit.initial_state.as_array()
        g = poincare_map(params, orbit.initial_state, spectral_cfg).as_array() - x
        assert orbit.newton_residual < 1e-9
        assert np.max(np.abs(g) / (spectral_cfg.abs_tol + spectral_cfg.rel_tol * np.abs(x))) <= 1.0
        assert np.max(np.abs(orbit.states[-1] - orbit.states[0])) < 1e-9
        assert orbit.stable

    @pytest.mark.parametrize("exponent, diverges", [(-20, True), (-43, False)])
    def test_stall_branch_on_a_shifted_flow(self, monkeypatch, spectral_cfg, loose_cfg, exponent,
                                            diverges):
        # a model flow that shifts every state by the same power of two: g is
        # the same at every trial point (exactly, from a guess of ones), so
        # every halving fails and the weighted residual alone decides the
        # outcome: 2^-20 / (abs_tol + rel_tol) ~ 1e3 raises, 2^-43 / ... ~ 1e-4
        # returns
        offset = np.array([2.0 ** exponent, 0.0, 0.0, 0.0])
        residual_flows, monodromies = [], []

        def shifted(f, t0, t1, x, cfg, t_eval=None):
            residual_flows.append(x)
            return Trajectory(t_eval, np.tile(x + offset, (len(t_eval), 1))), x + offset

        def doubling(params, x, cfg):
            monodromies.append(cfg)
            return x, 2.0 * np.eye(4)

        monkeypatch.setattr(periodic, "integrate", shifted)
        monkeypatch.setattr(periodic, "_flow_and_monodromy", doubling)
        params = persistence_params()
        guess = np.ones(4)
        if diverges:
            with pytest.raises(NewtonDiverged, match="stalled"):
                find_periodic_orbit(params, guess, spectral_cfg, newton_tol=0.0)
            assert monodromies == [loose_cfg]
        else:
            orbit = find_periodic_orbit(params, guess, spectral_cfg, newton_tol=0.0)
            assert orbit.trace == ((2.0 ** exponent, 0.0),)
            assert np.array_equal(orbit.initial_state.as_array(), guess)
            # the samples are the residual flow's from the returned state
            assert np.array_equal(orbit.states, np.tile(guess + offset, (len(orbit.times), 1)))
            # the Jacobian at the guess, then one monodromy at cfg for the multipliers
            assert monodromies == [loose_cfg, spectral_cfg]
        # the guess and the nine failed trials
        assert len(residual_flows) == 1 + 9

    @pytest.mark.parametrize("newton_tol", [math.nan, -1.0, math.inf])
    def test_bad_newton_tol_rejected_before_any_flow(self, monkeypatch, spectral_cfg,
                                                     newton_tol):
        flows = count_calls(monkeypatch, periodic, "_flow_and_monodromy")
        with pytest.raises(ValueError, match="^newton_tol must be finite and nonnegative$"):
            find_periodic_orbit(persistence_params(), np.ones(4), spectral_cfg,
                                newton_tol=newton_tol)
        assert flows == []

    def test_singular_shooting_jacobian_diverges(self, monkeypatch, spectral_cfg):
        # a monodromy of I makes Phi - I zero, so no Newton step exists
        def identity_monodromy(params, x, cfg):
            return x + 1.0, np.eye(4)

        monkeypatch.setattr(periodic, "_flow_and_monodromy", identity_monodromy)
        # the message carries the residual of the model's own flow
        params = persistence_params()
        end = integrate(vector_field(params), 0.0, params.period, np.ones(4), spectral_cfg).final
        residual = f"{np.max(np.abs(end - 1.0)):.3e}"
        with pytest.raises(NewtonDiverged,
                           match=f"^singular shooting Jacobian at residual {re.escape(residual)}$"):
            find_periodic_orbit(params, np.ones(4), spectral_cfg)

    def test_iteration_budget_runs_out(self, monkeypatch, spectral_cfg, loose_cfg):
        # newton_tol = 0 cannot be met, and one accepted step spends a budget of 1
        monkeypatch.setattr(periodic, "MAX_NEWTON_ITERS", 1)
        flows = count_calls(monkeypatch, periodic, "_flow_and_monodromy")
        calls = count_calls(monkeypatch, periodic, "integrate")
        with pytest.raises(NewtonDiverged, match="^no convergence within 1 iterations$"):
            find_periodic_orbit(persistence_params(), State(10.0, 1.0, 1.0, 1.0),
                                spectral_cfg, newton_tol=0.0)
        # the guess's loosened Jacobian alone: no orbit, so no monodromy at cfg
        assert [args[2] for args in flows] == [loose_cfg]
        # residual flows at the guess and at least one trial
        assert sum(np.size(args[3]) == 4 for args in calls) >= 2

    def test_trace_records_every_iterate(self, spectral_cfg):
        params = persistence_params()
        guess = warm_start_guess(params, State(10.0, 1.0, 1.0, 1.0), 2000.0, spectral_cfg)
        orbit = find_periodic_orbit(params, guess, spectral_cfg)
        residuals = [r for r, _ in orbit.trace]
        assert orbit.iterations == len(orbit.trace) >= 2
        assert all(b < a for a, b in zip(residuals, residuals[1:]))
        assert residuals[-1] == orbit.newton_residual
        assert all(0.0 < s <= 1.0 for _, s in orbit.trace[:-1])
        assert orbit.trace[-1][1] == 0.0

    def test_each_flow_has_its_width_and_tolerance(self, monkeypatch, spectral_cfg, loose_cfg):
        # residuals come from the model's 4-wide flow at cfg, Jacobians from
        # the 20-wide state-plus-variational flow at the warm start's
        # loosened tolerance, and exactly one 20-wide flow runs at cfg: the
        # last, from the returned state; one full Newton step from the warm start
        params = persistence_params()
        guess = warm_start_guess(params, State(10.0, 1.0, 1.0, 1.0), 2000.0, spectral_cfg)
        calls = count_calls(monkeypatch, periodic, "integrate")
        orbit = find_periodic_orbit(params, guess, spectral_cfg)
        assert orbit.trace[0][1] == 1.0 and len(orbit.trace) == 2
        assert [(np.size(args[3]), args[4]) for args in calls] == [
            (4, spectral_cfg), (20, loose_cfg), (4, spectral_cfg), (20, spectral_cfg)]
        assert np.array_equal(calls[-1][3][:4], orbit.initial_state.as_array())
        assert np.array_equal(calls[-2][3], orbit.initial_state.as_array())

    def test_every_residual_flow_is_sampled_on_the_orbit_grid(self, monkeypatch, spectral_cfg):
        # no 20-wide flow is sampled; every residual flow is sampled on the
        # orbit grid, and the last one, from the orbit's state, is its
        # samples: bitwise a fresh model flow from there
        params = persistence_params()
        guess = warm_start_guess(params, State(10.0, 1.0, 1.0, 1.0), 2000.0, spectral_cfg)
        flows = count_calls(monkeypatch, periodic, "_flow_and_monodromy")
        t_evals = spy_t_evals(monkeypatch, periodic)
        orbit = find_periodic_orbit(params, guess, spectral_cfg)
        assert [len(t) for t in t_evals] == [periodic.ORBIT_SAMPLES + 1, 0] * len(flows)
        assert all(np.array_equal(t, orbit.times) for t in t_evals[::2])
        traj, _ = integrate(vector_field(params), 0.0, params.period, orbit.initial_state,
                            spectral_cfg, t_eval=orbit.times)
        assert np.array_equal(orbit.states,
                              clamp_small_negatives(traj.states, spectral_cfg.abs_tol))

    @pytest.mark.parametrize("name", ["persistence", "baseline"])
    def test_orbit_samples_are_the_model_flow_on_shipped_configs(self, monkeypatch, tmp_path,
                                                                 config_dir, name):
        # what `perivir orbit` writes is the clamped 4-wide flow of the model
        # from the orbit's initial state, bitwise
        orbits = []

        def recorded(*args, **kwargs):
            orbits.append(find_periodic_orbit(*args, **kwargs))
            return orbits[-1]

        monkeypatch.setattr(cli_module, "find_periodic_orbit", recorded)
        path = config_dir / f"{name}.ini"
        out = tmp_path / "orbit.csv"
        assert cli_module.main(["orbit", "--config", str(path), "--out", str(out)]) == 0
        (orbit,) = orbits
        cfg = cli_module.load_config(str(path))
        traj, _ = integrate(vector_field(cfg.params), 0.0, cfg.params.period,
                            orbit.initial_state, cfg.integrator, t_eval=orbit.times)
        assert np.array_equal(orbit.states,
                              clamp_small_negatives(traj.states, cfg.integrator.abs_tol))
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.array_equal(rows, np.column_stack((orbit.times, orbit.states)))

    @pytest.mark.parametrize("path", ["converged", "stalled"])
    def test_a_returned_guess_gets_one_monodromy_at_cfg(self, monkeypatch, spectral_cfg, loose_cfg,
                                                        path):
        # converged: a newton_tol that the guess already meets; stalled: a
        # guess polished to rounding, where newton_tol = 0 finds no damped
        # step that lowers the residual and the weighted residual is below 1;
        # either way the guess's residual flow is the orbit's samples, and one
        # 20-wide flow at cfg gives its multipliers
        params = persistence_params()
        guess = warm_start_guess(params, State(10.0, 1.0, 1.0, 1.0), 2000.0, spectral_cfg)
        if path == "converged":
            newton_tol = 1.0
        else:
            newton_tol = 0.0
            guess = find_periodic_orbit(params, guess, spectral_cfg,
                                        newton_tol=0.0).initial_state
        flows = count_calls(monkeypatch, periodic, "_flow_and_monodromy")
        t_evals = spy_t_evals(monkeypatch, periodic)
        orbit = find_periodic_orbit(params, guess, spectral_cfg, newton_tol=newton_tol)
        assert len(orbit.trace) == 1
        assert np.array_equal(orbit.initial_state.as_array(), guess.as_array())
        # the guess's residual flow, then, when stalled, its loosened Jacobian
        # and the nine failed trials; last the monodromy at cfg, unsampled
        sampled = periodic.ORBIT_SAMPLES + 1
        if path == "converged":
            assert [args[2] for args in flows] == [spectral_cfg]
            assert [len(t) for t in t_evals] == [sampled, 0]
        else:
            assert [args[2] for args in flows] == [loose_cfg, spectral_cfg]
            assert [len(t) for t in t_evals] == [sampled, 0] + [sampled] * 9 + [0]
        traj, _ = integrate(vector_field(params), 0.0, params.period, guess, spectral_cfg,
                            t_eval=orbit.times)
        assert np.array_equal(orbit.states,
                              clamp_small_negatives(traj.states, spectral_cfg.abs_tol))


class TestAgainstDop853:
    """The returned orbit against the variational system integrated by DOP853 at rtol 1e-13."""

    # Near threshold the leading multiplier is next to 1, so the fixed point
    # amplifies the flow's error by about 1 / (R0 - 1): 7.6e-8 relative at
    # R0 = 1.001, against 8.1e-11 and 2.8e-10 on the shipped sets. Tightening
    # the near-threshold bound is ROADMAP item 20's.
    @pytest.mark.parametrize("name, r0, bound", [
        ("persistence", None, 1e-9), ("baseline", None, 1e-9), ("persistence", 1.001, 1e-7)])
    def test_initial_state_is_the_fixed_point(self, config_dir, name, r0, bound):
        params, _, orbit = shipped_orbit(config_dir, name, r0)
        x = orbit.initial_state.as_array()
        reference = dop853_fixed_point(params, x)
        assert np.max(np.abs(x - reference) / reference) <= bound

    @pytest.mark.parametrize("name", ["persistence", "baseline"])
    def test_multipliers_are_the_reference_spectrum(self, config_dir, name):
        # 2.2e-13 and 5.1e-13 off: the one monodromy at cfg keeps Phi in its
        # error norm
        params, _, orbit = shipped_orbit(config_dir, name)
        _, mono = dop853_flow(params, orbit.initial_state.as_array())
        reference = floquet_multipliers(mono)
        assert np.max(np.abs(orbit.floquet_multipliers - reference)) <= 1e-12

    @pytest.mark.parametrize("name", ["persistence", "baseline"])
    def test_residual_is_the_model_flows_closure(self, config_dir, name):
        # newton_residual is the closure of the model's own 4-wide flow from
        # the returned state, bitwise, so the public map closes it within
        # newton_tol
        params, cfg, orbit = shipped_orbit(config_dir, name)
        x = orbit.initial_state.as_array()
        end = integrate(vector_field(params), 0.0, params.period, x, cfg).final
        assert orbit.newton_residual == np.max(np.abs(end - x))
        assert np.max(np.abs(poincare_map(params, x, cfg).as_array() - x)) < 1e-10


class TestLiouville:
    """The returned multipliers against Liouville's formula, an identity of the model.

    det Phi(P) = exp(int_0^P tr J dt), and the multipliers are Phi's
    eigenvalues, so log of their product is the integral of
    tr J = -d(inc)/dT - d - (k + d) - (delta + d) - c along the orbit, here
    by the periodic trapezoid on the orbit's own samples.
    """

    @pytest.mark.parametrize("name", ["persistence", "baseline"])
    def test_log_product_of_multipliers_is_the_trace_integral(self, config_dir, name):
        params, cfg, orbit = shipped_orbit(config_dir, name)
        T, V = orbit.states[:-1, 0], orbit.states[:-1, 3]  # the last sample repeats the first
        _, beta_t, d_t = params.rates(orbit.times[:-1])
        dinc_dT, _ = incidence_partials(beta_t, T, V, params.c1, params.c2)
        trace = -dinc_dT - d_t - (params.k + d_t) - (params.delta + d_t) - params.c
        assert len(orbit.times) == periodic.ORBIT_SAMPLES + 1 == 257
        integral = params.period * np.mean(trace)
        log_det = np.log(np.prod(orbit.floquet_multipliers)).real
        # 4.7 and 1.05 times rel_tol off (persistence, baseline)
        assert abs(log_det - integral) <= 20.0 * cfg.rel_tol * abs(integral)


class TestEndStateIntegrations:
    """Integrations that read only the end state take no samples, and lose no bit by it."""

    @staticmethod
    def _run(monkeypatch, spectral_cfg, sample_the_end):
        """The warm start, T* and rho on float and array steps; t_evals as integrate saw them.

        With sample_the_end, each empty t_eval becomes [t1], as these calls once passed.
        """
        params = persistence_params()
        lin = build_linearization(params)
        with monkeypatch.context() as mp:
            calls = spy_t_evals(mp, periodic, sample_the_end)
            guess = warm_start_guess(params, State(10.0, 1.0, 1.0, 1.0), 2000.0, spectral_cfg)
            n_passes = len(calls)
            tstar = virus_free_numeric(params, spectral_cfg)
            # a number lam and a stack both go to integrate directly, none through
            # integrate_matrix
            direct = spy_t_evals(mp, reproduction, sample_the_end)
            stacks = spy_t_evals(mp, importlib.import_module("perivir.integrate"),
                                 sample_the_end)
            radii = [rho_for_lambda(lin, lam, spectral_cfg)  # 1, 3 and 6 members
                     for lam in (0.9, np.array([0.8, 1.0, 1.2]), np.geomspace(0.5, 2.0, 6))]
        results = (guess.as_array(), tstar.t_star_initial, tstar.values, *radii)
        return (calls[:n_passes], calls[n_passes:], (direct, stacks)), results

    def test_end_state_callers_pass_no_t_eval(self, monkeypatch, spectral_cfg):
        (passes, t_star, monodromies), results = self._run(monkeypatch, spectral_cfg, False)
        assert len(passes) >= 2 and all(len(t) == 0 for t in passes)
        # the image of 0, then the one-period samples
        assert [len(t) for t in t_star] == [0, periodic.TSTAR_SAMPLES]
        direct, stacks = monodromies
        assert (len(direct), len(stacks)) == (3, 0)
        assert all(len(t) == 0 for t in direct + stacks)
        _, reference = self._run(monkeypatch, spectral_cfg, True)
        for got, want in zip(results, reference, strict=True):
            assert np.array_equal(got, want)


class TestExchangeOfStability:
    """At R0 = 1 the endemic orbit branches off the virus-free one and the two swap stability.

    To first order in R0 - 1 the endemic orbit's leading multiplier mu1 is
    1 / rho(1), with rho(1) the `rho_at_one` of `r0_periodic` (Crandall &
    Rabinowitz 1973), and its infection grows linearly in R0 - 1. The two
    sides come from independent code: the 20-wide variational flow of the
    full model, and the 3x3 monodromy of the linearization.
    """

    @pytest.mark.parametrize("eps", [1e-2, 1e-3])
    def test_endemic_orbit_leaves_threshold_at_first_order(self, spectral_cfg, eps):
        # persistence's rates with beta scaled to R0 = 1 + eps: R0 is linear in
        # beta, since F is and T* does not depend on beta
        base = persistence_params()
        scale = (1.0 + eps) / r0_periodic(base, tol=1e-10).value
        params = replace(base, beta=SinusoidalCoefficient(scale * base.beta.mean,
                                                          scale * base.beta.amplitude))
        r0 = r0_periodic(params)
        excess = r0.value - 1.0
        assert excess == pytest.approx(eps, rel=1e-5)
        guess = warm_start_guess(params, State(10.0, 1.0, 1.0, 1.0), 2000.0, spectral_cfg)
        orbit = find_periodic_orbit(params, guess, spectral_cfg)
        mu1 = orbit.floquet_multipliers[0]
        # The first-order terms cancel, leaving (R0 - 1)^2 times a coefficient
        # measured at -2.32, -2.21 and -2.5 for R0 - 1 = 1e-2, 1e-3 and 1e-4.
        # [-3, -1.5] holds that spread; a first-order mismatch would put the
        # ratio near -1/(R0 - 1), -100 or beyond.
        second_order = (math.log(abs(mu1)) + math.log(r0.rho_at_one)) / excess ** 2
        assert -3.0 < second_order < -1.5
        # Mean E over R0 - 1 was measured at 0.506 and 0.510: the slope of the
        # branch, with an O(R0 - 1) correction that 10% covers at both points.
        slope = float(orbit.states[:-1, 1].mean()) / excess
        assert 0.46 < slope < 0.56
        # the branch is stable, by a margin that vanishes with R0 - 1
        assert orbit.stable and 0.0 < orbit.stability_margin < 10.0 * excess


class TestAugmentedField:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(rates=RATES, log_r0_factor=st.floats(-1.5, 1.5), amps=AMPS, t=st.floats(0.0, 48.0),
           y=hnp.arrays(float, 4, elements=st.floats(1e-6, 100.0)),
           phi=hnp.arrays(float, (4, 4), elements=st.floats(-10.0, 10.0)))
    def test_float_form_matches_rhs_and_jacobian(self, rates, log_r0_factor, amps, t, y, phi):
        # the state block is rhs bit for bit; the Phi block is J @ Phi to
        # rounding, relative to the size of the products it sums
        params = admissible_periodic(rates, log_r0_factor, amps)
        out = periodic._augmented_field(params).floats(20)(t, y.tolist() + phi.ravel().tolist())
        assert len(out) == 20 and all(type(v) is float for v in out)
        assert np.array_equal(out[:4], rhs(t, y, params))
        J = jacobian(t, y, params)
        scale = np.abs(J) @ np.abs(phi)
        assert np.all(np.abs(np.reshape(out[4:], (4, 4)) - J @ phi) <= 1e-14 * scale)


class TestWarmStart:
    def test_lands_on_period_multiple_and_positive(self, sim_cfg):
        params = persistence_params()
        s = warm_start_guess(params, State(10.0, 1.0, 1.0, 1.0), 100.0, sim_cfg)
        assert np.all(s.as_array() > 0.0)

    def test_spectral_request_runs_at_simulation_tolerance(self, spectral_cfg, sim_cfg):
        params = persistence_params()
        ic = State(10.0, 1.0, 1.0, 1.0)
        a = warm_start_guess(params, ic, 2000.0, spectral_cfg).as_array()
        b = warm_start_guess(params, ic, 2000.0, sim_cfg).as_array()
        assert np.array_equal(a, b)

    def test_looser_tolerance_and_step_limits_kept(self, monkeypatch, sim_cfg):
        # a looser config, max_step included, is used as given: every pass
        # runs at its tolerances and step limits, each after the first
        # started from the step the one before it proposed
        params = persistence_params()
        loose = IntegratorConfig(rel_tol=1e-4, abs_tol=1e-7, max_step=0.5)
        passes = []
        original = periodic._period_pass

        def spied(params, x, cfg):
            image, step = original(params, x, cfg)
            passes.append((cfg, step))
            return image, step

        monkeypatch.setattr(periodic, "_period_pass", spied)
        warm_start_guess(params, State(10.0, 1.0, 1.0, 1.0), 4 * params.period, loose)
        assert len(passes) == 4
        assert [cfg.initial_step for cfg, _ in passes] == (
            [loose.initial_step] + [step for _, step in passes[:-1]])
        assert all(replace(cfg, initial_step=loose.initial_step) == loose for cfg, _ in passes)
        assert max(step for _, step in passes) == 0.5  # capped at max_step

    def test_passes_carry_the_proposed_step(self, monkeypatch, sim_cfg):
        # the first pass starts from initial_step, every later one from the
        # step the pass before it proposed
        params = persistence_params()
        sols = []
        original = periodic.integrate

        def recorded(f, t0, t1, y0, cfg, t_eval=None):
            sols.append((cfg.initial_step, original(f, t0, t1, y0, cfg, t_eval)))
            return sols[-1][1]

        monkeypatch.setattr(periodic, "integrate", recorded)
        warm_start_guess(params, State(10.0, 1.0, 1.0, 1.0), 10 * params.period, sim_cfg)
        assert len(sols) >= 3
        assert sols[0][0] == sim_cfg.initial_step
        assert [start for start, _ in sols[1:]] == [sol.next_step for _, sol in sols[:-1]]
        assert all(sol.next_step > sim_cfg.initial_step for _, sol in sols)

    def test_infinite_change_is_no_contraction_reference(self, monkeypatch, sim_cfg):
        # a component clamped to zero makes the change infinite; the finite
        # change after it must not read as a contraction by a factor of 0
        images = iter([[10.0, 1.0, 1.0, 2.0], [10.0, 0.0, 1.0, 2.0]]
                      + [[10.0, 1.0, 1.0, 2.0]] * 8)
        passes = []

        def fake_pass(params, x, cfg):
            passes.append(x)
            return State(*next(images)), cfg.initial_step

        monkeypatch.setattr(periodic, "_period_pass", fake_pass)
        params = persistence_params()
        s = warm_start_guess(params, State(10.0, 1.0, 1.0, 1.0), 10 * params.period, sim_cfg)
        # pass 3 changes by 1e6 after pass 2's infinite change; pass 4 repeats it
        assert len(passes) == 4
        assert s == State(10.0, 1.0, 1.0, 2.0)

    def test_final_iterate_with_a_zero_component_fails(self, monkeypatch, sim_cfg):
        # Newton needs a strictly positive guess, so a transient that ends
        # with E clamped to zero is a numerical collapse, not a guess
        images = iter([State(10.0, 1.0, 1.0, 1.0), State(10.0, 0.0, 1.0, 2.0)])
        monkeypatch.setattr(periodic, "_period_pass",
                            lambda params, x, cfg: (next(images), cfg.initial_step))
        params = persistence_params()
        with pytest.raises(ConvergedToBoundary, match="component at zero after 2 passes"):
            warm_start_guess(params, State(10.0, 1.0, 1.0, 1.0), 2 * params.period, sim_cfg)

    def test_passes_within_abs_tol_of_the_face_end_it(self, monkeypatch, sim_cfg):
        # FACE_PASSES passes in a row with E, I and V within abs_tol of zero
        # end the transient; one pass above it starts the count again
        n, tiny = periodic.FACE_PASSES, 0.5 * sim_cfg.abs_tol
        near = [State(10.0, tiny, 0.0, tiny)] * (n - 1)
        images = iter(near + [State(10.0, 2.0 * sim_cfg.abs_tol, tiny, tiny)] + near
                      + [State(10.0, tiny, tiny, tiny), State(10.0, 1.0, 1.0, 1.0)])
        monkeypatch.setattr(periodic, "_period_pass",
                            lambda params, x, cfg: (next(images), cfg.initial_step))
        params = persistence_params()
        with pytest.raises(ConvergedToBoundary,
                           match=f"abs_tol 1e-09 of zero for passes {n + 1}-{2 * n}$"):
            warm_start_guess(params, State(10.0, 1.0, 1.0, 1.0), 100 * params.period, sim_cfg)

    def test_start_below_abs_tol_is_unresolved_growth(self, spectral_cfg):
        # R0 ~ 1.29 from E = I = V = 1e-12: the infection grows, but no pass
        # lifts it above the transient's abs_tol 1e-9, so the first
        # FACE_PASSES passes end the warm start as growth it cannot resolve
        params = replace(persistence_params(), beta=table_coefficients(beta_scale=0.02)[1])
        assert 1.29 < r0_periodic(params).value < 1.3
        t0 = virus_free_closed_form(params).t_star_initial
        with pytest.raises(ConvergedToBoundary, match=(
                "^warm start never resolved the infection: E, I and V stayed within abs_tol "
                f"1e-09 of zero for passes 1-{periodic.FACE_PASSES}, and growth from a start "
                "this close to the virus-free face is below what the loosened transient "
                "resolves$")):
            warm_start_guess(params, State(t0, 1e-12, 1e-12, 1e-12), 2000.0, spectral_cfg)

    def test_near_virus_free_start_finds_the_orbit(self, spectral_cfg):
        # R0 ~ 2.6: from next to the virus-free orbit the infection first
        # grows by orders of magnitude, a change that must not stop the
        # iteration however small it is in absolute terms
        params = replace(persistence_params(), beta=table_coefficients(beta_scale=0.04)[1])
        t0 = virus_free_closed_form(params).t_star_initial
        orbits = [
            find_periodic_orbit(params, warm_start_guess(params, ic, 2000.0, spectral_cfg),
                                spectral_cfg).initial_state.as_array()
            for ic in (State(t0, 1e-12, 1e-12, 1e-12), State(10.0, 1.0, 1.0, 1.0))]
        assert np.max(np.abs(orbits[0] - orbits[1]) / np.abs(orbits[1])) < 1e-9

    def test_extrapolates_aimed_at_the_virus_free_orbit_stop(self, sim_cfg):
        # R0 = 1.20 with delta and p at the low ends of RATES: from
        # (10, 1, 1, 1) the infection dips, then rises slowly, and each
        # extrapolate undid more of the rise than its pass restored, until
        # after all 83 passes Newton met the virus-free orbit
        rates = {"mu0": 0.11204077013475551, "d0": 0.025135275272130293,
                 "k": 0.22416933360101593, "delta": 0.02, "p": 0.1, "c": 0.4373719395401639,
                 "c1": 0.17465707671781192, "c2": 0.025364579389871522}
        params = admissible_periodic(rates, 0.08, (0.025364579389871522, 0.025135275272130293,
                                                   1.8998851556783938e-97))
        orbits = [find_periodic_orbit(params, warm_start_guess(params, ic, 2000.0, sim_cfg),
                                      sim_cfg) for ic in DEFAULT_INITIAL_CONDITIONS]
        starts = np.array([orbit.initial_state.as_array() for orbit in orbits])
        assert all(orbit.stable for orbit in orbits) and np.all(starts[:, 1:] > 0.1)
        assert np.max(np.abs(starts - starts[0]) / starts[0]) < 1e-9

    def test_stops_once_settled(self, monkeypatch, spectral_cfg):
        # 83 periods of budget; the accelerated iteration settles after 8
        calls = count_calls(monkeypatch, periodic, "integrate")
        warm_start_guess(persistence_params(), State(10.0, 1.0, 1.0, 1.0), 2000.0,
                         spectral_cfg)
        assert 2 <= len(calls) <= 15
        assert all(args[1:3] == (0.0, 24.0) for args in calls)

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(jitter=st.lists(st.floats(-0.1, 0.1), min_size=8, max_size=8),
           amps=st.tuples(*(st.floats(0.2, 0.6) for _ in range(3))),
           r0=st.one_of(st.tuples(st.just("closed-form"), st.floats(2.0, 20.0)),
                        st.tuples(st.just("periodic"), st.floats(1.0001, 1.5))))
    @example(jitter=[0.0] * 8, amps=(0.4, 0.4, 0.4), r0=("periodic", 1.0001))
    @example(jitter=[0.0] * 8, amps=(0.4, 0.4, 0.4), r0=("periodic", 1.005))
    def test_no_worse_than_plain_iteration(self, jitter, amps, r0):
        # sets shaped like the orbit_shoot benchmark's: rates within 10% of the
        # shipped magnitudes, amplitudes 0.2-0.6 of their means, beta placed at
        # a closed-form R0 of 2-20 or a periodic R0 of 1.0001-1.5 (R0 is
        # linear in beta)
        mu, d, k, delta, p, c, c1, c2 = (
            m * math.exp(j) for m, j in zip((0.1, 0.01, 0.2, 0.1, 0.5, 0.12, 0.1, 0.1), jitter))
        params = ModelParameters(
            angular_frequency=OMEGA, mu=SinusoidalCoefficient(mu, amps[0] * mu),
            beta=SinusoidalCoefficient(1.0, amps[1]), d=SinusoidalCoefficient(d, amps[2] * d),
            k=k, delta=delta, p=p, c=c, c1=c1, c2=c2)
        kind, target = r0
        scale = target / (closed_form_r0(params) if kind == "closed-form"
                          else r0_periodic(params, tol=1e-10).value)
        params = replace(params, beta=SinusoidalCoefficient(scale, scale * amps[1]))
        cfg = IntegratorConfig.spectral()
        routes = []
        for route in (warm_start_guess, plain_warm_start):
            passes = []
            original = periodic._period_pass

            def counted(*args):
                passes.append(args)
                return original(*args)

            with mock.patch.object(periodic, "_period_pass", counted):
                guess = route(params, State(10.0, 1.0, 1.0, 1.0), 2000.0, cfg)
            routes.append((len(passes), find_periodic_orbit(params, guess, cfg)))
        (passes, orbit), (plain_passes, plain) = routes
        assert passes <= plain_passes and orbit.iterations <= plain.iterations
        # two Newton solutions with residuals r and r' differ by at most
        # |(Phi - I)^-1| (|r| + |r'|) to first order; near threshold Phi has a
        # multiplier next to 1 and that bound dominates 1e-9 relative
        x, x_plain = orbit.initial_state.as_array(), plain.initial_state.as_array()
        _, mono = periodic._flow_and_monodromy(params, x_plain, cfg)
        newton_bound = (np.linalg.norm(np.linalg.inv(mono - np.eye(4)), np.inf)
                        * (orbit.newton_residual + plain.newton_residual))
        assert np.all(np.abs(x - x_plain) <= 1e-9 * np.abs(x_plain) + newton_bound)
        assert orbit.stable == plain.stable

    def test_slowest_benchmark_set_settles_in_few_passes(self, monkeypatch, spectral_cfg):
        # the orbit_shoot set of seed 901 with the slowest plain iteration: its
        # dominant multipliers are a complex pair of modulus 0.746, which the
        # extrapolation removes
        params = ModelParameters(
            angular_frequency=OMEGA,
            mu=SinusoidalCoefficient(0.09991936649255895, 0.05158583006397471),
            beta=SinusoidalCoefficient(0.010247007366334614, 0.0035535413417264825),
            d=SinusoidalCoefficient(0.00910058605983472, 0.0038560941713638216),
            k=0.1838474467086469, delta=0.09686296653400062, p=0.5379924265473827,
            c=0.1214985490178569, c1=0.10260336902964673, c2=0.10508307748597526)
        ic = State(10.0, 1.0, 1.0, 1.0)
        calls = count_calls(monkeypatch, periodic, "_period_pass")
        plain_warm_start(params, ic, 2000.0, spectral_cfg)
        assert len(calls) == 49
        calls.clear()
        guess = warm_start_guess(params, ic, 2000.0, spectral_cfg)
        assert len(calls) <= 15
        orbit = find_periodic_orbit(params, guess, spectral_cfg)
        assert orbit.iterations == 2
        m = orbit.floquet_multipliers
        assert m[0] == np.conj(m[1]) and abs(m[0]) == pytest.approx(0.746, abs=5e-4)

    def test_unsettled_run_uses_the_whole_budget(self, monkeypatch, sim_cfg):
        params = persistence_params()
        calls = count_calls(monkeypatch, periodic, "_period_pass")
        warm_start_guess(params, State(10.0, 1.0, 1.0, 1.0), 4.5 * params.period, sim_cfg)
        assert len(calls) == 4

    def test_virus_free_face_rejected_before_the_first_pass(self, monkeypatch, sim_cfg):
        # E = I = V = 0 is invariant, so no number of passes can leave it
        calls = count_calls(monkeypatch, periodic, "_period_pass")
        with pytest.raises(ValueError, match="virus-free face E = I = V = 0"):
            warm_start_guess(persistence_params(), State(10.0, 0.0, 0.0, 0.0), 240.0, sim_cfg)
        assert calls == []

    def test_pass_landing_on_the_virus_free_face_fails_at_once(self, monkeypatch, sim_cfg):
        # E = I = V = 0 is invariant: once a pass clamps all three to zero no
        # later pass can leave the face, so the transient stops there
        original = periodic._period_pass
        passes = []

        def collapsing(params, x, cfg):
            image, step = original(params, x, cfg)
            passes.append(image)
            if len(passes) == 2:
                image = State(image.t_cells, 0.0, 0.0, 0.0)
            return image, step

        monkeypatch.setattr(periodic, "_period_pass", collapsing)
        with pytest.raises(ConvergedToBoundary, match="pass 2 landed on the virus-free face"):
            warm_start_guess(persistence_params(), State(10.0, 1.0, 1.0, 1.0), 240.0, sim_cfg)
        assert len(passes) == 2

    @pytest.mark.parametrize("ic", [State(10.0, 0.0, 0.0, 1.0), State(10.0, 1.0, 0.0, 0.0)])
    def test_start_with_some_infection_at_zero_runs_silently(self, monkeypatch, sim_cfg, ic):
        calls = count_calls(monkeypatch, periodic, "_period_pass")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = warm_start_guess(persistence_params(), ic, 240.0, sim_cfg)
        assert len(calls) >= 1
        assert np.all(s.as_array() > 0.0)

    def test_short_transient_rejected(self, sim_cfg):
        with pytest.raises(ValueError):
            warm_start_guess(persistence_params(), State(10.0, 1.0, 1.0, 1.0), 10.0,
                             sim_cfg)


class TestFloquetMachinery:
    def test_diagonal_multipliers(self):
        m = floquet_multipliers(np.diag([0.5, 0.2, 0.1, 0.05]))
        assert np.allclose(m, [0.5, 0.2, 0.1, 0.05])
        # a stack is sorted member by member
        stack = np.array([np.diag([0.1, 0.5, 0.05, 0.2]), np.diag([-0.2, 0.05, 0.5, -0.1])])
        assert np.allclose(floquet_multipliers(stack),
                           [[0.5, 0.2, 0.1, 0.05], [0.5, -0.2, -0.1, 0.05]])

    def test_constant_coefficient_scalar_multiplier(self, spectral_cfg):
        # at the virus-free orbit of the constant-coefficient model the
        # healthy direction contributes e^{-d P}
        params = constant_coefficient_params()
        sol = virus_free_closed_form(params)
        A = lambda t: jacobian(t, np.array([sol.value(t), 0.0, 0.0, 0.0]), params)
        M = integrate_matrix(A, 0.0, params.period, np.eye(4), spectral_cfg).end_matrix
        expected = math.exp(-params.d.mean * params.period)
        assert np.min(np.abs(floquet_multipliers(M) - expected)) < 1e-10

    @pytest.mark.parametrize("beta_scale", [0.01, 1.0])
    def test_virus_free_spectrum_splits(self, beta_scale, spectral_cfg):
        # 4x4 monodromy at the virus-free orbit is block triangular: its
        # spectrum is {e^{-int d}} plus the spectrum of the (E,I,V) block.
        # Comparison is scaled by eigenvalue magnitude: integration error in
        # the monodromy grows with its dominant multiplier (~1e4 at beta_scale 1),
        # while the small-spectrum case meets 1e-8 absolutely.
        params = skewed_params()
        from dataclasses import replace
        params = replace(params, beta=SinusoidalCoefficient(
            params.beta.mean * beta_scale, params.beta.amplitude * beta_scale))
        sol = virus_free_closed_form(params)
        A_full = lambda t: jacobian(t, np.array([sol.value(t), 0.0, 0.0, 0.0]), params)
        full = integrate_matrix(A_full, 0.0, params.period, np.eye(4), spectral_cfg).end_matrix

        sub = integrate_matrix(combined(build_linearization(params), 1.0), 0.0, params.period,
                               np.eye(3), spectral_cfg).end_matrix
        d_mult = math.exp(-(params.d.mean * params.period))  # sine integrates to 0
        expected = np.sort_complex(np.concatenate([[d_mult], floquet_multipliers(sub)]))
        got = np.sort_complex(floquet_multipliers(full))
        tol = 1e-8 * np.maximum(1.0, np.abs(expected))
        assert np.all(np.abs(got - expected) <= tol)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            floquet_multipliers(np.array([[math.nan, 0.0], [0.0, 1.0]]))
