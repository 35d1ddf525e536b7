import importlib
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from perivir import (
    BracketFailure,
    IntegratorConfig,
    ModelParameters,
    NonFiniteState,
    R0Result,
    SinusoidalCoefficient,
    build_linearization,
    floquet_multipliers,
    integrate_matrix,
    r0_autonomous,
    r0_periodic,
    rho_for_lambda,
    sweep,
    virus_free_closed_form,
)
from perivir import periodic, reproduction
from perivir.cli import load_config, main
from perivir.reproduction import _hill_r0, _pair, _unit_crossing

from .helpers import (
    AMPS,
    MP_R0,
    RATES,
    adiabatic_r0,
    admissible_periodic,
    beta_at_threshold,
    bisection_r0,
    bisection_root,
    closed_form_r0,
    combined,
    count_calls,
    expm_reference,
    exponential_operator,
    baseline_params,
    flat_mu_wide_d_params,
    hide_float_forms,
    hill_on_time_grid,
    integrating_factor_bounds,
    interpolated_t_star_radii,
    periodic_solve,
    persistence_params,
    power_iteration_radius,
    random_autonomous_params,
    random_periodic_params,
    recorded_monodromy,
    refined_linearization,
    refined_r0,
    skewed_params,
    zero_beta_params,
)
from .test_periodic import constant_coefficient_params

# the package attribute perivir.integrate is the function
integrate_module = importlib.import_module("perivir.integrate")
ROOT = pathlib.Path(__file__).resolve().parent.parent

SHIPPED = ("baseline", "extinction", "persistence")


def _unconverged_hill(lin, order):
    """A `_hill_r0` that is nan at every order: the search starts from K's bounds alone."""
    return math.nan, None


def _shifted_hill(shift):
    """`_hill_r0` with its value moved by shift at every order and its eigenfunction kept."""
    hill = reproduction._hill_r0

    def shifted(lin, order):
        value, u = hill(lin, order)
        return value + shift, u

    return shifted


def _negated_hill(lin, order):
    """`_hill_r0` with its eigenfunction negated at every order: no enclosure can be taken."""
    value, u = _hill_r0(lin, order)
    return value, None if u is None else -u


def _search_seed(lin, tol):
    """The search's Hill value: the first at orders 16, 32, ... within tol/4 of the order before.

    nan when none is, up to HILL_MAX_ORDER.
    """
    previous, n = math.nan, 8
    while n <= reproduction.HILL_MAX_ORDER:
        value, _ = _hill_r0(lin, n)
        if abs(value - previous) <= 0.25 * tol:
            return value
        previous, n = value, 2 * n
    return math.nan


def _hill_orders(monkeypatch):
    """The orders of every `_hill_r0` call from here on, in order."""
    orders, hill = [], reproduction._hill_r0

    def spied(lin, order):
        orders.append(order)
        return hill(lin, order)

    monkeypatch.setattr(reproduction, "_hill_r0", spied)
    return orders


def _infection_entry(lin, t: float) -> float:
    """F's one nonzero entry, (E, V), of combined(lin, 1.0): beta(t) T*(t) / (1 + c1 T*(t))."""
    return combined(lin, 1.0)(t)[0, 2]


class TestLinearization:
    def test_constant_coefficient_infection_entry(self, spectral_cfg):
        # T* = mu/d = 10, so F(1,3) = 0.3 * 10 / (1 + 0.1*10) = 1.5
        lin = build_linearization(constant_coefficient_params())
        for t in (0.0, 5.0, 17.3):
            assert _infection_entry(lin, t) == pytest.approx(1.5, rel=1e-10)
            # F/1 - F/2 = F/2 has the single nonzero entry at (E, V)
            half_f = combined(lin, 1.0)(t) - combined(lin, 2.0)(t)
            assert np.count_nonzero(half_f) == 1
            assert half_f[0, 2] == 0.5 * _infection_entry(lin, t)

    def test_saturation_off_reduces_to_beta_tstar(self, spectral_cfg):
        params = constant_coefficient_params(c1=0.0)
        sol = virus_free_closed_form(params)
        lin = build_linearization(params)
        t = 3.0
        assert _infection_entry(lin, t) == pytest.approx(
            params.rates(t)[1] * sol.value(t), rel=1e-10)

    def test_t_star_is_closed_form_of_params(self):
        params = skewed_params()
        lin = build_linearization(params)
        assert lin.params is params
        assert np.array_equal(lin.t_star.values, virus_free_closed_form(params).values)

    def test_combined_at_one_is_f_minus_g(self):
        params = skewed_params()
        lin = build_linearization(params)
        for t in (0.0, 7.7):
            _, beta_t, d_t = params.rates(t)
            ts = lin.t_star.value(t)
            f_minus_g = np.array([
                [-(params.k + d_t), 0.0, beta_t * ts / (1.0 + params.c1 * ts)],
                [params.k, -(params.delta + d_t), 0.0],
                [0.0, params.p, -params.c],
            ])
            assert np.array_equal(combined(lin, 1.0)(t), f_minus_g)

    def test_transfer_matrix_layout(self):
        # G is -combined(lin, lam) everywhere but at (E, V), where F sits
        params = skewed_params()
        lin = build_linearization(params)
        for t in (0.0, 7.7):
            G = -combined(lin, 3.0)(t)
            assert G[0, 2] == pytest.approx(-_infection_entry(lin, t) / 3.0, rel=1e-14)
            G[0, 2] = 0.0
            d_t = params.rates(t)[2]
            assert G[0, 0] == pytest.approx(params.k + d_t, rel=1e-14)
            assert G[1, 1] == pytest.approx(params.delta + d_t, rel=1e-14)
            assert G[2, 2] == params.c
            assert G[1, 0] == -params.k
            assert G[2, 1] == -params.p
            assert G[0, 1] == G[1, 2] == G[2, 0] == 0.0
            # -G cooperative: off-diagonals of G nonpositive
            off = G - np.diag(np.diag(G))
            assert np.all(off <= 0.0)

    def test_nonnegative_f_and_periodicity(self):
        params = skewed_params()
        lin = build_linearization(params)
        ts = np.linspace(0.0, params.period, 29)
        for t in ts:
            assert _infection_entry(lin, t) >= 0.0
            assert abs(_infection_entry(lin, t + params.period)
                       - _infection_entry(lin, t)) < 1e-10

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(rates=RATES, log_r0_factor=st.floats(-1.5, 1.5), amps=AMPS,
           t=st.floats(-100.0, 100.0), log_lam=st.floats(-1.0, 2.0),
           seed=st.integers(0, 2**32 - 1))
    def test_float_form_is_the_product_left_to_right(self, rates, log_r0_factor, amps, t,
                                                      log_lam, seed):
        # at T = T*(t), the monodromy field, its own float form, has, for M, the
        # bits of sum_j A(t)[i, j] * M[j, k] taken left to right over all three
        # j (M's entries are nonzero, so the products with A's zeros add
        # nothing), and for T those of mu(t) - d(t) T
        rng = np.random.default_rng(seed)
        matrix = rng.uniform(-1.0, 1.0, size=(3, 3)) * 10.0 ** rng.uniform(-3.0, 3.0,
                                                                            size=(3, 3))
        lin = build_linearization(admissible_periodic(rates, log_r0_factor, amps))
        lam = 10.0 ** log_lam
        ts = lin.t_star.value(t)
        f = reproduction._monodromy_field(lin, lam)
        assert f.floats(10) is f
        got = f(t, matrix.ravel().tolist() + [ts])
        # Python floats, not np.float64, whose arithmetic takes about twice as long
        assert all(type(v) is float for v in got)
        a, m = combined(lin, lam)(t).tolist(), matrix.tolist()
        expected = []
        for i in range(3):
            for k in range(3):
                acc = a[i][0] * m[0][k]
                for j in (1, 2):
                    acc = acc + a[i][j] * m[j][k]
                expected.append(acc)
        mu_t, _, d_t = lin.params.rates(t)
        expected.append(mu_t - d_t * ts)
        assert np.array(got).tobytes() == np.array(expected).tobytes()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(rates=RATES, log_r0_factor=st.floats(-1.5, 1.5), amps=AMPS,
           t=st.floats(-100.0, 100.0), log_lam=st.floats(-1.0, 2.0),
           seed=st.integers(0, 2**32 - 1))
    def test_float_form_is_the_combined_field_at_one_over_lambda(self, rates, log_r0_factor,
                                                                 amps, t, log_lam, seed):
        # on any 10 values, T off T* included, the field has the bits of
        # `_combined_field` with lin's rates and 1/lam, and so on an array, as
        # integrate calls it for a caller that hides f.floats, once raveled
        lin = build_linearization(admissible_periodic(rates, log_r0_factor, amps))
        p, lam = lin.params, 10.0 ** log_lam
        rng = np.random.default_rng(seed)
        y = rng.uniform(-1.0, 1.0, size=10) * 10.0 ** rng.uniform(-3.0, 3.0, size=10)
        y[9] = rng.uniform(0.0, 100.0)  # T
        f = reproduction._monodromy_field(lin, lam)
        got = f(t, y.tolist())
        assert len(got) == 10 and all(type(v) is float for v in got)
        on_arrays = np.ravel(f(t, y))
        assert on_arrays.shape == y.shape and on_arrays.tobytes() == np.array(got).tobytes()
        alone = reproduction._combined_field(
            p.angular_frequency, p.mu.mean, p.mu.amplitude, p.beta.mean, p.beta.amplitude,
            p.d.mean, p.d.amplitude, p.k, p.delta, p.p, p.c, p.c1, p.c2, 1.0 / lam, t, y.tolist())
        assert np.array(got).tobytes() == np.array(alone).tobytes()

    def test_float_form_rejects_a_member_count_other_than_the_lambdas(self, spectral_cfg):
        # a stack of lambdas has no float form; three lambdas with a single 3x3
        # start are an error, not the product for the first lambda alone
        A = combined(build_linearization(persistence_params()), np.array([1.0, 2.0, 3.0]))
        assert not hasattr(A, "floats")
        with pytest.raises(ValueError):
            integrate_matrix(A, 0.0, 24.0, np.eye(3), spectral_cfg)

    @pytest.mark.parametrize("members", [1, 2, 3, 4])
    @pytest.mark.parametrize("one_lambda", [False, True])
    def test_stack_per_member_count_steps_each_member(self, monkeypatch, spectral_cfg,
                                                      members, one_lambda):
        # combined has no float form, for a number lam or a stack of them: a
        # stack of lambdas, or a stack of starts under one lambda, a single
        # matrix included, steps on arrays, and each member ends at the
        # monodromy its own lambda gives alone
        params = persistence_params()
        lin = build_linearization(params)
        lams = np.geomspace(0.5, 2.0, members) if members > 1 else np.array([0.8])
        A = combined(lin, lams[0] if one_lambda else lams)
        assert not hasattr(A, "floats")
        floats = count_calls(monkeypatch, integrate_module, "_step_kernel")
        arrays = count_calls(monkeypatch, integrate_module, "_array_step")
        eye = np.broadcast_to(np.eye(3), (members, 3, 3))
        ends = integrate_matrix(A, 0.0, params.period, eye, spectral_cfg).end_matrix
        assert ends.shape == (members, 3, 3)
        assert floats == [] and len(arrays) > 0
        for end, lam in zip(ends, lams[:1].repeat(members) if one_lambda else lams):
            alone = integrate_matrix(combined(lin, float(lam)), 0.0, params.period, np.eye(3),
                                     spectral_cfg).end_matrix
            assert np.allclose(end, alone, rtol=1e-6, atol=1e-9 * np.abs(alone).max())


class TestMonodromy:
    def test_zero_matrix_gives_identity(self, spectral_cfg):
        M = integrate_matrix(lambda t: np.zeros((3, 3)), 0.0, 24.0, np.eye(3),
                             spectral_cfg).end_matrix
        assert np.max(np.abs(M - np.eye(3))) < 1e-12
        assert abs(floquet_multipliers(M)[..., 0]) == pytest.approx(1.0, abs=1e-12)

    def test_constant_matrix_matches_expm(self, spectral_cfg):
        rng = np.random.default_rng(31)
        A = rng.uniform(-0.06, 0.06, size=(3, 3))
        M = integrate_matrix(lambda t: A, 0.0, 24.0, np.eye(3), spectral_cfg).end_matrix
        assert np.max(np.abs(M - expm_reference(24.0 * A))) < 1e-8

    def test_threshold_sign_agreement_baseline(self, spectral_cfg):
        params = baseline_params()
        lin = build_linearization(params)
        M = integrate_matrix(combined(lin, 1.0), 0.0, params.period, np.eye(3),
                             spectral_cfg).end_matrix
        r0 = r0_periodic(params)
        assert (abs(floquet_multipliers(M)[..., 0]) > 1.0) == (r0.value > 1.0)

    # a single matrix and every stack of lambdas step on arrays
    @pytest.mark.parametrize("members", [None, 1, 3, 6])
    def test_trajectory_is_empty_and_the_end_unchanged(self, monkeypatch, spectral_cfg,
                                                         members):
        # integrate_matrix samples nothing, and loses no bit by it: the end,
        # the tallies and next_step are those of a run that records every step
        params = persistence_params()
        lams = 1.0 if members is None else np.geomspace(0.5, 2.0, members)
        eye = np.broadcast_to(np.eye(3), np.shape(lams) + (3, 3))
        A = combined(build_linearization(params), lams)
        sol = integrate_matrix(A, 0.0, params.period, eye, spectral_cfg)
        assert len(sol.trajectory) == 0
        recorded = []
        original = integrate_module.integrate

        def every_step(f, t0, t1, y0, cfg, t_eval=None):
            recorded.append(original(f, t0, t1, y0, cfg))
            return recorded[-1]

        monkeypatch.setattr(integrate_module, "integrate", every_step)
        integrate_matrix(A, 0.0, params.period, eye, spectral_cfg)
        (ref,) = recorded
        assert len(ref.trajectory) == ref.step_count - ref.rejected + 1
        assert np.array_equal(sol.end_matrix, ref.final.reshape(eye.shape))
        assert (sol.step_count, sol.rejected, sol.next_step) == (
            ref.step_count, ref.rejected, ref.next_step)


class TestSpectralRadius:
    """abs(floquet_multipliers(M)[..., 0]) is the largest eigenvalue modulus."""

    def test_diagonal(self, spectral_cfg):
        A = np.diag([math.log(2.0), -math.log(3.0), math.log(0.5)]) / 24.0
        M = integrate_matrix(lambda t: A, 0.0, 24.0, np.eye(3), spectral_cfg).end_matrix
        assert abs(floquet_multipliers(M)[..., 0]) == pytest.approx(2.0, rel=1e-9)

    def test_identity(self, spectral_cfg):
        # a rotation generator: the monodromy is orthogonal, every |eigenvalue| is 1
        A = np.array([[0.0, 0.2, 0.0], [-0.2, 0.0, 0.1], [0.0, -0.1, 0.0]])
        M = integrate_matrix(lambda t: A, 0.0, 24.0, np.eye(3), spectral_cfg).end_matrix
        assert abs(floquet_multipliers(M)[..., 0]) == pytest.approx(1.0, rel=1e-9)

    def test_matches_power_iteration_on_nonnegative_matrices(self, spectral_cfg):
        rng = np.random.default_rng(19)
        # nonnegative off-diagonals: each monodromy is positive, hence irreducible
        stack = np.array([rng.uniform(0.0, 0.05, size=(3, 3)) - np.diag(rng.uniform(0.0, 0.1, 3))
                          for _ in range(10)])
        for A in stack:
            M = integrate_matrix(lambda t: A, 0.0, 24.0, np.eye(3), spectral_cfg).end_matrix
            assert abs(floquet_multipliers(M)[..., 0]) == pytest.approx(
                power_iteration_radius(M), rel=1e-8)
        # an (m, 3, 3) stack gives each member's radius
        Ms = integrate_matrix(lambda t: stack, 0.0, 24.0,
                              np.broadcast_to(np.eye(3), stack.shape), spectral_cfg).end_matrix
        radii = abs(floquet_multipliers(Ms)[..., 0])
        assert radii.shape == (10,)
        for M, r in zip(Ms, radii):
            assert r == abs(floquet_multipliers(M)[..., 0])
            assert r == pytest.approx(power_iteration_radius(M), rel=1e-8)

    def test_non_finite_rejected(self, spectral_cfg):
        with pytest.raises(NonFiniteState):
            integrate_matrix(lambda t: np.array([[math.nan, 0.0], [0.0, 1.0]]), 0.0, 24.0,
                             np.eye(2), spectral_cfg)

    def test_infinite_generator_raises_without_a_warning(self, spectral_cfg):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteState):
                integrate_matrix(lambda t: np.array([[math.inf, 0.0], [0.0, 1.0]]), 0.0, 24.0,
                                 np.eye(2), spectral_cfg)


class TestR0Autonomous:
    def test_baseline_hand_value(self):
        val = r0_autonomous(mu=0.1, beta=0.3, d=0.01, k=0.2, delta=0.09,
                            p=0.5, c=0.18, c1=0.1)
        assert val == pytest.approx(0.003 / 7.56e-5, rel=1e-12)
        assert val == pytest.approx(39.6825396825, rel=1e-10)

    def test_no_saturation_reduction(self):
        val = r0_autonomous(mu=0.1, beta=0.3, d=0.01, k=0.2, delta=0.09,
                            p=0.5, c=0.18, c1=0.0)
        expected = 0.5 * 0.3 * 0.2 * 0.1 / (0.18 * 0.1 * 0.21 * 0.01)
        assert val == pytest.approx(expected, rel=1e-12)

    def test_no_transmission(self):
        assert r0_autonomous(mu=0.1, beta=0.0, d=0.01, k=0.2, delta=0.09,
                             p=0.5, c=0.18, c1=0.1) == 0.0

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            r0_autonomous(mu=0.0, beta=0.3, d=0.01, k=0.2, delta=0.09,
                          p=0.5, c=0.18, c1=0.1)

    @pytest.mark.parametrize("beta, c1", [(-0.3, 0.1), (0.3, -0.1)])
    def test_negative_beta_or_c1_rejected(self, beta, c1):
        with pytest.raises(ValueError, match="^beta and c1 must be nonnegative$"):
            r0_autonomous(mu=0.1, beta=beta, d=0.01, k=0.2, delta=0.09,
                          p=0.5, c=0.18, c1=c1)


class TestR0Periodic:
    def test_autonomous_matches_closed_form_above_one(self):
        params = baseline_params(amps=0.0)
        res = r0_periodic(params)
        closed = closed_form_r0(params)
        assert abs(res.value - closed) / closed < 1e-6
        assert res.method == "periodic-monodromy"

    def test_autonomous_matches_closed_form_below_one(self):
        params = baseline_params(amps=0.0, beta_scale=0.01)
        res = r0_periodic(params)
        closed = closed_form_r0(params)
        assert abs(res.value - closed) / closed < 1e-6
        assert res.value < 1.0  # extinction side

    def test_root_property_and_sign_consistency(self, spectral_cfg):
        for params in (persistence_params(), skewed_params()):
            res = r0_periodic(params)
            lin = build_linearization(params)
            assert abs(rho_for_lambda(lin, res.value, spectral_cfg) - 1.0) < 1e-6
            assert (res.value > 1.0) == (res.rho_at_one > 1.0)

    def test_bracket_straddles_root(self, spectral_cfg):
        params = persistence_params()
        res = r0_periodic(params, tol=1e-6)
        lin = build_linearization(params)
        assert rho_for_lambda(lin, res.bracket[0], spectral_cfg) >= 1.0
        assert rho_for_lambda(lin, res.bracket[1], spectral_cfg) <= 1.0
        assert res.bracket[0] <= res.value <= res.bracket[1]

    def test_rho_nonincreasing_on_log_grid(self, spectral_cfg):
        params = persistence_params()
        res = r0_periodic(params, tol=1e-4)
        lin = build_linearization(params)
        lams = np.geomspace(res.value / 4.0, res.value * 4.0, 9)
        rhos = [rho_for_lambda(lin, lam, spectral_cfg) for lam in lams]
        for a, b in zip(rhos, rhos[1:]):
            assert a >= b - 1e-9

    def test_a_numpy_scalar_gives_the_bits_of_its_float(self, spectral_cfg):
        lin = build_linearization(persistence_params())
        for lam in np.geomspace(0.5, 500.0, 3):
            radius = rho_for_lambda(lin, lam, spectral_cfg)
            assert type(radius) is float and radius == rho_for_lambda(lin, float(lam),
                                                                      spectral_cfg)

    def test_an_array_of_lambdas_is_a_type_error(self, spectral_cfg):
        # one number a call: an array of lambdas is not a stack of runs
        with pytest.raises(TypeError):
            rho_for_lambda(build_linearization(persistence_params()), np.array([1.0, 2.0]),
                           spectral_cfg)

    def test_scale_covariance_of_infection_term(self):
        # scaling beta scales F, and the root characterization scales with it
        base = persistence_params()
        r_base = r0_periodic(base, tol=1e-10)
        for s in (0.25, 4.0):
            scaled = persistence_params()
            from dataclasses import replace
            from perivir import SinusoidalCoefficient
            scaled = replace(scaled, beta=SinusoidalCoefficient(
                base.beta.mean * s, base.beta.amplitude * s))
            r_scaled = r0_periodic(scaled, tol=1e-10)
            assert r_scaled.value == pytest.approx(s * r_base.value, rel=1e-7)

    def test_zero_beta_reports_conventional_zero(self):
        res = r0_periodic(zero_beta_params())
        assert res.value == 0.0
        assert res.method == "no-infection-term"
        assert res.rho_at_one < 1.0

    def test_sign_equivalence_sample(self):
        rng = np.random.default_rng(101)
        checked = 0
        for _ in range(8):
            params = random_autonomous_params(rng)
            res = r0_periodic(params)
            if abs(res.value - 1.0) < 1e-7 or abs(res.rho_at_one - 1.0) < 1e-7:
                continue
            assert (res.value > 1.0) == (res.rho_at_one > 1.0)
            checked += 1
        assert checked >= 6

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError):
            r0_periodic(baseline_params(), tol=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tolerance_rejected(self, tol):
        with pytest.raises(ValueError):
            r0_periodic(baseline_params(), tol=tol)


class TestMonodromyStartTime:
    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(rates=RATES, log_r0_factor=st.floats(-1.5, 1.5), amps=AMPS,
           log_lam=st.floats(-2.0, 2.0),
           periods=st.lists(st.floats(0.0, 5.0), min_size=4, max_size=4))
    def test_spectral_radius_independent_of_start(self, rates, log_r0_factor, amps,
                                                  log_lam, periods):
        # Starting the period at s shifts the forcing phase of mu, beta and d
        # together. Phi(s + P, s) is similar to Phi(P, 0), so its radius is
        # rho_for_lambda's at any s in [0, 5P], and with it R0, the unit
        # crossing of that radius. The worst deviation seen was 2.8e-10.
        params = admissible_periodic(rates, log_r0_factor, amps)
        lin = build_linearization(params)
        lam = 10.0 ** log_lam
        cfg = IntegratorConfig.spectral()
        P = params.period
        expected = rho_for_lambda(lin, lam, cfg)
        for s in periods:
            M = integrate_matrix(combined(lin, lam), s * P, s * P + P, np.eye(3), cfg).end_matrix
            assert abs(floquet_multipliers(M)[0]) == pytest.approx(expected, rel=1e-8)


class TestR0Search:
    def test_trace_holds_every_evaluation_and_the_bracket_straddles_the_root(self):
        params = persistence_params()
        res = r0_periodic(params)
        assert res.iterations == len(res.trace)
        assert res.trace[0] == (1.0, res.rho_at_one)
        assert _certified(params, res, 1e-8)

    def test_zero_beta_trace_is_the_single_evaluation(self):
        res = r0_periodic(zero_beta_params())
        assert res.trace == ((1.0, res.rho_at_one),)
        assert res.iterations == 1

    def test_certified_path_is_one_integration(self, monkeypatch):
        # the enclosure certifies the bracket, so the one integration is lambda = 1's
        rho_calls = count_calls(monkeypatch, reproduction, "rho_for_lambda")
        direct_calls = count_calls(monkeypatch, reproduction, "integrate")
        # integrate_matrix's runs: no radius reads T* through its interpolant
        matrix_runs = count_calls(monkeypatch, integrate_module, "integrate")
        res = r0_periodic(persistence_params())
        assert len(rho_calls) == len(direct_calls) == 1 and matrix_runs == []
        assert res.iterations == 1 and res.trace == ((1.0, res.rho_at_one),)
        assert rho_calls[0][1] == 1.0
        assert np.shape(direct_calls[0][3]) == (10,)

    def test_each_lambda_is_one_call_of_one_integration(self, monkeypatch):
        # with the Fourier value unconverged the search starts from K's two bounds
        monkeypatch.setattr(reproduction, "_hill_r0", _unconverged_hill)
        calls = _spy_search(monkeypatch)
        params = persistence_params()
        res = r0_periodic(params)
        _assert_one_integration_a_lambda(*calls, res)
        assert [lam for lam, _ in res.trace[1:3]] == list(
            reproduction._operator_bounds(build_linearization(params), 1e-8))
        assert res.iterations > 3

    def test_evaluation_budget_persistence(self):
        assert r0_periodic(persistence_params()).iterations <= 12

    def test_evaluation_budget_zero_amplitude(self):
        rng = np.random.default_rng(20240101)
        for params in [baseline_params(amps=0.0)] + [
                random_autonomous_params(rng) for _ in range(5)]:
            assert r0_periodic(params).iterations <= 5

    def test_evaluation_budget_random_periodic(self):
        # the first 30 sets of the criterion-3 sample
        rng = np.random.default_rng(20240103)
        counts = [r0_periodic(random_periodic_params(rng)).iterations for _ in range(30)]
        assert max(counts) <= 12

    @pytest.mark.parametrize("start", ["fourier", "bounds"])
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(rates=RATES, log_r0_factor=st.floats(-1.5, 1.5), amps=AMPS)
    @example(rates={"mu0": 0.25, "d0": 0.0234375, "k": 0.5, "delta": 0.5, "p": 0.5,
                    "c": 0.5, "c1": 0.25, "c2": 0.0},
             log_r0_factor=0.0, amps=(0.0, 0.0, 0.0))
    def test_matches_bisection_oracle(self, start, rates, log_r0_factor, amps):
        # "bounds": with the Fourier value unconverged, the search starts from
        # K's bounds alone
        params = admissible_periodic(rates, log_r0_factor, amps)
        tol = 1e-6
        hill = _unconverged_hill if start == "bounds" else _hill_r0
        with mock.patch.object(reproduction, "_hill_r0", hill):
            res = r0_periodic(params, tol=tol)
        oracle, _, _ = bisection_r0(params, tol=tol)
        assert abs(res.value - oracle) <= tol + 1e-8 * oracle
        cfg = IntegratorConfig.spectral()
        lin = build_linearization(params)
        lo, hi = res.bracket
        assert lo <= res.value <= hi and hi - lo <= tol
        assert rho_for_lambda(lin, lo, cfg) >= 1.0 >= rho_for_lambda(lin, hi, cfg)

    @pytest.mark.parametrize("scaled_rate", ["beta", "p"])
    @pytest.mark.parametrize("start", ["fourier", "bounds"])
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(rates=RATES, log_r0_factor=st.floats(-1.5, 1.5), amps=AMPS,
           s=st.floats(0.1, 10.0))
    def test_scale_covariance(self, scaled_rate, start, rates, log_r0_factor, amps, s):
        # beta -> s*beta scales F and p -> s*p scales K = p k S_V^-1 S_I^-1 S_E^-1 f,
        # so either scales R0 by s; each value lies within tol/2 of its root,
        # hence the two sides within (1 + s)*tol/2
        params = admissible_periodic(rates, log_r0_factor, amps)
        scaled = (replace(params, beta=SinusoidalCoefficient(
            s * params.beta.mean, s * params.beta.amplitude)) if scaled_rate == "beta"
            else replace(params, p=s * params.p))
        tol = 1e-8
        hill = _unconverged_hill if start == "bounds" else _hill_r0
        with mock.patch.object(reproduction, "_hill_r0", hill):
            base, covariant = r0_periodic(params, tol=tol), r0_periodic(scaled, tol=tol)
        assert abs(covariant.value - s * base.value) <= (1.0 + s) * tol


def _steep_after(root):
    """Flat above 1 up to the root, then falling steeply."""
    return lambda lam: (math.exp(1e-6 * (root - lam)) if lam < root
                        else math.exp(max(50.0 * (root - lam), -700.0)))


def _step_at(root):
    return lambda lam: 2.0 if lam < root else 0.5


def _log_convex_at(root):
    """A positive sum of powers of root/lam, so log rho is convex in log lam."""
    return lambda lam: 0.5 * (root / lam) + 0.5 * (root / lam) ** 3


def _search(rho, root, guess_factor, tol):
    """`_unit_crossing` from root/20, 20 root and the `_pair` at root * guess_factor.

    Returns the bracket and the number of lambdas of each round.
    """
    rounds = []

    def a_round(lams):
        rounds.append(len(lams))
        return [rho(lam) for lam in lams]

    lams = [root / 20.0, 20.0 * root] + _pair(root * guess_factor, tol)
    return _unit_crossing(a_round, [(lam, rho(lam)) for lam in lams], tol), rounds


class TestUnitCrossing:
    @pytest.mark.parametrize("shape", [_steep_after, _step_at], ids=["flat-steep", "step"])
    @pytest.mark.parametrize("root", [0.37, 3.7, 123.4])
    @pytest.mark.parametrize("guess_factor", [1.0, 1.01, 5.0, 1.0 / 7.0])
    @pytest.mark.parametrize("tol", [1e-8, 1e-10])
    def test_pathological_rho_within_max_rounds(self, shape, root, guess_factor, tol):
        # neither shape is log-convex: the thirds carry the search
        rho = shape(root)
        (lo, hi), rounds = _search(rho, root, guess_factor, tol)
        assert rho(lo) >= 1.0 >= rho(hi)
        assert 0.0 <= hi - lo <= tol
        # a round: three chord crossings and two thirds at most
        assert len(rounds) <= reproduction.MAX_ROUNDS and max(rounds, default=0) <= 5

    @pytest.mark.parametrize("root", [0.37, 3.7, 123.4])
    @pytest.mark.parametrize("guess_factor", [1.0, 1.01, 5.0, 1.0 / 7.0])
    @pytest.mark.parametrize("tol", [1e-8, 1e-10])
    def test_log_convex_rho_within_a_quarter_of_the_bisections(self, root, guess_factor, tol):
        rho = _log_convex_at(root)
        (lo, hi), rounds = _search(rho, root, guess_factor, tol)
        _, _, bisections = bisection_root(rho, tol)
        assert rho(lo) >= 1.0 >= rho(hi)
        assert 0.0 <= hi - lo <= tol
        assert len(rounds) + 1 <= bisections / 4  # plus the round that gave the points

    def test_bracket_failure_when_rho_never_crosses(self):
        for radius in (2.0, 0.5):
            rounds = []

            def a_round(lams):
                rounds.append(lams)
                return [radius] * len(lams)

            with pytest.raises(BracketFailure):
                _unit_crossing(a_round, [(1.0, radius), (3.0, radius)], 1e-8)
            assert rounds == []

    def test_bracket_failure_when_the_rounds_run_out(self, monkeypatch):
        # rho = 1/lam straddles 1 on [0.5, 2], 1.5 wide: no round is left to narrow it
        monkeypatch.setattr(reproduction, "MAX_ROUNDS", 0)
        rounds = []

        def a_round(lams):
            rounds.append(lams)
            return [1.0 / lam for lam in lams]

        with pytest.raises(BracketFailure, match="^no bracket within 0 rounds$"):
            _unit_crossing(a_round, [(0.5, 2.0), (2.0, 0.5)], 1e-8)
        assert rounds == []


class TestMonotonicity:
    # K grows pointwise with beta.mean (amplitude fixed) and with mu.mean
    # (through T*), and shrinks with c, delta and c1, so R0 does too, by the
    # monotonicity of the spectral radius of positive operators; each value
    # lies within tol/2 of its root
    @pytest.mark.parametrize("start", ["fourier", "bounds"])
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(rates=RATES, log_r0_factor=st.floats(-1.5, 1.5), amps=AMPS,
           rate=st.sampled_from(["beta", "mu", "c", "delta", "c1"]), growth=st.floats(1.01, 3.0))
    def test_r0_moves_with_each_rate(self, start, rates, log_r0_factor, amps, rate, growth):
        params = admissible_periodic(rates, log_r0_factor, amps)
        if rate in ("beta", "mu"):
            coef = getattr(params, rate)
            grown = replace(params, **{rate: SinusoidalCoefficient(growth * coef.mean,
                                                                   coef.amplitude)})
        else:
            grown = replace(params, **{rate: growth * getattr(params, rate) + 0.01})
        tol = 1e-8
        hill = _unconverged_hill if start == "bounds" else _hill_r0
        with mock.patch.object(reproduction, "_hill_r0", hill):
            base, moved = r0_periodic(params, tol=tol), r0_periodic(grown, tol=tol)
        assert (base.enclosure is None) == (moved.enclosure is None) == (start == "bounds")
        if rate in ("beta", "mu"):
            assert moved.value >= base.value - tol
        else:
            assert moved.value <= base.value + tol


def _bounds_protocol(params, guess, tol):
    """The R0Result of the search from guess's `_pair` when inside K's bounds, and the bounds.

    lambda = 1 alone; then the pair when it lies inside the bounds
    p k f_min / (c (k + d_max)(delta + d_max)) - tol/2 and
    p k f_max / (c (k + d_min)(delta + d_min)) + tol/2, with
    f = beta T*/(1 + c1 T*) on the T* nodes; then the bounds unless the pair
    straddles 1; then `_unit_crossing` from those points.
    """
    lin, cfg = build_linearization(params), IntegratorConfig.spectral()
    trace = [(1.0, rho_for_lambda(lin, 1.0, cfg))]

    def rho(lams):
        radii = [rho_for_lambda(lin, lam, cfg) for lam in lams]
        trace.extend(zip(lams, radii))
        return radii

    t_star = lin.t_star.values
    f = params.rates(lin.t_star.times)[1] * t_star / (1.0 + params.c1 * t_star)
    d_min, d_max = params.d.mean - params.d.amplitude, params.d.mean + params.d.amplitude
    scale = params.p * params.k / params.c
    low = scale * float(f.min()) / ((params.k + d_max) * (params.delta + d_max)) - 0.5 * tol
    high = scale * float(f.max()) / ((params.k + d_min) * (params.delta + d_min)) + 0.5 * tol
    pair, straddles = _pair(guess, tol), False
    if low < pair[0] and pair[1] < high:
        radii = rho(pair)
        straddles = radii[0] >= 1.0 >= radii[1]
    if not straddles:
        rho([low, high])
    lo, hi = _unit_crossing(rho, trace[1:], tol)
    return R0Result(value=0.5 * (lo + hi), method="periodic-monodromy", bracket=(lo, hi),
                    iterations=len(trace), rho_at_one=trace[0][1], trace=tuple(trace))


class TestEnclosure:
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(rates=RATES, log_r0_factor=st.floats(-1.5, 1.5), amps=AMPS)
    def test_encloses_r0_inside_the_certified_bracket(self, rates, log_r0_factor, amps):
        params = admissible_periodic(rates, log_r0_factor, amps)
        res = r0_periodic(params)
        assert res.enclosure is not None and res.iterations == 1
        assert _certified(params, res, 1e-8)

    @pytest.mark.parametrize("name", SHIPPED)
    def test_shipped_configs_take_the_enclosure_route(self, config_dir, name):
        cfg = load_config(str(config_dir / f"{name}.ini"))
        res = r0_periodic(cfg.params, cfg=cfg.integrator)
        assert res.enclosure is not None
        assert res.trace == ((1.0, res.rho_at_one),) and res.iterations == 1
        lo, hi = res.bracket
        assert lo <= res.enclosure[0] <= res.enclosure[1] <= hi

    def test_eigenfunction_is_positive_with_its_sum(self):
        lin = build_linearization(skewed_params())
        value, u = _hill_r0(lin, 4)
        assert u.shape == lin.t_star.values.shape and np.all(u > 0.0)
        low, high = reproduction._collatz_wielandt(lin, u, 4)
        # Hill's value is K's truncation at order 4, the enclosure's K u at order 20
        assert 0.0 <= high - low <= 1e-10 * value
        assert abs(0.5 * (low + high) - value) <= 1e-12 * value

    @pytest.mark.parametrize("fallback", ["u-not-positive", "enclosure-outside", "hill-nan"])
    def test_forced_fallback_is_the_bounds_protocol(self, monkeypatch, fallback):
        params, tol = persistence_params(), 1e-8
        value = _search_seed(build_linearization(params), tol)
        if fallback == "u-not-positive":
            guess = value
            monkeypatch.setattr(reproduction, "_hill_r0", _negated_hill)
        elif fallback == "enclosure-outside":
            guess = value + 3.0 * tol
            monkeypatch.setattr(reproduction, "_hill_r0", _shifted_hill(3.0 * tol))
        else:
            guess = math.nan
            monkeypatch.setattr(reproduction, "_hill_r0", _unconverged_hill)
        res = r0_periodic(params, tol=tol)
        assert res.enclosure is None
        assert res == _bounds_protocol(params, guess, tol)

    def test_unresolved_spectrum_gives_no_enclosure(self, monkeypatch):
        lin = build_linearization(persistence_params())
        _, u = _hill_r0(lin, 4)
        assert reproduction._collatz_wielandt(lin, u, 4) is not None
        monkeypatch.setattr(reproduction, "ENCLOSURE_RESOLUTION", 0.0)
        assert reproduction._collatz_wielandt(lin, u, 4) is None
        assert reproduction._collatz_wielandt(lin, None, 4) is None

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(degree=st.integers(0, 40), rate=st.floats(1e-3, 2.0), period=st.floats(2.4, 2400.0),
           seed=st.integers(0, 2**32 - 1))
    def test_periodic_solve_is_exact_on_a_trig_polynomial(self, degree, rate, period, seed):
        # y' + rate y = h for h = c0 + sum a_m cos m w t + b_m sin m w t has the
        # periodic solution c0/rate + sum of each harmonic divided by i m w + rate
        rng, n, w = np.random.default_rng(seed), 128, 2 * math.pi / period
        c0, a, b = rng.normal(), rng.normal(size=degree), rng.normal(size=degree)
        mw = w * np.arange(1, degree + 1)
        wt = np.outer(2 * math.pi * np.arange(n) / n, np.arange(1, degree + 1))
        h = c0 + np.cos(wt) @ a + np.sin(wt) @ b
        den = rate ** 2 + mw ** 2
        y = (c0 / rate + np.cos(wt) @ ((a * rate - b * mw) / den)
             + np.sin(wt) @ ((a * mw + b * rate) / den))
        got = periodic_solve(h, rate, w)
        assert np.max(np.abs(got - y)) <= 1e-13 * np.max(np.abs(y))

    @pytest.mark.parametrize("m, resolved", [(14, True), (15, False), (20, False)])
    def test_collatz_wielandt_rejects_an_unresolved_top_quarter(self, m, resolved):
        # at order 4 f u is taken at order 20, whose top quarter is harmonics
        # 15-20; a harmonic there above ENCLOSURE_RESOLUTION of the largest
        # gives no bounds
        lin = build_linearization(persistence_params())
        n = len(lin.t_star.values)
        theta = 2 * math.pi * np.arange(n) / n
        fu = 2.0 + np.cos(theta) + 2.0 * reproduction.ENCLOSURE_RESOLUTION * np.sin(m * theta)
        got = reproduction._collatz_wielandt(lin, fu / lin._f, 4)
        assert (got is not None) == resolved

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(rates=RATES, log_r0_factor=st.floats(-1.5, 1.5), amps=AMPS,
           period=st.sampled_from([24.0, 240.0]))
    def test_bounds_match_the_integrating_factor_oracle(self, rates, log_r0_factor, amps,
                                                        period):
        # K u on Hill's own operator, ENCLOSURE_MARGIN orders above u's,
        # against K u through q and the FFT, on the same u and nodes: within
        # 1e-12 relative while u's range is within 10. Rounding in K u is
        # relative to its largest values, so it grows with u's range in the
        # ratio at u's minimum: at 240 h u can span 1e-6, and the two then
        # differ by up to 9.4e-10 (2.8e-15 times u's range on 900 draws)
        params = _with_period(admissible_periodic(rates, log_r0_factor, amps), period)
        lin = build_linearization(params)
        for order in (4, 8, 16, 32, 64):
            _, u = _hill_r0(lin, order)
            bounds = reproduction._collatz_wielandt(lin, u, order)
            if bounds is not None:
                break
        assume(bounds is not None)
        oracle = integrating_factor_bounds(lin, u)
        scale = 1e-13 * max(10.0, u.max() / u.min())
        assert np.max(np.abs(np.subtract(bounds, oracle))) <= scale * oracle[1]


class TestLiouville:
    @pytest.mark.parametrize("name", SHIPPED)
    def test_log_det_of_the_monodromy_at_one(self, config_dir, name):
        # F has a zero diagonal, so tr(F - G) = -(k + delta + c) - 2 d(t) and
        # log det Phi_{F-G}(P) = -(k + delta + c) P - 2 D(P), D(P) = -log e^{-D(P)}
        cfg = load_config(str(config_dir / f"{name}.ini"))
        params, P = cfg.params, cfg.params.period
        lin = build_linearization(params)
        rho, sol = recorded_monodromy(lin, 1.0, cfg.integrator)
        M = sol.final[:9].reshape(3, 3)
        assert abs(floquet_multipliers(M)[0]) == rho
        sign, log_det = np.linalg.slogdet(M)
        expected = (-(params.k + params.delta + params.c) * P
                    + 2.0 * math.log(periodic._period_decay(params)))
        assert sign == 1.0
        assert abs(log_det - expected) <= 100.0 * cfg.integrator.rel_tol


def _certified(params, res, tol):
    """res's bracket is at most tol wide, holds value and any enclosure, and straddles 1.

    The straddle is checked by two independent monodromies, at lo and at hi.
    """
    lo, hi = res.bracket
    lin, cfg = build_linearization(params), IntegratorConfig.spectral()
    inside = res.enclosure is None or lo <= res.enclosure[0] <= res.enclosure[1] <= hi
    return (hi - lo <= tol and lo <= res.value <= hi and inside
            and rho_for_lambda(lin, lo, cfg) >= 1.0 >= rho_for_lambda(lin, hi, cfg))


def _spy_search(monkeypatch):
    """count_calls lists: rho_for_lambda, integrate, `_monodromy_field`, integrate_matrix runs."""
    return [count_calls(monkeypatch, module, name) for module, name in (
        (reproduction, "rho_for_lambda"), (reproduction, "integrate"),
        (reproduction, "_monodromy_field"), (integrate_module, "integrate"))]


def _assert_one_integration_a_lambda(rho_calls, direct_calls, fields, matrix_runs, res):
    """One rho_for_lambda call a lambda, lambda = 1 first, each one 10-wide run.

    The calls' lambdas, each a number, and the runs' are the trace's, in its
    order; none goes through integrate_matrix.
    """
    lams = [lam for lam, _ in res.trace]
    assert [call[1] for call in rho_calls] == lams and lams[0] == 1.0
    assert all(type(call[1]) is float for call in rho_calls)
    assert [np.shape(call[3]) for call in direct_calls] == [(10,)] * res.iterations
    assert [call[1] for call in fields] == lams and matrix_runs == []


def _straddles(res, tol):
    """The bracket of res is at most tol wide and straddles 1 by its own trace."""
    rho = dict(res.trace)
    lo, hi = res.bracket
    return hi - lo <= tol and rho[lo] >= 1.0 >= rho[hi] and lo <= res.value <= hi


def _long_period_params():
    """P = 720 h with d swinging by 90% of its mean: N = 8 harmonics are too few."""
    omega = 2.0 * math.pi / 720.0
    return ModelParameters(
        angular_frequency=omega,
        mu=SinusoidalCoefficient(0.1, 0.05),
        beta=SinusoidalCoefficient(0.0176, 0.0088),
        d=SinusoidalCoefficient(0.03, 0.027),
        k=0.2, delta=0.1, p=0.5, c=0.1, c1=0.1, c2=0.1)


class TestHill:
    def test_matches_bisection_oracle_on_criterion_3_sample(self):
        rng = np.random.default_rng(20240103)
        tol = 1e-6
        for _ in range(8):
            params = random_periodic_params(rng)
            oracle, _, _ = bisection_r0(params, tol=tol)
            lin = build_linearization(params)
            for order in (4, 8, 16):
                hill, _ = _hill_r0(lin, order)
                assert abs(hill - oracle) <= tol + 1e-8 * oracle

    def test_long_period_doubles_the_truncation(self, monkeypatch):
        params = _long_period_params()
        orders = _hill_orders(monkeypatch)
        res = r0_periodic(params, tol=1e-8)
        assert res.iterations == 1 and res.enclosure is not None
        assert _certified(params, res, 1e-8)
        oracle, _, _ = bisection_r0(params, tol=1e-6)
        assert abs(res.value - oracle) <= 1e-6 + 1e-8 * oracle
        # the walk doubles from 4 and certifies at 32; capped at 16 harmonics
        # no order certifies, and the search takes over
        assert orders == [4, 8, 16, 32]
        monkeypatch.setattr(reproduction, "HILL_MAX_ORDER", 16)
        del orders[:]
        capped = r0_periodic(params, tol=1e-8)
        assert orders == [4, 8, 16]
        assert capped.enclosure is None and capped.iterations > 3 and _straddles(capped, 1e-8)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(rates=RATES, log_r0_factor=st.floats(-1.5, 1.5), amps=AMPS,
           period=st.floats(0.24, 24.0))
    def test_phase_grid_matches_the_time_grid_oracle(self, rates, log_r0_factor, amps, period):
        params = replace(admissible_periodic(rates, log_r0_factor, amps),
                         angular_frequency=2.0 * math.pi / period)
        lin = build_linearization(params)
        oracle, u_oracle, order = hill_on_time_grid(lin, 1e-8)
        value, u = _hill_r0(lin, order)
        # w t_j m rounds several times on arguments up to about 100, 2 pi jm/N once
        assert abs(value - oracle) <= 1e-14 * oracle
        shape, shape_oracle = u / u.sum(), u_oracle / u_oracle.sum()
        assert np.max(np.abs(shape - shape_oracle)) <= 1e-14 * np.max(np.abs(shape_oracle))

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(rates=RATES, log_r0_factor=st.floats(-1.5, 1.5), amps=AMPS,
           period=st.floats(240.0, 1800.0))
    def test_long_periods_match_the_oracle_at_one_order(self, rates, log_r0_factor, amps,
                                                        period):
        # both at the order where the oracle settles; where the enclosure
        # cannot certify Hill's value the two differed by up to 2.4e-8 at one
        # order (3.8e-9 relative at 621 h), so only certified examples count;
        # assume makes Hypothesis fail its health check should most stop
        # meeting that
        params = replace(admissible_periodic(rates, log_r0_factor, amps),
                         angular_frequency=2.0 * math.pi / period)
        lin = build_linearization(params)
        oracle, _, order = hill_on_time_grid(lin, 1e-8)
        assume(math.isfinite(oracle))
        value, u = _hill_r0(lin, order)
        enclosure, (lo, hi) = reproduction._collatz_wielandt(lin, u, order), _pair(value, 1e-8)
        assume(enclosure is not None and lo <= enclosure[0] and enclosure[1] <= hi)
        assert abs(value - oracle) <= 1e-9 * oracle

    def test_result_independent_of_what_the_process_built_before(self):
        # the basis is keyed by node count and order alone, so entries another
        # period built serve this one bit for bit
        probe = ("from perivir import r0_periodic\n"
                 "from tests.helpers import persistence_params\n"
                 "print(repr(r0_periodic(persistence_params())))\n")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        fresh = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env,
                               capture_output=True, text=True, timeout=120, check=True)
        reproduction._hill_basis.cache_clear()
        for params in (_long_period_params(),
                       replace(persistence_params(), angular_frequency=2.0 * math.pi / 2.4)):
            r0_periodic(params)
        assert reproduction._hill_basis.cache_info().currsize >= 2
        assert repr(r0_periodic(persistence_params())) == fresh.stdout.strip().splitlines()[-1]

    def test_sweep_builds_the_basis_on_its_first_value_only(self, sim_cfg):
        # T* and Hill read the one cache, so each value reads it as often as the first
        basis = periodic._hill_basis
        basis.cache_clear()
        sweep(persistence_params(), "beta.mean", [0.3], 1200.0, sim_cfg)
        first = basis.cache_info()
        basis.cache_clear()
        sweep(persistence_params(), "beta.mean", [0.3, 0.32, 0.34], 1200.0, sim_cfg)
        info = basis.cache_info()
        assert first.misses >= 1 and info.misses == first.misses
        assert info.hits == first.hits + 2 * (first.hits + first.misses)

    def test_process_caches_are_read_only(self):
        enclosure = periodic._hill_basis(periodic.TSTAR_SAMPLES, 4 + reproduction.ENCLOSURE_MARGIN)
        t_star = periodic._hill_basis(periodic.TSTAR_SAMPLES, 8)
        assert len(enclosure) == len(t_star) == 4
        for table in (*enclosure, *t_star):
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table *= 2.0

    @pytest.mark.parametrize("order", [4, 8, 20, 64, 128])
    def test_band_tables_are_the_closed_form_bands(self, order):
        # index 0 is 1, m is cos m theta and order + m sin m theta; d/dtheta
        # maps sin m to m cos m and cos m to -m sin m, and sin theta times
        # cos m is (sin (m+1) - sin (m-1))/2, times sin m (cos (m-1) - cos (m+1))/2;
        # sine is a 512-term quadrature of those, a few ulps off (7.8e-16 measured)
        _, _, deriv, sine = periodic._hill_basis(periodic.TSTAR_SAMPLES, order)
        band, expected, ms = np.zeros_like(deriv), np.zeros_like(sine), np.arange(1, order + 1)
        band[ms, order + ms], band[order + ms, ms] = ms, -ms
        assert np.array_equal(deriv, band)
        expected[order + 1, 0] = 1.0
        for m in range(1, order + 1):
            expected[m - 1, order + m] = 0.5
            if m > 1:
                expected[order + m - 1, m] = -0.5
            if m < order:
                expected[order + m + 1, m], expected[m + 1, order + m] = 0.5, -0.5
        assert np.max(np.abs(sine - expected)) <= 1e-15

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(rates=RATES, log_r0_factor=st.floats(-1.5, 1.5), amps=AMPS,
           period=st.sampled_from([24.0, 240.0]), order=st.sampled_from([4, 20]),
           seed=st.integers(0, 2**32 - 1))
    def test_apply_k_matches_the_exponential_basis(self, rates, log_r0_factor, amps, period,
                                                   order, seed):
        # g = a_0 + sum a_m cos + b_m sin has c_{+-m} = (a_m -+ i b_m)/2 on
        # e^{i m w t}; there S_E, S_I and S_V are tridiagonal, exact
        params = _with_period(admissible_periodic(rates, log_r0_factor, amps), period)
        g = np.random.default_rng(seed).standard_normal(2 * order + 1)
        basis = periodic._hill_basis(periodic.TSTAR_SAMPLES, order)
        got = reproduction._apply_k(build_linearization(params), g, basis)
        a, b = g[1:order + 1], g[order + 1:]
        c = np.r_[(a + 1j * b)[::-1] / 2.0, g[0], (a - 1j * b) / 2.0]
        p, d, w = params, params.d, params.angular_frequency
        for mean, amplitude in ((p.k + d.mean, d.amplitude), (p.delta + d.mean, d.amplitude),
                                (p.c, 0.0)):
            c = np.linalg.solve(exponential_operator(w, mean, amplitude, order), c)
        c *= p.p * p.k
        expected = np.r_[c[order].real, 2.0 * c[order + 1:].real, -2.0 * c[order + 1:].imag]
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_dense_systems_of_a_24_h_r0_are_at_most_41_wide(self, monkeypatch, config_dir):
        # every solve and eigen-solve of r0 on a shipped config: the 3x3
        # monodromy, Hill at order 4 (9), T* at order 8 (17) and the enclosure
        # at order 4 + ENCLOSURE_MARGIN (41); a dense solve from n = 100 on
        # can cost 100 ms on a multithreaded BLAS (ROADMAP)
        widths, solve, eigvals = set(), np.linalg.solve, np.linalg.eigvals

        def spied(original):
            def call(a, *args):
                widths.add(np.shape(a)[-1])
                return original(a, *args)
            return call

        monkeypatch.setattr(np.linalg, "solve", spied(solve))
        monkeypatch.setattr(np.linalg, "eigvals", spied(eigvals))
        for name in SHIPPED:
            loaded = load_config(str(config_dir / f"{name}.ini"))
            r0_periodic(loaded.params, cfg=loaded.integrator)
        assert sorted(widths) == [3, 9, 17, 41]

    @pytest.mark.parametrize("name, parent", [
        ("baseline", 39.469662417860675),
        ("extinction", 0.39469662440386477),
        ("persistence", 64.68095939666455),
    ])
    def test_shipped_configs_within_tol_of_the_search(self, config_dir, capsys, name, parent):
        # parent: the value the root search alone gave before the Fourier route
        assert main(["r0", "--config", str(config_dir / f"{name}.ini")]) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert abs(payload["r0"] - parent) <= 1e-8


class _Searched(Exception):
    """A search round reached `_radius_at_one_only`."""


def _radius_at_one_only(lin, lam, cfg):
    """A `rho_for_lambda` for the certified route: nan at lambda = 1, _Searched at any other."""
    if lam != 1.0:
        raise _Searched
    return math.nan


def _named_set(config_dir, name):
    """(params, cfg): a shipped config's, or a helpers factory's at the spectral profile."""
    if name in SHIPPED:
        loaded = load_config(str(config_dir / f"{name}.ini"))
        return loaded.params, loaded.integrator
    factory = {"persistence_params": persistence_params, "flat-mu-wide-d": flat_mu_wide_d_params}
    return factory[name](), IntegratorConfig.spectral()


class TestCertifiedWalk:
    @pytest.mark.parametrize("name", SHIPPED + ("persistence_params",))
    def test_a_24_h_set_certifies_at_order_4(self, monkeypatch, config_dir, name):
        params, cfg = _named_set(config_dir, name)
        orders = _hill_orders(monkeypatch)
        res = r0_periodic(params, cfg=cfg)
        assert orders == [4]
        assert res.enclosure is not None and res.trace == ((1.0, res.rho_at_one),)

    @settings(max_examples=45, deadline=None, derandomize=True)
    @given(rates=RATES, log_r0_factor=st.floats(-1.5, 1.5), amps=AMPS,
           period=st.sampled_from([24.0, 240.0, 1200.0]))
    def test_certified_r0_matches_the_converged_time_grid_oracle(self, rates, log_r0_factor,
                                                                 amps, period):
        # a certified value reads no radius, so the lambda = 1 monodromy is
        # stubbed (at 1200 h it can overflow, ROADMAP item 5); a set left to
        # the search is no certified example and is skipped
        params = _with_period(admissible_periodic(rates, log_r0_factor, amps), period)
        tol = reproduction.R0_TOL
        with mock.patch.object(reproduction, "rho_for_lambda", _radius_at_one_only):
            try:
                res = r0_periodic(params, tol=tol)
            except _Searched:
                assume(False)
        oracle, _, _ = hill_on_time_grid(build_linearization(params), tol)
        assert res.enclosure is not None and math.isfinite(oracle)
        bound = tol if period == 1200.0 else 1e-13 * oracle
        assert abs(res.value - oracle) <= bound

    def test_a_walk_past_the_first_agreeing_order_certifies(self, monkeypatch):
        # flat mu and d's amplitude 0.9 of its mean at 720 h: orders 8 and 16
        # agree within tol/4, but only order 32's enclosure certifies, where
        # stopping at the first agreement took the search; the certified R0
        # lies in the bracket of that search, whose first lambdas after
        # lambda = 1 are order 16's pair
        params = _with_period(flat_mu_wide_d_params(), 720.0)
        orders = _hill_orders(monkeypatch)
        res = r0_periodic(params)
        assert orders == [4, 8, 16, 32] and res.enclosure is not None and res.iterations == 1
        monkeypatch.setattr(reproduction, "_collatz_wielandt", lambda lin, u, order: None)
        searched = r0_periodic(params)
        pair = _pair(_search_seed(build_linearization(params), 1e-8), 1e-8)
        assert [lam for lam, _ in searched.trace[1:3]] == pair
        assert searched.bracket[0] <= res.value <= searched.bracket[1]

    @pytest.mark.parametrize("draw", [69, 89])
    def test_long_period_draws_certify_at_order_32(self, monkeypatch, draw):
        # draws 69 and 89 of seed 4545, each followed by P = 24 50^U h (727.7
        # and 1114.7 h, R0 near 30): their lambda = 1 monodromy overflows
        # (ROADMAP item 15), so it is stubbed; orders 4-16 have a complex top
        # eigenvalue
        rng = np.random.default_rng(4545)
        for _ in range(draw + 1):
            params, period = random_periodic_params(rng), 24.0 * 50.0 ** rng.uniform()
        params, tol = _with_period(params, period), 1e-8
        orders = _hill_orders(monkeypatch)
        with mock.patch.object(reproduction, "rho_for_lambda", _radius_at_one_only):
            res = r0_periodic(params, tol=tol)
        assert orders == [4, 8, 16, 32] and res.enclosure is not None
        assert abs(res.value - _hill_r0(build_linearization(params), 64)[0]) <= tol

    def test_a_singular_inverse_iteration_skips_its_order(self, monkeypatch):
        # the solve from the constant function raises at order 4 alone (the
        # one 1-D right-hand side of size 9): that order gives no
        # eigenfunction, and the walk certifies at order 8
        params, solve = persistence_params(), np.linalg.solve

        def singular_at_order_4(a, b):
            if np.shape(b) == (9,):
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        lin = build_linearization(params)
        expected = _pair(_hill_r0(lin, 8)[0], 1e-8)
        monkeypatch.setattr(np.linalg, "solve", singular_at_order_4)
        value, u = _hill_r0(lin, 4)
        assert value > 0.0 and u is None
        orders = _hill_orders(monkeypatch)
        res = r0_periodic(params)
        assert orders == [4, 8] and res.enclosure is not None and res.iterations == 1
        assert list(res.bracket) == expected


class TestMpReferences:
    @pytest.mark.parametrize("name", sorted(MP_R0))
    def test_certified_r0_within_1e_14_of_the_30_digit_value(self, config_dir, name):
        # rounding moves Hill's value at order 4 by 1.6e-15 relative at most here
        params, cfg = _named_set(config_dir, name)
        res = r0_periodic(params, cfg=cfg)
        reference = float(MP_R0[name])
        assert res.enclosure is not None
        assert abs(res.value - reference) <= 1e-14 * reference


class TestFallback:
    def test_unconverged_fourier_value_falls_back_to_the_search(self, monkeypatch):
        monkeypatch.setattr(reproduction, "_hill_r0", _unconverged_hill)
        res = r0_periodic(persistence_params())
        assert res.trace[0] == (1.0, res.rho_at_one)
        assert res.iterations > 3 and _straddles(res, 1e-8)

    def test_failed_certification_searches_on_from_its_points(self, monkeypatch):
        params = persistence_params()
        tol = 1e-8
        certified = r0_periodic(params, tol=tol)
        value = _search_seed(build_linearization(params), tol)
        monkeypatch.setattr(reproduction, "_hill_r0", _shifted_hill(3.0 * tol))
        calls = _spy_search(monkeypatch)
        res = r0_periodic(params, tol=tol)
        assert res.trace[0] == (1.0, res.rho_at_one)
        # the shifted pair, inside K's bounds, lies above R0, so the bounds follow it
        _assert_one_integration_a_lambda(*calls, res)
        assert [lam for lam, _ in res.trace[1:3]] == _pair(value + 3.0 * tol, tol)
        assert [lam for lam, _ in res.trace[3:5]] == list(
            reproduction._operator_bounds(build_linearization(params), tol))
        assert _straddles(res, tol)
        assert abs(res.value - certified.value) <= tol + 1e-8 * certified.value

    @pytest.mark.parametrize("params", [persistence_params(), baseline_params()],
                             ids=["persistence", "baseline"])
    def test_a_straddling_pair_is_the_bracket_without_k_bounds(self, monkeypatch, params):
        # with no enclosure Hill's pair, inside K's bounds, is evaluated first;
        # it straddles 1, so it is the bracket and no radius is taken at the bounds
        tol = 1e-8
        pair = _pair(_search_seed(build_linearization(params), tol), tol)
        monkeypatch.setattr(reproduction, "_collatz_wielandt", lambda lin, u, order: None)
        bounds = count_calls(monkeypatch, reproduction, "_operator_bounds")
        rho_calls = count_calls(monkeypatch, reproduction, "rho_for_lambda")
        res = r0_periodic(params, tol=tol)
        assert res.iterations == 3 and [lam for lam, _ in res.trace[1:]] == pair
        assert list(res.bracket) == pair and _straddles(res, tol)
        assert len(bounds) == 1 and [call[1] for call in rho_calls] == [1.0, *pair]

    @pytest.mark.parametrize("params", [persistence_params(), baseline_params()],
                             ids=["persistence", "baseline"])
    def test_hidden_float_form_gives_the_same_search(self, monkeypatch, params):
        # perfbench's tracer hands integrate a wrapper without f.floats: each
        # lambda's run then calls the monodromy field on arrays, and the
        # search returns the same R0Result, trace and bracket included
        monkeypatch.setattr(reproduction, "_hill_r0", _unconverged_hill)
        res = r0_periodic(params)
        starts = hide_float_forms(monkeypatch, reproduction)
        assert r0_periodic(params) == res
        assert len(starts) == res.iterations > 3

    def test_tolerance_below_the_fourier_accuracy(self, monkeypatch):
        # the enclosure is about 1e-15 wide here and still certifies Hill's value
        res = r0_periodic(persistence_params(), tol=1e-12)
        lo, hi = res.bracket
        assert hi - lo <= 1e-12 and lo <= res.enclosure[0] <= res.enclosure[1] <= hi
        # without it the monodromy at rel_tol 1e-9, whose radius errs by 8.8e-12
        # there, cannot certify the first pair, and the search goes on from it
        monkeypatch.setattr(reproduction, "_collatz_wielandt", lambda lin, u, order: None)
        searched = r0_periodic(persistence_params(), tol=1e-12)
        assert searched.trace[0] == (1.0, searched.rho_at_one)
        assert searched.iterations > 3 and _straddles(searched, 1e-12)

    def test_unconverged_sets_take_half_the_evaluations(self, monkeypatch):
        # the first 10 sets of the criterion-3 sample with Hill forced to nan; a
        # search from the mean-rate R0 by a ladder of lambdas and 6 evenly spaced
        # interior lambdas a round takes 319 evaluations beyond lambda = 1 on them
        monkeypatch.setattr(reproduction, "_hill_r0", _unconverged_hill)
        rng = np.random.default_rng(20240103)
        results = [r0_periodic(random_periodic_params(rng)) for _ in range(10)]
        assert all(_straddles(res, 1e-8) for res in results)
        assert sum(res.iterations - 1 for res in results) <= 319 // 2

    def test_r0_below_tol_still_brackets(self, monkeypatch):
        # R0 = 6.5e-10, so the lower bound less tol/2 is negative: the start keeps half of it
        params, tol = persistence_params(), 1e-8
        scaled = replace(params, beta=SinusoidalCoefficient(1e-11 * params.beta.mean,
                                                            1e-11 * params.beta.amplitude))
        reference = 1e-11 * r0_periodic(params, tol=tol).value
        monkeypatch.setattr(reproduction, "_hill_r0", _unconverged_hill)
        res = r0_periodic(scaled, tol=tol)
        assert res.bracket[0] > 0.0 and _straddles(res, tol)
        assert abs(res.value - reference) <= tol
        assert all(type(lam) is float for lam in res.bracket)
        assert "np.float64" not in repr(res)

    @pytest.mark.parametrize("period", [1200.0, 1800.0])
    def test_long_period_bracket_holds_a_refined_t_stars_r0(self, monkeypatch, period):
        # ROADMAP item 14: every radius carries T, so no search round reads
        # the T* interpolant. The search's bracket and the enclosure that
        # certifies r0_periodic's own value both hold the operator's R0, so
        # they meet. A certified pair's midpoint is no such reference: at
        # 1800 h the refined T*'s fell outside the bracket on one BLAS thread
        # and inside it on the default threads. Stacks on the interpolant of
        # Simpson's 512-node T* gave [62.1567646872526, 62.156764691449766]
        # at 1200 h and [62.15562747962978, 62.15562748382665] at 1800 h,
        # both above the enclosure
        params = _wide_beta_params(period)
        low, high = r0_periodic(params).enclosure
        monkeypatch.setattr(reproduction, "_hill_r0", _unconverged_hill)
        res = r0_periodic(params)
        assert res.enclosure is None and _straddles(res, 1e-8)
        assert res.bracket[0] <= high and low <= res.bracket[1]

    @pytest.mark.parametrize("name, certified", [
        ("draw-23-of-seed-720", True), ("wide-beta-1200", True), ("wide-beta-1800", True),
        ("baseline-1800", True), ("long-period", True), ("baseline-1200", True),
    ])
    def test_long_period_r0_within_tol_of_a_refined_t_stars(self, name, certified):
        # ROADMAP item 14: on Simpson's 512-node T* the enclosure alone
        # certified R0s off a 4096-node Simpson R0 by 2.0e-8 for baseline at
        # 1800 h, 6.2e-9 for wide beta at 1200 h and 3.9e-8 for draw 23 (d's
        # amplitude 0.82 of its mean), so those took the search. On the
        # Galerkin T* they are certified again, and every bracket holds the
        # R0 of the oracle T* at twice the order
        if name == "draw-23-of-seed-720":
            rng = np.random.default_rng(720)
            params = _with_period([random_periodic_params(rng) for _ in range(23)][-1], 720.0)
        elif name == "long-period":
            params = _long_period_params()
        elif name.startswith("baseline"):
            params = _with_period(baseline_params(), float(name.rsplit("-", 1)[1]))
        else:
            params = _wide_beta_params(float(name.rsplit("-", 1)[1]))
        fine = refined_r0(params).value
        res = r0_periodic(params)
        assert abs(res.value - fine) <= 1e-8
        assert (res.enclosure is not None) == certified
        assert res.bracket[0] <= fine <= res.bracket[1]

    @pytest.mark.parametrize("beta_scale", [0.0253, 0.0254])
    def test_bracket_width_near_threshold(self, beta_scale):
        # at R0 near 1, R0 - tol/2 + tol and R0 + tol/2 - (R0 - tol/2) can round above tol
        params = baseline_params(beta_scale=beta_scale)
        res = r0_periodic(params, tol=1e-6)
        assert abs(res.value - 1.0) < 3e-3
        assert _certified(params, res, 1e-6)


def _with_period(params, period):
    """params with its forcing period set to period hours."""
    return replace(params, angular_frequency=2.0 * math.pi / period)


def _wide_beta_params(period):
    """The persistence set with beta's amplitude at 0.15 and a period of period hours."""
    return _with_period(replace(persistence_params(), beta=SinusoidalCoefficient(0.3, 0.15)),
                        period)


class TestConvexity:
    def test_log_rho_is_convex_in_log_lambda(self, spectral_cfg):
        # the search's chord bounds rest on it (Kingman 1961): 21 lambdas evenly
        # spaced in log lambda over R0 e^-1 .. R0 e^1, one call each
        rng = np.random.default_rng(20240103)
        for _ in range(10):
            params = random_periodic_params(rng)
            lin = build_linearization(params)
            lams = r0_periodic(params).value * np.exp(np.linspace(-1.0, 1.0, 21))
            log_rho = np.log([rho_for_lambda(lin, lam, spectral_cfg) for lam in lams])
            assert np.all(np.diff(log_rho, 2) > 0.0)


class TestFastForcingLimit:
    # as P -> 0, T* -> mu0/d0 and K averages, so R0 tends to the mean-rate R0 at O(P^2)
    @pytest.mark.parametrize("factory, constant", [(persistence_params, 1.5748e-4),
                                                   (baseline_params, 1.6317e-4)])
    def test_r0_tends_to_the_mean_rate_r0(self, factory, constant):
        params, tol = factory(), 1e-10
        mean = r0_autonomous(params.mu.mean, params.beta.mean, params.d.mean, params.k,
                             params.delta, params.p, params.c, params.c1)

        def gap(period):
            res = r0_periodic(_with_period(params, period), tol=tol)
            assert res.enclosure is not None
            return res.value - mean

        fitted = gap(0.24) / 0.24 ** 2
        assert fitted == pytest.approx(constant, rel=1e-3)
        assert gap(0.024) / 0.024 ** 2 == pytest.approx(fitted, rel=0.01)
        assert abs(gap(0.0024) - fitted * 0.0024 ** 2) <= 0.5 * tol


class TestSlowForcingLimit:
    # as P -> inf the infection subsystem follows its frozen-time growth rate, so R0
    # tends to lambda_ad, the root of mean_t s(F(t)/lam - G(t)) with T* = mu/d, at O(1/P^2).
    # Periods from 2190 h on wait for radii in log form.
    @pytest.mark.parametrize("factory, lam_ad", [(lambda: _wide_beta_params(24.0), 62.1547173037),
                                                 (baseline_params, 38.9981693647)],
                             ids=["wide-beta", "baseline"])
    def test_r0_tends_to_the_adiabatic_root(self, factory, lam_ad):
        params = factory()
        lam = adiabatic_r0(params)
        assert lam == pytest.approx(lam_ad, rel=1e-10)
        scaled = [(r0_periodic(_with_period(params, period)).value - lam) * period ** 2
                  for period in (720.0, 1200.0, 1800.0)]
        assert scaled[1:] == pytest.approx([scaled[0]] * 2, rel=0.01)


class TestRhoAtOne:
    @pytest.mark.parametrize("route", ["no-infection-term", "enclosure", "u-not-positive",
                                       "enclosure-outside", "hill-nan"])
    def test_lambda_one_first_and_once_on_every_route(self, monkeypatch, route):
        params = zero_beta_params() if route == "no-infection-term" else persistence_params()
        if route == "u-not-positive":
            monkeypatch.setattr(reproduction, "_hill_r0", _negated_hill)
        elif route == "enclosure-outside":
            monkeypatch.setattr(reproduction, "_hill_r0", _shifted_hill(3e-8))
        elif route == "hill-nan":
            monkeypatch.setattr(reproduction, "_hill_r0", _unconverged_hill)
        rho_calls = count_calls(monkeypatch, reproduction, "rho_for_lambda")
        res = r0_periodic(params)
        lams = [call[1] for call in rho_calls]
        assert lams == [lam for lam, _ in res.trace] and lams[0] == 1.0
        assert all(type(lam) is float for lam in lams) and 1.0 not in lams[1:]
        assert (len(lams) == 1) == (route in ("no-infection-term", "enclosure"))
        lin, cfg = build_linearization(params), IntegratorConfig.spectral()
        assert res.trace[0] == (1.0, res.rho_at_one)
        assert res.rho_at_one == rho_for_lambda(lin, 1.0, cfg)

    @pytest.mark.parametrize("name", SHIPPED)
    def test_matches_the_interpolated_t_star_route(self, config_dir, name):
        # an independent route: a stack of one steps on arrays with T* from
        # its nodes by cubic interpolation; at rel_tol 1e-12 it is the
        # oracle for rho_at_one at r0_periodic's default tolerance, which was
        # within 1.1e-9, 5.9e-12 and 1.3e-9 of it (at extinction.ini's own
        # rel_tol 1e-6, 4.2e-9)
        cfg = load_config(str(config_dir / f"{name}.ini"))
        lin = build_linearization(cfg.params)
        oracle = interpolated_t_star_radii(lin, [1.0], IntegratorConfig(rel_tol=1e-12))[0]
        assert abs(r0_periodic(cfg.params).rho_at_one - oracle) <= 2e-9 * oracle
        # the carried T closes on T*(0) over the period, at the config's tolerance
        t_end = recorded_monodromy(lin, 1.0, cfg.integrator)[1].final[9]
        t0 = lin.t_star.t_star_initial
        assert abs(t_end - t0) <= 1e-12 * t0

    @pytest.mark.parametrize("period", [720.0, 1200.0, 1800.0])
    def test_long_periods_near_a_refined_t_star(self, period):
        # ROADMAP item 14: the carried T errs as the integrator does. Against a
        # stack at rel_tol 1e-12 on the oracle T* at twice the order, the
        # carried-T radius is off by 4.4e-8, 7.3e-8 and 1.1e-7 (at rel_tol
        # 1e-12, by 2e-12 to 7e-12); against a 4096-node Simpson T* it read
        # 4.4e-8, 7.5e-8 and 1.2e-7, a stack on Simpson's 512 nodes 4.3e-8,
        # 9.0e-8 and 2.65e-7
        params = _wide_beta_params(period)
        fine = refined_linearization(params)
        reference = interpolated_t_star_radii(fine, [1.0], IntegratorConfig(rel_tol=1e-12))[0]
        carried = rho_for_lambda(build_linearization(params), 1.0, IntegratorConfig.spectral())
        assert abs(carried - reference) <= 2e-7 * reference

    @pytest.mark.parametrize("period", [24.0, 720.0, 2190.0])
    def test_zero_beta_matches_the_closed_form(self, period):
        # F = 0, so Phi_{-G}(P) is lower triangular with D(P) = d0 P on its diagonal
        params = _with_period(zero_beta_params(), period)
        res = r0_periodic(params)
        d0, rel_tol = params.d.mean, IntegratorConfig.spectral().rel_tol
        exact = max(math.exp(-(params.k + d0) * period), math.exp(-(params.delta + d0) * period),
                    math.exp(-params.c * period))
        assert abs(res.rho_at_one - exact) <= 100.0 * rel_tol * exact

    @pytest.mark.parametrize("period", [720.0, 2190.0])
    @pytest.mark.parametrize("route", ["enclosure", "fallback"])
    def test_decaying_monodromy_on_both_routes(self, monkeypatch, config_dir, route, period):
        # ROADMAP item 13: rho_at_one is 7e-13 at 720 h and 1e-37 at 2190 h, far
        # below the config's abs_tol 1e-9
        cfg = load_config(str(config_dir / "extinction.ini"))
        params = _with_period(cfg.params, period)
        if route == "fallback":
            monkeypatch.setattr(reproduction, "_hill_r0", _unconverged_hill)
        res = r0_periodic(params, cfg=cfg.integrator)
        reference = rho_for_lambda(build_linearization(params), 1.0,
                                   IntegratorConfig(rel_tol=1e-12, abs_tol=1e-300))
        assert (res.enclosure is None) == (route == "fallback") and res.rho_at_one < 1e-12
        assert abs(res.rho_at_one - reference) <= 100.0 * cfg.integrator.rel_tol * reference

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(rates=RATES, log_r0_factor=st.floats(-1.5, 1.5), amps=AMPS,
           lam=st.floats(0.1, 10.0), abs_tols=st.lists(st.floats(1e-300, 1e-3),
                                                       min_size=2, max_size=2))
    def test_abs_tol_does_not_apply(self, rates, log_r0_factor, amps, lam, abs_tols):
        lin = build_linearization(admissible_periodic(rates, log_r0_factor, amps))
        first, second = (IntegratorConfig(rel_tol=1e-8, abs_tol=a) for a in abs_tols)
        for x in (lam, 2.0 * lam):
            assert rho_for_lambda(lin, x, first) == rho_for_lambda(lin, x, second)

    def test_long_periods_end(self, config_dir):
        # P = 30,000 h: the lambda = 1 monodromy decays below 1e-300 under relative
        # error control, in 4,225 steps on extinction's rates and 17,922 with beta = 0
        zero = _with_period(zero_beta_params(), 30_000.0)
        res = r0_periodic(zero, cfg=replace(IntegratorConfig.spectral(), max_steps=50_000))
        assert res.method == "no-infection-term" and 0.0 <= res.rho_at_one < 1e-300
        # the search that follows there overflows at K's bounds (ROADMAP
        # item 5), so this takes the monodromy that r0_periodic integrates first
        cfg = load_config(str(config_dir / "extinction.ini"))
        lin = build_linearization(_with_period(cfg.params, 30_000.0))
        rho = rho_for_lambda(lin, 1.0, replace(cfg.integrator, max_steps=50_000))
        assert 0.0 < rho < 1e-300
