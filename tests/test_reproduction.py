import importlib
import json
import math
import sys
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    virus_free_closed_form,
)
from perivir import periodic, reproduction
from perivir.cli import load_config, main
from perivir.reproduction import _hill_r0, _pair, _unit_crossing

from .helpers import (
    AMPS,
    RATES,
    admissible_periodic,
    beta_at_threshold,
    bisection_r0,
    bisection_root,
    closed_form_r0,
    count_calls,
    expm_reference,
    baseline_params,
    persistence_params,
    power_iteration_radius,
    random_autonomous_params,
    random_periodic_params,
    skewed_params,
    zero_beta_params,
)
from .test_periodic import constant_coefficient_params

# the package attribute perivir.integrate is the function
integrate_module = importlib.import_module("perivir.integrate")

SHIPPED = ("baseline", "extinction", "persistence")


def _unconverged_hill(lin, tol):
    """A `_hill_r0` that never converges: the search starts from the mean-rate R0."""
    return math.nan, None


def _shifted_hill(shift):
    """`_hill_r0` with its value moved by shift and its eigenfunction kept."""
    hill = reproduction._hill_r0

    def shifted(lin, tol):
        value, u = hill(lin, tol)
        return value + shift, u

    return shifted


def _negated_hill(lin, tol):
    """`_hill_r0` with its eigenfunction negated: the enclosure cannot be taken."""
    value, u = _hill_r0(lin, tol)
    return value, -u


def _infection_entry(lin, t: float) -> float:
    """F's one nonzero entry, (E, V), as combined(1.0) gives it: beta(t) T*(t) / (1 + c1 T*(t))."""
    return lin.combined(1.0)(t)[0, 2]


class TestLinearization:
    def test_constant_coefficient_infection_entry(self, spectral_cfg):
        # T* = mu/d = 10, so F(1,3) = 0.3 * 10 / (1 + 0.1*10) = 1.5
        lin = build_linearization(constant_coefficient_params())
        for t in (0.0, 5.0, 17.3):
            assert _infection_entry(lin, t) == pytest.approx(1.5, rel=1e-10)
            # F/1 - F/2 = F/2 has the single nonzero entry at (E, V)
            half_f = lin.combined(1.0)(t) - lin.combined(2.0)(t)
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
            assert np.array_equal(lin.combined(1.0)(t), f_minus_g)

    def test_transfer_matrix_layout(self):
        # G is -combined(lam) everywhere but at (E, V), where F sits
        params = skewed_params()
        lin = build_linearization(params)
        for t in (0.0, 7.7):
            G = -lin.combined(3.0)(t)
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
        # A.floats(9)(t, m) has the bits of sum_j A(t)[i, j] * M[j, k] taken left to
        # right over all three j; M's entries are nonzero, so the products with
        # A's zeros add nothing
        rng = np.random.default_rng(seed)
        matrix = rng.uniform(-1.0, 1.0, size=(3, 3)) * 10.0 ** rng.uniform(-3.0, 3.0,
                                                                            size=(3, 3))
        A = build_linearization(admissible_periodic(rates, log_r0_factor, amps)).combined(
            10.0 ** log_lam)
        got = A.floats(9)(t, matrix.ravel().tolist())
        # Python floats, not np.float64, whose arithmetic takes about twice as long
        assert all(type(v) is float for v in got)
        a, m = A(t).tolist(), matrix.tolist()
        expected = []
        for i in range(3):
            for k in range(3):
                acc = a[i][0] * m[0][k]
                for j in (1, 2):
                    acc = acc + a[i][j] * m[j][k]
                expected.append(acc)
        assert np.array(got).tobytes() == np.array(expected).tobytes()

    def test_float_form_rejects_a_member_count_other_than_the_lambdas(self, spectral_cfg):
        # a stack of lambdas has no float form; three lambdas with a single 3x3
        # start are an error, not the product for the first lambda alone
        A = build_linearization(persistence_params()).combined(np.array([1.0, 2.0, 3.0]))
        assert not hasattr(A, "floats")
        with pytest.raises(ValueError):
            integrate_matrix(A, 0.0, 24.0, np.eye(3), spectral_cfg)

    @pytest.mark.parametrize("members", [1, 2, 3, 4])
    @pytest.mark.parametrize("one_lambda", [False, True])
    def test_stack_per_member_count_steps_each_member(self, monkeypatch, spectral_cfg,
                                                      members, one_lambda):
        # only a number lam has a float form, `_combined_field` bound, and only
        # a single matrix steps on it; a stack of lambdas, or a stack of starts
        # under one lambda, steps on arrays, and each member ends at the
        # monodromy its own lambda gives alone
        params = persistence_params()
        lin = build_linearization(params)
        lams = np.geomspace(0.5, 2.0, members) if members > 1 else np.array([0.8])
        A = lin.combined(lams[0] if one_lambda else lams)
        assert hasattr(A, "floats") == one_lambda
        if one_lambda:
            assert A.floats(9).func is reproduction._combined_field
        floats = count_calls(monkeypatch, integrate_module, "_step_kernel")
        arrays = count_calls(monkeypatch, integrate_module, "_array_step")
        eye = np.broadcast_to(np.eye(3), (members, 3, 3))
        ends = integrate_matrix(A, 0.0, params.period, eye, spectral_cfg).end_matrix
        assert ends.shape == (members, 3, 3)
        if one_lambda and members == 1:
            assert floats == [(9, 9)] and arrays == []
        else:
            assert floats == [] and len(arrays) > 0
        for end, lam in zip(ends, lams[:1].repeat(members) if one_lambda else lams):
            alone = integrate_matrix(lin.combined(float(lam)), 0.0, params.period, np.eye(3),
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
        M = integrate_matrix(lin.combined(1.0), 0.0, params.period, np.eye(3),
                             spectral_cfg).end_matrix
        r0 = r0_periodic(params)
        assert (abs(floquet_multipliers(M)[..., 0]) > 1.0) == (r0.value > 1.0)

    # a number lam steps on floats, every stack of lambdas on arrays
    @pytest.mark.parametrize("members", [None, 1, 3, 6])
    def test_trajectory_is_empty_and_the_end_unchanged(self, monkeypatch, spectral_cfg,
                                                         members):
        # integrate_matrix samples nothing, and loses no bit by it: the end,
        # the tallies and next_step are those of a run that records every step
        params = persistence_params()
        lams = 1.0 if members is None else np.geomspace(0.5, 2.0, members)
        eye = np.broadcast_to(np.eye(3), np.shape(lams) + (3, 3))
        A = build_linearization(params).combined(lams)
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

    def test_stacked_lambdas_match_scalar_calls(self, spectral_cfg):
        lin = build_linearization(persistence_params())
        lams = np.geomspace(0.5, 500.0, 5)
        stacked = rho_for_lambda(lin, lams, spectral_cfg)
        assert stacked.shape == (5,)
        scalar = [rho_for_lambda(lin, lam, spectral_cfg) for lam in lams]
        assert all(isinstance(r, float) for r in scalar)
        np.testing.assert_allclose(stacked, scalar, rtol=1e-7, atol=0.0)

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
            M = integrate_matrix(lin.combined(lam), s * P, s * P + P, np.eye(3), cfg).end_matrix
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

    def test_certified_path_is_one_batched_integration(self, monkeypatch):
        # the enclosure certifies the bracket, so the one integration is lambda = 1's
        rho_calls = count_calls(monkeypatch, reproduction, "rho_for_lambda")
        matrix_calls = count_calls(monkeypatch, reproduction, "integrate_matrix")
        res = r0_periodic(persistence_params())
        assert len(rho_calls) == len(matrix_calls) == 1
        assert res.iterations == 1 and res.trace == ((1.0, res.rho_at_one),)
        assert rho_calls[0][1] == 1.0
        assert np.shape(matrix_calls[0][3]) == (3, 3)

    def test_each_round_is_one_stacked_integration(self, monkeypatch):
        # with the Fourier value unconverged the search starts from the mean-rate R0
        monkeypatch.setattr(reproduction, "_hill_r0", _unconverged_hill)
        rho_calls = count_calls(monkeypatch, reproduction, "rho_for_lambda")
        matrix_calls = count_calls(monkeypatch, reproduction, "integrate_matrix")
        res = r0_periodic(persistence_params())
        _assert_one_integration_a_round(rho_calls, matrix_calls, res)

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

    @pytest.mark.parametrize("start", ["fourier", "mean-rate"])
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(rates=RATES, log_r0_factor=st.floats(-1.5, 1.5), amps=AMPS)
    # R0 = 1: a stacked rho(1) can fall on the other side of 1 from a scalar one,
    # so lambda = 1 must never be a bracket end
    @example(rates={"mu0": 0.25, "d0": 0.0234375, "k": 0.5, "delta": 0.5, "p": 0.5,
                    "c": 0.5, "c1": 0.25, "c2": 0.0},
             log_r0_factor=0.0, amps=(0.0, 0.0, 0.0))
    def test_matches_bisection_oracle(self, start, rates, log_r0_factor, amps):
        # "mean-rate": with the Fourier value unconverged, the search starts from
        # the autonomous R0 of the coefficient means
        params = admissible_periodic(rates, log_r0_factor, amps)
        tol = 1e-6
        hill = _unconverged_hill if start == "mean-rate" else _hill_r0
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
    @pytest.mark.parametrize("start", ["fourier", "mean-rate"])
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
        hill = _unconverged_hill if start == "mean-rate" else _hill_r0
        with mock.patch.object(reproduction, "_hill_r0", hill):
            base, covariant = r0_periodic(params, tol=tol), r0_periodic(scaled, tol=tol)
        assert abs(covariant.value - s * base.value) <= (1.0 + s) * tol


def _steep_after(root):
    """Flat above 1 up to the root, then falling steeply."""
    return lambda lam: (math.exp(1e-6 * (root - lam)) if lam < root
                        else math.exp(max(50.0 * (root - lam), -700.0)))


def _step_at(root):
    return lambda lam: 2.0 if lam < root else 0.5


class TestUnitCrossing:
    @pytest.mark.parametrize("shape", [_steep_after, _step_at], ids=["flat-steep", "step"])
    @pytest.mark.parametrize("root", [0.37, 3.7, 123.4])
    @pytest.mark.parametrize("guess_factor", [1.0, 1.01, 5.0, 1.0 / 7.0])
    @pytest.mark.parametrize("tol", [1e-8, 1e-10])
    def test_pathological_rho_within_half_the_bisections(self, shape, root, guess_factor,
                                                          tol):
        rho = shape(root)
        rounds = []

        def stacked(lams):
            rounds.append(len(lams))
            return [rho(lam) for lam in lams]

        points = [(lam, rho(lam)) for lam in _pair(root * guess_factor, tol)]
        lo, hi = _unit_crossing(stacked, points, tol)
        _, _, bisections = bisection_root(rho, tol)
        assert rho(lo) >= 1.0 >= rho(hi)
        assert 0.0 <= hi - lo <= tol
        assert len(rounds) + 1 <= bisections / 2  # plus the round that gave the points
        assert max(rounds, default=0) <= reproduction.ROUND_LAMBDAS + 2

    def test_bracket_failure_when_rho_never_crosses(self):
        for radius in (2.0, 0.5):  # a ladder up, then a ladder down
            rounds = []

            def stacked(lams):
                rounds.append(lams)
                return [radius] * len(lams)

            with pytest.raises(BracketFailure):
                _unit_crossing(stacked, [(1.0, radius), (3.0, radius)], 1e-8)
            assert len(rounds) == reproduction.MAX_ROUNDS


class TestMonotonicity:
    # K grows pointwise with beta.mean (amplitude fixed) and with mu.mean
    # (through T*), and shrinks with c, delta and c1, so R0 does too, by the
    # monotonicity of the spectral radius of positive operators; each value
    # lies within tol/2 of its root
    @pytest.mark.parametrize("start", ["fourier", "mean-rate"])
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
        hill = _unconverged_hill if start == "mean-rate" else _hill_r0
        with mock.patch.object(reproduction, "_hill_r0", hill):
            base, moved = r0_periodic(params, tol=tol), r0_periodic(grown, tol=tol)
        assert (base.enclosure is None) == (moved.enclosure is None) == (start == "mean-rate")
        if rate in ("beta", "mu"):
            assert moved.value >= base.value - tol
        else:
            assert moved.value <= base.value + tol


def _pair_protocol(params, guess, tol):
    """The R0Result of the pair's certification from guess, then the search.

    This is the route that precedes the enclosure: lambda = 1 alone, one
    stack of the `_pair` around guess, then `_unit_crossing` from the pair.
    """
    lin, cfg = build_linearization(params), IntegratorConfig.spectral()
    trace = [(1.0, rho_for_lambda(lin, 1.0, cfg))]

    def rho(lams):
        radii = rho_for_lambda(lin, np.array(lams), cfg).tolist()
        trace.extend(zip(lams, radii))
        return radii

    rho(_pair(guess, tol))
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
        value, u = _hill_r0(lin, 1e-8)
        assert u.shape == lin.t_star.values[:-1].shape and np.all(u > 0.0)
        low, high = reproduction._collatz_wielandt(lin, u)
        # Hill's value and the enclosure's come from two discretizations of K
        assert 0.0 <= high - low <= 1e-10 * value
        assert abs(0.5 * (low + high) - value) <= 1e-12 * value

    @pytest.mark.parametrize("fallback", ["u-not-positive", "enclosure-outside", "hill-nan"])
    def test_forced_fallback_is_the_pair_protocol(self, monkeypatch, fallback):
        params, tol = persistence_params(), 1e-8
        value, _ = _hill_r0(build_linearization(params), tol)
        if fallback == "u-not-positive":
            guess = value
            monkeypatch.setattr(reproduction, "_hill_r0", _negated_hill)
        elif fallback == "enclosure-outside":
            guess = value + 3.0 * tol
            monkeypatch.setattr(reproduction, "_hill_r0", _shifted_hill(3.0 * tol))
        else:
            guess = r0_autonomous(params.mu.mean, params.beta.mean, params.d.mean, params.k,
                                  params.delta, params.p, params.c, params.c1)
            monkeypatch.setattr(reproduction, "_hill_r0", _unconverged_hill)
        res = r0_periodic(params, tol=tol)
        assert res.enclosure is None
        assert res == _pair_protocol(params, guess, tol)

    def test_unresolved_spectrum_gives_no_enclosure(self, monkeypatch):
        lin = build_linearization(persistence_params())
        _, u = _hill_r0(lin, 1e-8)
        assert reproduction._collatz_wielandt(lin, u) is not None
        monkeypatch.setattr(reproduction, "ENCLOSURE_RESOLUTION", 0.0)
        assert reproduction._collatz_wielandt(lin, u) is None
        assert reproduction._collatz_wielandt(lin, None) is None


class TestLiouville:
    @pytest.mark.parametrize("name", SHIPPED)
    def test_log_det_of_the_monodromy_at_one(self, config_dir, name):
        # F has a zero diagonal, so tr(F - G) = -(k + delta + c) - 2 d(t) and
        # log det Phi_{F-G}(P) = -(k + delta + c) P - 2 D(P)
        cfg = load_config(str(config_dir / f"{name}.ini"))
        params, P = cfg.params, cfg.params.period
        lin = build_linearization(params)
        # rho_for_lambda's error control: relative to each entry, whatever abs_tol
        relative = replace(cfg.integrator, abs_tol=sys.float_info.min)
        M = integrate_matrix(lin.combined(1.0), 0.0, P, np.eye(3), relative).end_matrix
        assert abs(floquet_multipliers(M)[0]) == rho_for_lambda(lin, 1.0, cfg.integrator)
        sign, log_det = np.linalg.slogdet(M)
        expected = (-(params.k + params.delta + params.c) * P
                    - 2.0 * float(periodic._death_integral(params, P)))
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


def _assert_one_integration_a_round(rho_calls, matrix_calls, res):
    """lambda = 1 alone, then one stacked integration a search round, the pair first."""
    stacks = [np.shape(call[3]) for call in matrix_calls]
    assert len(rho_calls) == len(matrix_calls) > 2
    assert rho_calls[0][1] == 1.0 and stacks[0] == (3, 3)
    assert [np.size(call[1]) for call in rho_calls[1:]] == [shape[0] for shape in stacks[1:]]
    assert stacks[1] == (2, 3, 3)
    assert all(shape[0] <= reproduction.ROUND_LAMBDAS + 2 for shape in stacks[2:])
    assert 1 + sum(shape[0] for shape in stacks[1:]) == res.iterations


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
            hill, _ = _hill_r0(build_linearization(params), tol)
            assert abs(hill - oracle) <= tol + 1e-8 * oracle

    def test_long_period_doubles_the_truncation(self, monkeypatch):
        params = _long_period_params()
        res = r0_periodic(params, tol=1e-8)
        assert res.iterations == 1 and res.enclosure is not None
        assert _certified(params, res, 1e-8)
        oracle, _, _ = bisection_r0(params, tol=1e-6)
        assert abs(res.value - oracle) <= 1e-6 + 1e-8 * oracle
        # capped at 16 harmonics, the values at N = 8 and N = 16 still differ by more than tol/4
        monkeypatch.setattr(reproduction, "HILL_MAX_ORDER", 16)
        value, u = _hill_r0(build_linearization(params), 1e-8)
        assert math.isnan(value) and u is None

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
        monkeypatch.setattr(reproduction, "_hill_r0", _shifted_hill(3.0 * tol))
        rho_calls = count_calls(monkeypatch, reproduction, "rho_for_lambda")
        matrix_calls = count_calls(monkeypatch, reproduction, "integrate_matrix")
        res = r0_periodic(params, tol=tol)
        assert res.trace[0] == (1.0, res.rho_at_one)
        _assert_one_integration_a_round(rho_calls, matrix_calls, res)
        assert _straddles(res, tol)
        assert abs(res.value - certified.value) <= tol + 1e-8 * certified.value

    def test_tolerance_below_the_fourier_accuracy(self, monkeypatch):
        # the enclosure is about 1e-15 wide here and still certifies Hill's value
        res = r0_periodic(persistence_params(), tol=1e-12)
        lo, hi = res.bracket
        assert hi - lo <= 1e-12 and lo <= res.enclosure[0] <= res.enclosure[1] <= hi
        # without it the monodromy at rel_tol 1e-9, whose radius errs by 8.8e-12
        # there, cannot certify the first pair, and the search goes on from it
        monkeypatch.setattr(reproduction, "_collatz_wielandt", lambda lin, u: None)
        searched = r0_periodic(persistence_params(), tol=1e-12)
        assert searched.trace[0] == (1.0, searched.rho_at_one)
        assert searched.iterations > 3 and _straddles(searched, 1e-12)

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


class TestRhoAtOne:
    @pytest.mark.parametrize("route", ["no-infection-term", "enclosure", "u-not-positive",
                                       "enclosure-outside", "hill-nan"])
    def test_one_unstacked_call_on_every_route(self, monkeypatch, route):
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
        assert lams[0] == 1.0 and np.ndim(lams[0]) == 0
        assert all(np.ndim(lam) == 1 and 1.0 not in lam for lam in lams[1:])
        assert (len(lams) == 1) == (route in ("no-infection-term", "enclosure"))
        lin, cfg = build_linearization(params), IntegratorConfig.spectral()
        assert res.trace[0] == (1.0, res.rho_at_one)
        assert res.rho_at_one == rho_for_lambda(lin, 1.0, cfg)

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
        assert rho_for_lambda(lin, lam, first) == rho_for_lambda(lin, lam, second)
        stack = np.array([lam, 2.0 * lam])
        assert np.array_equal(rho_for_lambda(lin, stack, first),
                              rho_for_lambda(lin, stack, second))

    def test_long_periods_end(self, config_dir):
        # P = 30,000 h: the lambda = 1 monodromy decays below 1e-300 under relative
        # error control, in 4,225 steps on extinction's rates and 17,922 with beta = 0
        zero = _with_period(zero_beta_params(), 30_000.0)
        res = r0_periodic(zero, cfg=replace(IntegratorConfig.spectral(), max_steps=50_000))
        assert res.method == "no-infection-term" and 0.0 <= res.rho_at_one < 1e-300
        # the search that follows there overflows at lambda 0.22 (ROADMAP item 5),
        # so this takes the monodromy that r0_periodic integrates first
        cfg = load_config(str(config_dir / "extinction.ini"))
        lin = build_linearization(_with_period(cfg.params, 30_000.0))
        rho = rho_for_lambda(lin, 1.0, replace(cfg.integrator, max_steps=50_000))
        assert 0.0 < rho < 1e-300
