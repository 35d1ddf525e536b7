import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from perivir import (
    ModelParameters,
    SinusoidalCoefficient,
    State,
    Trajectory,
    incidence,
    jacobian,
    rhs,
)
from perivir.integrate import FLOAT_LOOP_MAX_VALUES
from perivir.model import clamp_small_negatives, vector_field

from .helpers import (
    OMEGA,
    baseline_params,
    fd_jacobian,
    rhs_by_hand,
    rhs_column_views,
    skewed_params,
)

# batch sizes on both sides of the integrator's float-loop size
_FLOAT_LOOP_MEMBERS = FLOAT_LOOP_MAX_VALUES // 4
_state_shapes = st.one_of(
    st.just((4,)),
    st.tuples(st.integers(1, _FLOAT_LOOP_MEMBERS), st.just(4)),
    st.tuples(st.integers(_FLOAT_LOOP_MEMBERS + 1, 3 * _FLOAT_LOOP_MEMBERS), st.just(4)),
    st.tuples(st.integers(1, 8), st.integers(1, 8), st.just(4)),
)


class TestSinusoidalCoefficient:
    @pytest.mark.parametrize("mean,amp", [
        (0.1, 0.1),    # amplitude == mean
        (0.1, 0.2),    # amplitude > mean
        (-0.1, 0.0),   # negative mean
        (0.1, -0.01),  # negative amplitude
        (math.nan, 0.0),
        (0.1, math.inf),
    ])
    def test_invalid_coefficients_rejected(self, mean, amp):
        with pytest.raises(ValueError):
            SinusoidalCoefficient(mean, amp)

    def test_identically_zero_coefficient_allowed(self):
        assert SinusoidalCoefficient(0.0, 0.0).is_zero
        assert not SinusoidalCoefficient(0.1, 0.0).is_zero


class TestModelParameters:
    def test_period_derived_from_frequency(self):
        assert baseline_params().period == pytest.approx(24.0, rel=1e-15)

    @pytest.mark.parametrize("w,message", [
        (0.0, "angular_frequency must be positive"),
        (-1.0, "angular_frequency must be positive"),
        (math.nan, "angular_frequency must be finite"),
        (math.inf, "angular_frequency must be finite"),
        (-math.inf, "angular_frequency must be finite"),
    ])
    def test_frequency_rules(self, w, message):
        with pytest.raises(ValueError) as exc:
            replace(baseline_params(), angular_frequency=w)
        assert str(exc.value) == message

    def test_zero_amplitude_rate_is_constant(self):
        params = replace(baseline_params(), mu=SinusoidalCoefficient(0.1, 0.0))
        assert params.rates(5.0)[0] == 0.1

    def test_quarter_period_peak(self):
        # sin(pi/2) = 1 at t = 6 for a 24-hour period
        mu_t, beta_t, d_t = baseline_params().rates(6.0)
        assert (mu_t, beta_t, d_t) == pytest.approx((0.15, 0.4, 0.015), abs=1e-12)

    def test_full_period_returns_to_mean(self):
        assert baseline_params().rates(24.0) == pytest.approx((0.1, 0.3, 0.01), abs=1e-12)

    def test_periodicity_on_grid(self):
        params = replace(baseline_params(), d=SinusoidalCoefficient(0.2, 0.15))
        ts = np.linspace(0.0, 10.0 * params.period, 211)
        for now, later in zip(params.rates(ts), params.rates(ts + params.period)):
            assert np.max(np.abs(later - now)) < 1e-12

    def test_strict_positivity(self):
        params = replace(baseline_params(), mu=SinusoidalCoefficient(0.1, 0.0999))
        ts = np.linspace(0.0, params.period, 1001)
        assert all(np.min(rate) > 0.0 for rate in params.rates(ts))

    def test_rates_are_each_coefficient_on_one_sine(self):
        # a number t takes math.sin, an array np.sin, as each rate's own formula would
        params = skewed_params()
        w = params.angular_frequency
        coeffs = (params.mu, params.beta, params.d)
        for t in (0.0, 3.7, 11, 30.25):
            expected = tuple(c.mean + c.amplitude * math.sin(w * t) for c in coeffs)
            assert params.rates(t) == expected
            assert all(type(rate) is float for rate in params.rates(t))
        ts = np.linspace(0.0, 48.0, 17)
        for rate, c in zip(params.rates(ts.tolist()), coeffs, strict=True):
            assert np.array_equal(rate, c.mean + c.amplitude * np.sin(w * ts))

    def test_zero_mu_or_d_rejected(self):
        zero = SinusoidalCoefficient(0.0, 0.0)
        with pytest.raises(ValueError, match="mu.mean must be strictly positive"):
            replace(baseline_params(), mu=zero)
        with pytest.raises(ValueError, match="d.mean must be strictly positive"):
            replace(baseline_params(), d=zero)

    @pytest.mark.parametrize("field,value", [
        ("k", 0.0), ("delta", -0.1), ("p", 0.0), ("c", -1.0),
        ("c1", -0.01), ("c2", -0.01),
    ])
    def test_scalar_invariants(self, field, value):
        with pytest.raises(ValueError):
            replace(baseline_params(), **{field: value})


class TestIncidence:
    def test_no_virus_no_infection(self):
        assert incidence(0.3, 10.0, 0.0, 0.1, 0.1) == 0.0

    def test_mass_action_limit(self):
        assert incidence(0.3, 2.0, 1.0, 0.0, 0.0) == pytest.approx(0.6, rel=1e-15)

    def test_hand_value(self):
        # 0.3 * 10 * 5 / ((1 + 1)(1 + 0.5)) = 15 / 3
        assert incidence(0.3, 10.0, 5.0, 0.1, 0.1) == pytest.approx(5.0, rel=1e-15)

    def test_monotone_in_both_densities(self):
        ts = np.linspace(0.0, 50.0, 101)
        vals_t = incidence(0.3, ts, 7.0, 0.1, 0.2)
        vals_v = incidence(0.3, 7.0, ts, 0.1, 0.2)
        assert np.all(np.diff(vals_t) >= 0.0)
        assert np.all(np.diff(vals_v) >= 0.0)

    def test_saturation_bound(self):
        beta_t, c1, c2 = 0.3, 0.1, 0.2
        big = incidence(beta_t, 1e9, 1e9, c1, c2)
        assert big < beta_t / (c1 * c2)
        assert big == pytest.approx(beta_t / (c1 * c2), rel=1e-6)

    def test_bounded_by_mass_action(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            T, V = rng.uniform(0, 30, size=2)
            assert incidence(0.3, T, V, 0.1, 0.1) <= 0.3 * T * V + 1e-15


class TestRhs:
    def test_virus_free_balance_at_baseline_start(self):
        # mu(0) = 0.1, d(0) = 0.01 and V = 0: dT = 0.1 - 0.01*10 = 0
        out = rhs(0.0, State(10.0, 0.0, 0.0, 0.0), baseline_params())
        assert np.allclose(out, np.zeros(4), atol=1e-15)

    def test_origin_dynamics(self):
        params = baseline_params()
        for t in (0.0, 3.7, 11.0):
            out = rhs(t, np.zeros(4), params)
            assert out[0] == pytest.approx(params.rates(t)[0], rel=1e-15)
            assert np.all(out[1:] == 0.0)

    def test_matches_hand_evaluation(self):
        params = baseline_params()
        rng = np.random.default_rng(42)
        for _ in range(25):
            t = rng.uniform(0.0, 48.0)
            y = rng.uniform(0.0, 20.0, size=4)
            assert np.allclose(rhs(t, y, params), rhs_by_hand(t, y, params),
                               rtol=1e-14, atol=1e-16)

    def test_infection_face_invariant(self):
        params = baseline_params()
        out = rhs(2.5, np.array([7.3, 0.0, 0.0, 0.0]), params)
        assert np.all(out[1:] == 0.0)

    def test_cell_bookkeeping_identity(self):
        # dT + dE + dI = mu - d*(T+E+I) - delta*I
        params = baseline_params()
        rng = np.random.default_rng(3)
        for _ in range(20):
            t = rng.uniform(0.0, 24.0)
            y = rng.uniform(0.0, 15.0, size=4)
            out = rhs(t, y, params)
            lhs = out[0] + out[1] + out[2]
            mu_t, _, d_t = params.rates(t)
            rhs_val = mu_t - d_t * (y[0] + y[1] + y[2]) - params.delta * y[2]
            assert lhs == pytest.approx(rhs_val, rel=1e-12, abs=1e-14)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), shape=_state_shapes, t=st.floats(0.0, 48.0),
           t_kind=st.sampled_from(["float", "0-d", "per-member"]))
    def test_bitwise_equal_to_column_views(self, data, shape, t, t_kind):
        y = data.draw(hnp.arrays(float, shape, elements=st.floats(0.0, 100.0)))
        params = skewed_params()
        if t_kind == "float":
            t_rhs = t_views = t
        elif t_kind == "0-d" or len(shape) == 1:
            t_rhs = t_views = np.array(t)
        else:
            # one time per member: rhs broadcasts t against a component of
            # y.T, whose axes are the batch axes reversed
            t_views = t + np.arange(np.prod(shape[:-1]), dtype=float).reshape(shape[:-1])
            t_rhs = t_views.T
        out = rhs(t_rhs, y, params)
        expected = rhs_column_views(t_views, y, params)
        assert out.shape == expected.shape == shape
        assert np.array_equal(out, expected)
        if t_kind == "float" and y.size <= FLOAT_LOOP_MAX_VALUES:
            # the float form the integrator's float loop calls
            floats = vector_field(params).floats(t, y.ravel().tolist())
            assert all(type(v) is float for v in floats)
            assert np.array_equal(np.reshape(floats, shape), expected)

    def test_zero_denominator_matches_column_views(self):
        # T = -1/c1 zeroes the incidence denominator; rhs gives numpy's inf/nan
        params = baseline_params()
        y = np.array([[-1.0 / params.c1, 0.5, 0.5, 2.0], [1.0, 0.5, 0.5, 2.0]])
        with np.errstate(divide="ignore", invalid="ignore"):
            out = rhs(3.0, y, params)
            expected = rhs_column_views(3.0, y, params)
        assert np.array_equal(out, expected, equal_nan=True)
        assert not np.isfinite(out[0, :2]).any()

    def test_batched_matches_rowwise(self):
        params = baseline_params()
        rng = np.random.default_rng(11)
        batch = rng.uniform(0.0, 10.0, size=(6, 4))
        out = rhs(1.3, batch, params)
        for i in range(6):
            assert np.array_equal(out[i], rhs(1.3, batch[i], params))


class TestJacobian:
    def test_structure_at_virus_free_state(self):
        params = baseline_params()
        t = 4.2
        T = 9.0
        jac = jacobian(t, np.array([T, 0.0, 0.0, 0.0]), params)
        _, beta_t, d_t = params.rates(t)
        assert jac[0, 3] == pytest.approx(-beta_t * T / (1.0 + params.c1 * T), rel=1e-14)
        assert jac[0, 0] == pytest.approx(-d_t, rel=1e-14)
        assert jac[1, 1] == pytest.approx(-(params.k + d_t), rel=1e-14)
        assert jac[2, 2] == pytest.approx(-(params.delta + d_t), rel=1e-14)
        assert jac[3, 3] == pytest.approx(-params.c, rel=1e-14)
        assert np.all(jac[1:, 0] == 0.0)  # block triangular against the T direction

    def test_mass_action_limit(self):
        params = ModelParameters(angular_frequency=OMEGA, mu=SinusoidalCoefficient(0.1, 0.05),
                                 beta=SinusoidalCoefficient(0.3, 0.1),
                                 d=SinusoidalCoefficient(0.01, 0.005), k=0.2, delta=0.09,
                                 p=0.5, c=0.18, c1=0.0, c2=0.0)
        t, T, V = 1.0, 8.0, 3.0
        jac = jacobian(t, np.array([T, 1.0, 1.0, V]), params)
        beta_t = params.rates(t)[1]
        assert jac[1, 3] == pytest.approx(beta_t * T, rel=1e-14)
        assert jac[1, 0] == pytest.approx(beta_t * V, rel=1e-14)

    def test_matches_finite_differences(self):
        params = skewed_params()
        f = vector_field(params)
        rng = np.random.default_rng(5)
        for _ in range(15):
            t = rng.uniform(0.0, 24.0)
            y = rng.uniform(0.5, 15.0, size=4)
            jac = jacobian(t, y, params)
            fd = fd_jacobian(f, t, y, h=1e-6)
            scale = np.maximum(np.abs(jac), 1e-3)
            assert np.max(np.abs(jac - fd) / scale) < 1e-5


class TestStateAndTrajectory:
    def test_state_rejects_negative(self):
        with pytest.raises(ValueError):
            State(1.0, -0.1, 0.0, 0.0)

    def test_state_roundtrip(self):
        s = State(1.0, 2.0, 3.0, 4.0)
        assert State.from_array(s.as_array()) == s

    def test_state_converts_as_an_array(self):
        # np.asarray, np.array over a sequence and from_array all take a State
        s = State(1.0, 2.0, 3.0, 4.0)
        assert np.asarray(s, dtype=float).tolist() == [1.0, 2.0, 3.0, 4.0]
        assert np.array([s, State(5.0, 6.0, 7.0, 8.0)], dtype=float).shape == (2, 4)
        assert State.from_array(s) == s

    @pytest.mark.parametrize("y, field", [([1.0, -0.1, 0.0, 0.0], "e_cells"),
                                          ([1.0, 0.0, 0.0, float("inf")], "virus")])
    def test_from_array_checks_the_cone(self, y, field):
        with pytest.raises(ValueError, match=f"^{field} must be finite and nonnegative$"):
            State.from_array(np.array(y))

    def test_trajectory_requires_increasing_times(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0, 1.0]), np.zeros((3, 4)))

    def test_trajectory_window(self):
        traj = Trajectory(np.linspace(0.0, 10.0, 11), np.arange(44.0).reshape(11, 4))
        w = traj.window(3.0, 7.0)
        assert w.times[0] == 3.0 and w.times[-1] == 7.0 and len(w) == 5
        assert np.array_equal(w.states, traj.states[3:8])

    def test_clamp_small_negatives(self):
        # rounding band is 4x the absolute tolerance
        y = np.array([1.0, -5e-10, -3.9e-9, -5e-9])
        out = clamp_small_negatives(y, 1e-9)
        assert out[1] == 0.0
        assert out[2] == 0.0
        assert out[3] == -5e-9  # beyond the band: left for the monitor to flag
        assert y[1] == -5e-10   # input untouched
