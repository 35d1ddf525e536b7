import contextlib
import importlib
import math

import numpy as np
import pytest

from perivir import (
    IntegratorConfig,
    NonFiniteState,
    StepLimitExceeded,
    integrate,
    integrate_matrix,
)
from perivir import model as model_module
from perivir import periodic
from perivir.analysis import (
    DEFAULT_INITIAL_CONDITIONS,
    EVIDENCE_PERIODS,
    GRID_POINTS_PER_PERIOD,
    _uniform_grid,
    classify,
)
from perivir.cli import main
from perivir.model import vector_field
from perivir.periodic import poincare_map
from perivir.reproduction import build_linearization, rho_for_lambda

from .helpers import (
    baseline_params,
    count_calls,
    expm_reference,
    persistence_params,
    rhs_column_views,
)

# the package attribute perivir.integrate is the function
_integrate_module = importlib.import_module("perivir.integrate")


class _LeftSum(np.ndarray):
    """An error vector whose sum(-1) adds along the last axis left to right.

    numpy sums more than 7 values pairwise, in 8 interleaved partial sums;
    the float loop adds each member's squared error ratios in order. Arrays
    computed from this one (the ratios, their squares) keep the class.
    """

    def sum(self, axis):
        assert axis == -1
        values = np.asarray(self)
        acc = np.zeros(values.shape[:-1])
        for j in range(values.shape[-1]):
            acc = acc + values[..., j]
        return acc


class _LeftToRight:
    """A tableau row whose @ sums its products left to right, as the float loop does."""

    def __init__(self, row, result=np.ndarray):
        self.row = row
        self.result = result

    def __matmul__(self, K):
        return np.einsum("i,ij->j", self.row, K).view(self.result)


@contextlib.contextmanager
def array_loop():
    """Send every state to the numpy stepping loop, its sums all taken left to right.

    numpy's @ on the tableau goes through BLAS, which sums in an order of its
    own, and its sum over a member's error ratios is pairwise; with these
    rows and this error vector the two loops should agree bit for bit.
    """
    m = _integrate_module
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(m, "FLOAT_LOOP_MAX_VALUES", 0)
        mp.setattr(m, "_A", tuple(_LeftToRight(row) for row in m._A))
        mp.setattr(m, "_E", _LeftToRight(m._E, _LeftSum))
        mp.setattr(m, "_D", _LeftToRight(m._D))
        yield


_BITWISE_STARTS = [[10.0, 0.5, 0.5, 2.0],
                   [[10.0, 0.5, 0.5, 2.0], [3.0, 0.0, 0.0, 0.1], [20.0, 5.0, 1.0, 40.0]]]


def _assert_same_solution(sol, ref):
    """Two Solutions agree bit for bit, tallies and proposed step included."""
    assert np.array_equal(sol.trajectory.times, ref.trajectory.times)
    assert np.array_equal(sol.trajectory.states, ref.trajectory.states)
    assert np.array_equal(sol.final, ref.final)
    assert (sol.step_count, sol.rejected, sol.next_step) == (
        ref.step_count, ref.rejected, ref.next_step)


def _assert_loops_agree(params, y0, cfg, t_end, t_eval):
    """The float loop and the left-to-right array loop agree bit for bit, tallies included."""
    sol = integrate(vector_field(params), 0.0, t_end, np.array(y0), cfg, t_eval=t_eval)
    with array_loop():
        ref = integrate(lambda t, y: rhs_column_views(t, y, params), 0.0, t_end,
                        np.array(y0), cfg, t_eval=t_eval)
    assert len(sol.trajectory) > 40
    _assert_same_solution(sol, ref)


def _recorded_newton_flow(params, x, cfg):
    """_flow_and_monodromy's (samples, end, monodromy) and the Solution behind them."""
    sols = []

    def recorded(*args, **kwargs):
        sols.append(integrate(*args, **kwargs))
        return sols[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(periodic, "integrate", recorded)
        out = periodic._flow_and_monodromy(params, np.array(x), cfg)
    assert len(sols) == 1
    return out, sols[0]


class TestConfig:
    def test_profiles(self):
        sim = IntegratorConfig.simulation()
        spec = IntegratorConfig.spectral()
        assert (sim.rel_tol, sim.abs_tol) == (1e-6, 1e-9)
        assert (spec.rel_tol, spec.abs_tol) == (1e-9, 1e-12)

    @pytest.mark.parametrize("kwargs", [
        {"rel_tol": 0.0}, {"abs_tol": -1e-9}, {"initial_step": 0.0},
        {"initial_step": 2.0, "max_step": 1.0}, {"max_steps": 0},
        {"rel_tol": math.nan}, {"abs_tol": math.inf}, {"initial_step": math.nan},
        {"initial_step": math.inf}, {"max_step": math.nan},
        {"max_steps": math.nan}, {"max_steps": math.inf}, {"max_steps": 2.7},
    ])
    def test_invalid_config(self, kwargs):
        with pytest.raises(ValueError):
            IntegratorConfig(**kwargs)

    def test_whole_step_budget_stored_as_int(self):
        max_steps = IntegratorConfig(max_steps=3.0).max_steps
        assert type(max_steps) is int and max_steps == 3


class TestVectorIntegration:
    def test_exponential_decay(self, spectral_cfg):
        _, yf = integrate(lambda t, y: -y, 0.0, 1.0, [1.0], spectral_cfg)
        assert abs(yf[0] - math.exp(-1.0)) < 1e-8

    def test_healthy_equilibrium_is_fixed(self, spectral_cfg):
        # dT/dt = 0.1 - 0.01*T has fixed point 10
        f = lambda t, y: np.array([0.1 - 0.01 * y[0]])
        _, yf = integrate(f, 0.0, 100.0, [10.0], spectral_cfg)
        assert abs(yf[0] - 10.0) < 1e-9

    def test_endpoints_sampled_exactly(self, sim_cfg):
        traj, _ = integrate(lambda t, y: -y, 0.0, 3.7, [2.0], sim_cfg)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == 3.7

    def test_requested_grid_hit_exactly(self, sim_cfg):
        grid = np.linspace(0.0, 240.0, 481)
        traj, _ = integrate(vector_field(baseline_params()), 0.0, 240.0,
                            [10.0, 1.0, 1.0, 1.0], sim_cfg, t_eval=grid)
        assert np.array_equal(traj.times, grid)

    def test_dense_output_accuracy(self, spectral_cfg):
        # solution sin(t) sampled off-step
        f = lambda t, y: np.array([math.cos(t)])
        grid = np.linspace(0.0, 10.0, 173)
        traj, _ = integrate(f, 0.0, 10.0, [0.0], spectral_cfg, t_eval=grid)
        assert np.max(np.abs(traj.states[:, 0] - np.sin(grid))) < 1e-8

    def test_step_halving_consistency_model_run(self, sim_cfg):
        f = vector_field(baseline_params())
        y0 = np.array([10.0, 1.0, 1.0, 1.0])
        _, a = integrate(f, 0.0, 240.0, y0, sim_cfg)
        halved = IntegratorConfig(rel_tol=sim_cfg.rel_tol / 2.0,
                                  abs_tol=sim_cfg.abs_tol / 2.0)
        _, b = integrate(f, 0.0, 240.0, y0, halved)
        assert np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-12)) < 1e-6

    def test_tolerance_halving_bounded_change(self, sim_cfg):
        # halving both tolerances moves the answer by less than 10x the original tolerance
        f = vector_field(persistence_params())
        y0 = np.array([5.0, 2.0, 0.5, 3.0])
        _, a = integrate(f, 0.0, 120.0, y0, sim_cfg)
        halved = IntegratorConfig(rel_tol=sim_cfg.rel_tol / 2.0,
                                  abs_tol=sim_cfg.abs_tol / 2.0)
        _, b = integrate(f, 0.0, 120.0, y0, halved)
        rel = np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-12))
        assert rel < 10.0 * sim_cfg.rel_tol

    def test_step_limit_exceeded(self):
        cfg = IntegratorConfig(max_steps=10)
        with pytest.raises(StepLimitExceeded):
            integrate(lambda t, y: np.array([math.cos(10.0 * t)]), 0.0, 100.0,
                      [0.0], cfg)

    def test_blowup_raises_non_finite(self, sim_cfg):
        # y' = y^2 from 1 blows up at t = 1
        with pytest.raises(NonFiniteState):
            integrate(lambda t, y: y * y, 0.0, 2.0, [1.0], sim_cfg)

    def test_non_finite_initial_state(self, sim_cfg):
        with pytest.raises(NonFiniteState):
            integrate(lambda t, y: -y, 0.0, 1.0, [math.nan], sim_cfg)

    @pytest.mark.parametrize("t0, t1", [(1.0, 1.0), (0.0, math.inf), (0.0, math.nan),
                                        (-math.inf, 1.0)])
    def test_bad_interval_rejected(self, sim_cfg, t0, t1):
        with pytest.raises(ValueError):
            integrate(lambda t, y: -y, t0, t1, [1.0], sim_cfg)

    def test_bad_grid_rejected(self, sim_cfg):
        with pytest.raises(ValueError):
            integrate(lambda t, y: -y, 0.0, 1.0, [1.0], sim_cfg,
                      t_eval=np.array([0.5, 0.25]))
        with pytest.raises(ValueError):
            integrate(lambda t, y: -y, 0.0, 1.0, [1.0], sim_cfg,
                      t_eval=np.array([0.5, 1.5]))
        # the bounds are exact: no rounding slack either side
        with pytest.raises(ValueError):
            integrate(lambda t, y: -y, 0.0, 1.0, [1.0], sim_cfg,
                      t_eval=np.array([0.5, 1.0 + 1e-13]))
        with pytest.raises(ValueError):
            integrate(lambda t, y: -y, 0.0, 1.0, [1.0], sim_cfg,
                      t_eval=np.array([-1e-13, 0.5]))

    def test_deterministic_reruns(self, sim_cfg):
        f = vector_field(persistence_params())
        y0 = np.array([10.0, 1.0, 1.0, 1.0])
        t1, a = integrate(f, 0.0, 48.0, y0, sim_cfg)
        t2, b = integrate(f, 0.0, 48.0, y0, sim_cfg)
        assert np.array_equal(a, b)
        assert np.array_equal(t1.states, t2.states)
        assert np.array_equal(t1.times, t2.times)

    def test_max_step_respected(self):
        cfg = IntegratorConfig(max_step=0.125)
        sol = integrate(lambda t, y: -0.01 * y, 0.0, 10.0, [1.0], cfg)
        assert np.max(np.diff(sol.trajectory.times)) <= 0.125 + 1e-12
        assert sol.next_step == 0.125  # the proposal is capped too

    @pytest.mark.parametrize("shape", [(4,), (3, 4), (2, 2, 2)], ids=["floats", "batch", "stack"])
    def test_next_step_ignores_the_step_that_ends_on_t1(self, sim_cfg, shape):
        # the step proposed after the last step that did not end on t1, not
        # after the final one, which is shortened to end there exactly
        y0 = np.ones(shape)
        sol = integrate(lambda t, y: -0.3 * y, 0.0, 50.0, y0, sim_cfg)
        steps = np.diff(sol.trajectory.times)
        assert sol.rejected == 0 and len(steps) > 4
        assert steps[-1] < steps[-2] < sol.next_step < 10.0 * steps[-2]
        # a longer run takes the same steps, then one of next_step
        longer = integrate(lambda t, y: -0.3 * y, 0.0, 60.0, y0, sim_cfg)
        assert np.array_equal(longer.trajectory.times[:len(steps)], sol.trajectory.times[:-1])
        taken = longer.trajectory.times[len(steps)] - longer.trajectory.times[len(steps) - 1]
        assert taken == pytest.approx(sol.next_step, rel=1e-12)  # t + h - t rounds

    def test_next_step_is_the_initial_step_when_the_first_step_ends_on_t1(self, sim_cfg):
        sol = integrate(lambda t, y: -y, 0.0, 1e-3, [1.0], sim_cfg)
        assert sol.step_count == 1
        assert sol.next_step == sim_cfg.initial_step


class TestBatchIntegration:
    def test_shapes_follow_y0(self, sim_cfg):
        y0 = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        traj, yf = integrate(lambda t, y: -y, 0.0, 1.0, y0, sim_cfg, t_eval=[0.0, 0.5, 1.0])
        assert traj.states.shape == (3, 3, 2)
        assert np.array_equal(traj.states[0], y0)  # the interpolant at theta = 0
        assert yf.shape == (3, 2)
        assert np.allclose(yf, math.exp(-1.0) * y0, rtol=1e-5)
        with pytest.raises(ValueError):
            integrate(lambda t, y: -y, 0.0, 1.0, np.float64(1.0), sim_cfg)

    def test_batched_members_match_serial_runs(self, sim_cfg):
        # 52 periods at rel_tol 1e-6, as a classification runs them
        params = persistence_params()
        f = vector_field(params)
        horizon = 52.0 * params.period
        grid = np.linspace(0.0, horizon, 521)
        batch = np.array([ic.as_array() for ic in DEFAULT_INITIAL_CONDITIONS])
        traj, _ = integrate(f, 0.0, horizon, batch, sim_cfg, t_eval=grid)
        for i, row in enumerate(batch):
            alone, _ = integrate(f, 0.0, horizon, row, sim_cfg, t_eval=grid)
            rel = np.abs(traj.states[:, i] - alone.states) / np.abs(alone.states)
            assert np.max(rel) < 1e-5

    @pytest.mark.parametrize("profile", ["simulation", "spectral"])
    @pytest.mark.parametrize("y0", _BITWISE_STARTS, ids=["one", "three"])
    def test_model_field_matches_column_views(self, profile, y0):
        # the float loop on the model's float field drives the same steps, bit
        # for bit, as the numpy loop on the numpy column formula once that
        # loop sums its tableau products left to right
        params = persistence_params()
        _assert_loops_agree(params, y0, getattr(IntegratorConfig, profile)(),
                            4.0 * params.period, None)

    @pytest.mark.parametrize("profile", ["simulation", "spectral"])
    @pytest.mark.parametrize("y0", _BITWISE_STARTS, ids=["one", "three"])
    def test_model_field_matches_column_views_on_classify_window(self, profile, y0):
        # the dense output too, on classify's grid over its evidence window
        params = persistence_params()
        t_end = (EVIDENCE_PERIODS + 2) * params.period
        step = params.period / GRID_POINTS_PER_PERIOD
        grid = _uniform_grid(t_end, step)
        window = grid[grid >= t_end - EVIDENCE_PERIODS * params.period - 0.5 * step]
        _assert_loops_agree(params, y0, getattr(IntegratorConfig, profile)(), t_end, window)

    @pytest.mark.parametrize("profile", ["simulation", "spectral"])
    @pytest.mark.parametrize("x", [[10.0, 1.0, 1.0, 1.0], [0.1032, 0.3530, 0.7915, 4.3401]],
                             ids=["transient", "near-orbit"])
    def test_newton_flow_matches_the_array_loop(self, profile, x):
        # Newton shooting's 20-wide state-plus-variational flow steps on
        # floats; the array loop with every sum left to right (tableau
        # products and the 20-wide error norm) takes the same steps
        params = persistence_params()
        cfg = getattr(IntegratorConfig, profile)()
        (samples, end, mono), sol = _recorded_newton_flow(params, x, cfg)
        with array_loop():
            (samples_ref, end_ref, mono_ref), ref = _recorded_newton_flow(params, x, cfg)
        assert sol.step_count > 40
        _assert_same_solution(sol, ref)
        assert np.array_equal(samples, samples_ref)
        assert np.array_equal(end, end_ref) and np.array_equal(mono, mono_ref)

    def test_member_error_not_diluted_by_batch(self, sim_cfg):
        # 199 members rest on the virus-free state (T* = 10 for the table
        # coefficients) and one moves: its error must be the one it gets
        # alone, not one loosened by the resting members' zero errors
        params = baseline_params()
        f = vector_field(params)
        t_end = 10.0 * params.period
        batch = np.tile([10.0, 0.0, 0.0, 0.0], (200, 1))
        batch[7] = [10.0, 1.0, 1.0, 1.0]
        _, ref = integrate(f, 0.0, t_end, batch[7], IntegratorConfig(rel_tol=1e-12, abs_tol=1e-15))
        _, alone = integrate(f, 0.0, t_end, batch[7], sim_cfg)
        _, together = integrate(f, 0.0, t_end, batch, sim_cfg)
        err_alone = np.max(np.abs(alone - ref))
        assert err_alone > 0.0
        assert np.max(np.abs(together[7] - ref)) == pytest.approx(err_alone, rel=1e-9)


class TestLoopRouting:
    def test_model_runs_take_the_float_loop(self, monkeypatch, sim_cfg, spectral_cfg):
        # classify's 3-member batch and a warm-start period pass never call
        # rhs: the float loop calls the model's float formula directly
        params = persistence_params()
        floats = count_calls(monkeypatch, model_module, "_field_floats")
        arrays = count_calls(monkeypatch, model_module, "rhs")
        classify(params, DEFAULT_INITIAL_CONDITIONS, 50.0 * params.period, sim_cfg)
        batched = len(floats)
        poincare_map(params, DEFAULT_INITIAL_CONDITIONS[0], spectral_cfg)
        assert 0 < batched < len(floats)
        assert [len(args[2]) for args in floats] == [12] * batched + [4] * (len(floats) - batched)
        assert arrays == []

    def test_large_batch_takes_the_array_loop(self, monkeypatch, sim_cfg):
        params = persistence_params()
        f = vector_field(params)
        horizon = 52.0 * params.period
        grid = np.linspace(0.0, horizon, 521)
        members = _integrate_module.FLOAT_LOOP_MAX_VALUES // 4 + 1
        batch = np.random.default_rng(5).uniform(0.5, 20.0, size=(members, 4))
        calls = count_calls(monkeypatch, model_module, "rhs")
        traj, _ = integrate(f, 0.0, horizon, batch, sim_cfg, t_eval=grid)
        assert calls
        assert all(isinstance(args[1], np.ndarray) and args[1].shape == batch.shape
                   for args in calls)
        for i, row in enumerate(batch):
            alone, _ = integrate(f, 0.0, horizon, row, sim_cfg, t_eval=grid)
            rel = np.abs(traj.states[:, i] - alone.states) / np.abs(alone.states)
            assert np.max(rel) < 1e-5

    def test_orbit_runs_take_only_the_float_loop(self, monkeypatch, tmp_path, config_dir,
                                                 spectral_cfg):
        # the warm start's (4,) passes and Newton's 20-wide flows; the R0
        # search's (m, 3, 3) monodromy stacks stay on the array loop
        calls = count_calls(monkeypatch, _integrate_module, "_integrate_arrays")
        assert main(["orbit", "--config", str(config_dir / "persistence.ini"),
                     "--out", str(tmp_path / "orbit.csv")]) == 0
        assert calls == []
        lin = build_linearization(persistence_params())
        rho_for_lambda(lin, np.array([0.5, 1.0, 2.0]), spectral_cfg)
        assert len(calls) == 1 and calls[0][3].shape == (3, 3, 3)

    def test_hidden_float_form_gives_the_same_solution(self, spectral_cfg):
        # perfbench's tracer hands integrate a wrapper without f.floats: the
        # float loop then calls f on arrays, which must do the same arithmetic
        params = persistence_params()
        grid = np.linspace(0.0, params.period, periodic.ORBIT_SAMPLES + 1)
        x = np.array([10.0, 1.0, 1.0, 1.0])
        for f, y0 in [(periodic._augmented_field(params), np.concatenate([x, np.eye(4).ravel()])),
                      (vector_field(params), x)]:
            sol = integrate(f, 0.0, params.period, y0, spectral_cfg, t_eval=grid)
            hidden = integrate(lambda t, y: f(t, y), 0.0, params.period, y0, spectral_cfg,
                               t_eval=grid)
            _assert_same_solution(sol, hidden)

    @pytest.mark.parametrize("case", ["step-limit", "blow-up", "zero-denominator"])
    def test_failures_match_the_array_loop(self, sim_cfg, case):
        # the same exception with the same message, the step it names included
        params = baseline_params()
        f, y0, cfg = vector_field(params), [10.0, 1.0, 1.0, 1.0], sim_cfg
        if case == "step-limit":
            cfg = IntegratorConfig(max_steps=5)
            expected, message = StepLimitExceeded, "max_steps=5 reached at t="
        elif case == "blow-up":  # y' = y^2 leaves every finite value at t = 1/y(0)
            f, y0 = (lambda t, y: y * y), [1.0, 0.5, 2.0, 0.25]
            expected, message = NonFiniteState, "state became non-finite near t="
        else:  # T = -1/c1 zeroes the incidence denominator
            y0 = [-1.0 / params.c1, 0.5, 0.5, 2.0]
            expected, message = NonFiniteState, "vector field not finite at t=0.0"
        with pytest.raises(expected, match=message) as floats:
            integrate(f, 0.0, 2.0 * params.period, np.array(y0), cfg)
        with array_loop(), pytest.raises(expected) as arrays:
            integrate(f, 0.0, 2.0 * params.period, np.array(y0), cfg)
        assert str(floats.value) == str(arrays.value)


class TestMatrixIntegration:
    def test_constant_diagonal(self, spectral_cfg):
        sol = integrate_matrix(lambda t: np.diag([-1.0, -1.0, -1.0]), 0.0, 24.0,
                               np.eye(3), spectral_cfg)
        assert np.max(np.abs(sol.end_matrix - math.exp(-24.0) * np.eye(3))) < 1e-10

    def test_generic_constant_matches_expm_oracle(self, spectral_cfg):
        rng = np.random.default_rng(17)
        A = rng.uniform(-0.08, 0.08, size=(3, 3))
        sol = integrate_matrix(lambda t: A, 0.0, 24.0, np.eye(3), spectral_cfg)
        assert np.max(np.abs(sol.end_matrix - expm_reference(24.0 * A))) < 1e-8
        # a stack of generators integrates as one batch, each member to the same accuracy
        stack = rng.uniform(-0.08, 0.08, size=(4, 3, 3))
        sol = integrate_matrix(lambda t: stack, 0.0, 24.0,
                               np.broadcast_to(np.eye(3), stack.shape), spectral_cfg)
        assert sol.end_matrix.shape == (4, 3, 3)
        for i in range(4):
            assert np.max(np.abs(sol.end_matrix[i] - expm_reference(24.0 * stack[i]))) < 1e-8

    def test_columns_match_vector_runs(self, spectral_cfg):
        # A(t) = -G(t), the transfer part of the linearized infection subsystem:
        # F/lam vanishes at lam = inf
        params = persistence_params()
        A = build_linearization(params).combined(math.inf)
        sol = integrate_matrix(A, 0.0, params.period, np.eye(3), spectral_cfg)
        f = lambda t, y: A(t) @ y
        for j in range(3):
            e = np.zeros(3)
            e[j] = 1.0
            _, col = integrate(f, 0.0, params.period, e, spectral_cfg)
            assert np.max(np.abs(sol.end_matrix[:, j] - col)) < 1e-9

    def test_single_matrix_is_a_stack_of_one(self, spectral_cfg):
        # by the member-axis rule one matrix runs as a (1, n, n) stack, bitwise
        A = lambda t: np.array([[-0.1 + 0.05 * math.sin(t), 0.3], [0.2, -0.4 * math.cos(t)]])
        single = integrate_matrix(A, 0.0, 24.0, np.eye(2), spectral_cfg)
        stack = integrate_matrix(A, 0.0, 24.0, np.eye(2)[None], spectral_cfg)
        assert single.end_matrix.shape == (2, 2) and stack.end_matrix.shape == (1, 2, 2)
        assert np.array_equal(single.end_matrix, stack.end_matrix[0])
        assert (single.step_count, single.rejected) == (stack.step_count, stack.rejected)

    def test_non_square_rejected(self, sim_cfg):
        with pytest.raises(ValueError):
            integrate_matrix(lambda t: np.zeros((2, 3)), 0.0, 1.0,
                             np.zeros((2, 3)), sim_cfg)

    @pytest.mark.parametrize("kind", ["matrix", "vector"])
    def test_step_tallies_reported(self, sim_cfg, kind):
        calls = 0

        def A(t):
            nonlocal calls
            calls += 1
            return np.diag([-0.1, -0.2])

        if kind == "matrix":
            sol = integrate_matrix(A, 0.0, 10.0, np.eye(2), sim_cfg)
        else:
            sol = integrate(lambda t, y: A(t) @ y, 0.0, 10.0, np.ones(2), sim_cfg)
        # one field evaluation at t0, then six stages per attempted step (FSAL)
        assert calls == 1 + 6 * sol.step_count
        assert sol.step_count > sol.rejected >= 0
