import contextlib
import importlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perivir import (
    IntegratorConfig,
    NonFiniteState,
    StepLimitExceeded,
    integrate,
    integrate_matrix,
)
from perivir import model as model_module
from perivir import periodic, reproduction
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
    combined,
    comprehension_step,
    controlled_steps,
    count_calls,
    dense_samples_by_hand,
    expm_reference,
    persistence_params,
    recorded_monodromy,
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
    """Send every state to array steps, their sums all taken left to right.

    numpy's @ on the tableau goes through BLAS, which sums in an order of its
    own, and its sum over a member's error ratios is pairwise; with these
    rows and this error vector both step kinds should agree bit for bit.
    """
    m = _integrate_module
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(m, "FLOAT_LOOP_MAX_VALUES", 0)
        mp.setattr(m, "_A", tuple(_LeftToRight(row) for row in m._A))
        mp.setattr(m, "_E", _LeftToRight(m._E, _LeftSum))
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


def _hidden(f):
    """f without f.floats, as perfbench's tracer hands integrate its fields."""
    return lambda t, y: f(t, y)


def _on_arrays(f):
    """f as an array step calls a field: on the state, returning an array.

    A field written on lists of floats is its own float form and returns a
    list, which an array step cannot take; only `array_loop` sends such a
    field, at most 64 values wide, to array steps, so the test wraps it.
    """
    return lambda t, y: np.array(f(t, y))


def _recorded_newton_flow(params, x, cfg, wrap=None):
    """_flow_and_monodromy's (end, monodromy) and the Solution behind them; integrate gets wrap(f)."""
    sols = []

    def recorded(f, *args, **kwargs):
        sols.append(integrate(f if wrap is None else wrap(f), *args, **kwargs))
        return sols[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(periodic, "integrate", recorded)
        out = periodic._flow_and_monodromy(params, np.array(x), cfg)
    assert len(sols) == 1
    return out, sols[0]


@contextlib.contextmanager
def recorded_steps():
    """Record every attempted float-loop step as (t, h, ys, k0, y_new, (k1, ..., k6), err)."""
    steps = []
    kernel_for = _integrate_module._step_kernel

    def recording(n, width):
        kernel = kernel_for(n, width)

        def step(field, t, h, ys, k0, atol, rtol):
            y_new, *ks, err = out = kernel(field, t, h, ys, k0, atol, rtol)
            steps.append((t, h, ys, k0, y_new, tuple(ks), err))
            return out

        return step

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_integrate_module, "_step_kernel", recording)
        yield steps


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


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

    @pytest.mark.parametrize("shape", [(0,), (2, 0), (0, 4), (3, 0, 0)])
    def test_empty_state_rejected(self, sim_cfg, shape):
        with pytest.raises(ValueError, match="at least one value"):
            integrate(lambda t, y: -y, 0.0, 1.0, np.zeros(shape), sim_cfg)

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
        with pytest.raises(ValueError, match="^t_eval must be a 1-D array$"):
            integrate(lambda t, y: -y, 0.0, 1.0, [1.0], sim_cfg,
                      t_eval=np.array([[0.25, 0.5]]))

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
        (end, mono), sol = _recorded_newton_flow(params, x, cfg)
        with array_loop():
            (end_ref, mono_ref), ref = _recorded_newton_flow(params, x, cfg, _on_arrays)
        assert sol.step_count > 40
        _assert_same_solution(sol, ref)
        assert np.array_equal(end, end_ref) and np.array_equal(mono, mono_ref)
        # the 20-wide dense output too, on the orbit grid; the samples leave
        # the steps, and so the end state, as they were
        f = periodic._augmented_field(params)
        ya0 = np.concatenate([x, np.eye(4).ravel()])
        grid = np.linspace(0.0, params.period, periodic.ORBIT_SAMPLES + 1)
        dense = integrate(f, 0.0, params.period, ya0, cfg, t_eval=grid)
        with array_loop():
            dense_ref = integrate(_on_arrays(f), 0.0, params.period, ya0, cfg, t_eval=grid)
        _assert_same_solution(dense, dense_ref)
        assert np.array_equal(dense.final[:4], end)

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
        # rhs: the float loop calls the model's generated field for their
        # member counts directly
        params = persistence_params()
        kernels = count_calls(monkeypatch, model_module, "_field_kernel")
        arrays = count_calls(monkeypatch, model_module, "rhs")
        classify(params, DEFAULT_INITIAL_CONDITIONS, 50.0 * params.period, sim_cfg)
        batched = len(kernels)
        poincare_map(params, DEFAULT_INITIAL_CONDITIONS[0], spectral_cfg)
        assert batched > 0
        assert kernels == [(3,)] * batched + [(1,)]
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
        # the warm start's (4,) passes and Newton's 20-wide flows, and r0's
        # one 3x3 monodromy at lambda = 1, with T, as one 10-wide run
        arrays = count_calls(monkeypatch, _integrate_module, "_array_step")
        assert main(["orbit", "--config", str(config_dir / "persistence.ini"),
                     "--out", str(tmp_path / "orbit.csv")]) == 0
        assert arrays == []
        floats = count_calls(monkeypatch, _integrate_module, "_step_kernel")
        lin = build_linearization(persistence_params())
        rho_for_lambda(lin, 1.0, spectral_cfg)
        assert floats == [(10, 10)]
        assert arrays == []

    @pytest.mark.parametrize("lam", [2.0, np.float64(2.0), 2], ids=["float", "float64", "int"])
    def test_each_lambda_is_one_float_run(self, monkeypatch, spectral_cfg, lam):
        # a number lam goes straight to integrate as one 10-wide state, its
        # monodromy with T, on float steps; none steps on arrays or goes
        # through integrate_matrix. The field binds a Python float 1/lam
        # whatever lam's type, so the steps' arithmetic stays on Python floats
        direct = count_calls(monkeypatch, reproduction, "integrate")
        fields = count_calls(monkeypatch, reproduction, "_monodromy_field")
        runs = count_calls(monkeypatch, _integrate_module, "integrate")
        floats = count_calls(monkeypatch, _integrate_module, "_step_kernel")
        arrays = count_calls(monkeypatch, _integrate_module, "_array_step")
        lin = build_linearization(persistence_params())
        radius = rho_for_lambda(lin, lam, spectral_cfg)
        assert [np.shape(args[3]) for args in direct] == [(10,)] and runs == []
        assert (floats, arrays) == ([(10, 10)], [])
        assert [type(args[1]) for args in fields] == [float]
        assert type(radius) is float and radius > 1.0  # persistence's R0 is near 65

    def test_matrix_without_float_form_takes_the_array_loop(self, monkeypatch, spectral_cfg):
        runs = count_calls(monkeypatch, _integrate_module, "integrate")
        floats = count_calls(monkeypatch, _integrate_module, "_step_kernel")
        arrays = count_calls(monkeypatch, _integrate_module, "_array_step")
        sol = integrate_matrix(lambda t: -np.eye(3), 0.0, 24.0, np.eye(3), spectral_cfg)
        assert [args[3].shape for args in runs] == [(1, 3, 3)]
        assert (len(arrays), floats) == (sol.step_count, [])

    def test_hidden_float_form_gives_the_same_solution(self, spectral_cfg):
        # perfbench's tracer hands integrate a wrapper without f.floats: the
        # float loop then calls f on arrays, which must do the same arithmetic
        params = persistence_params()
        grid = np.linspace(0.0, params.period, periodic.ORBIT_SAMPLES + 1)
        x = np.array([10.0, 1.0, 1.0, 1.0])
        for f, y0 in [(periodic._augmented_field(params), np.concatenate([x, np.eye(4).ravel()])),
                      (vector_field(params), x)]:
            sol = integrate(f, 0.0, params.period, y0, spectral_cfg, t_eval=grid)
            hidden = integrate(_hidden(f), 0.0, params.period, y0, spectral_cfg, t_eval=grid)
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
        A = combined(build_linearization(params), math.inf)
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

    @pytest.mark.parametrize("profile", ["simulation", "spectral"])
    def test_monodromy_at_one_matches_the_array_loop(self, profile):
        # r0's 3x3 monodromy at lambda = 1, with T, steps on floats, bit for
        # bit as the array loop with its sums left to right steps it
        cfg = getattr(IntegratorConfig, profile)()
        lin = build_linearization(persistence_params())
        with recorded_steps() as steps:
            rho, sol = recorded_monodromy(lin, 1.0, cfg)
        with array_loop():
            rho_ref, ref = recorded_monodromy(lin, 1.0, cfg, _on_arrays)
        assert sol.step_count == len(steps) > 20
        assert sol.final.shape == (10,)
        _assert_same_solution(sol, ref)
        assert rho == rho_ref

    def test_hidden_float_form_gives_the_same_monodromy(self, spectral_cfg):
        # perfbench's tracer hands integrate a wrapper of the monodromy's
        # field, without f.floats: the float loop then calls the field on an
        # array, and np.float64 arithmetic rounds as Python floats do
        lin = build_linearization(persistence_params())
        rho, sol = recorded_monodromy(lin, 1.0, spectral_cfg)
        hidden_rho, hidden = recorded_monodromy(lin, 1.0, spectral_cfg, _hidden)
        _assert_same_solution(sol, hidden)
        assert rho == hidden_rho

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


def _float_keys(values):
    """IEEE bit patterns of floats, with every nan as one key."""
    return ["nan" if math.isnan(v) else struct.pack("<d", v) for v in values]


def _step_outcome(step, *args):
    """A step's results as bit patterns, or the message of the NonFiniteState it raised."""
    try:
        *rows, err = step(*args)
    except NonFiniteState as exc:
        return str(exc)
    return [_float_keys(row) for row in (*rows, [err])]


def _coupled_field(a, b, raise_at):
    """y_i' = a_i y_i - b_i y_(i-1) + t on float lists; call number raise_at raises ZeroDivisionError."""
    calls = []

    def field(t, ys):
        calls.append(t)
        if len(calls) == raise_at:
            raise ZeroDivisionError
        return [ai * y - bi * ys[i - 1] + t for i, (ai, bi, y) in enumerate(zip(a, b, ys))]

    return field


@st.composite
def _kernel_inputs(draw):
    n = draw(st.integers(1, 64))
    width = draw(st.sampled_from([w for w in range(1, n + 1) if n % w == 0]))
    finite = st.floats(-1e6, 1e6)
    ys, k0 = (draw(st.lists(finite, min_size=n, max_size=n)) for _ in range(2))
    special = st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -0.0])
    for row in (ys, k0):  # now and then a non-finite or overflowing value
        if draw(st.booleans()) and draw(st.booleans()):
            row[draw(st.integers(0, n - 1))] = draw(special)
    coefficients = st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)
    return dict(n=n, width=width, ys=ys, k0=k0, a=draw(coefficients), b=draw(coefficients),
                raise_at=draw(st.sampled_from([0, 0, 0, 1, 3, 6])),
                t=draw(st.floats(-1e3, 1e3)), h=draw(st.floats(1e-8, 5.0)),
                atol=draw(st.floats(1e-15, 1e-3)), rtol=draw(st.floats(1e-15, 1e-2)))


class TestStepKernel:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(case=_kernel_inputs())
    def test_kernel_matches_the_comprehension_step(self, case):
        # the generated straight-line step gives the list-comprehension step's
        # IEEE bits (any nan for any nan) or the same NonFiniteState message
        c = case
        kernel = _integrate_module._step_kernel(c["n"], c["width"])
        args = (c["t"], c["h"], c["ys"], c["k0"], c["atol"], c["rtol"])
        got = _step_outcome(kernel, _coupled_field(c["a"], c["b"], c["raise_at"]), *args)
        want = _step_outcome(comprehension_step, _coupled_field(c["a"], c["b"], c["raise_at"]),
                             *args, c["width"])
        assert got == want

    def test_zero_division_in_a_stage_ends_in_non_finite_state(self, sim_cfg):
        # the float form raises where numpy would give inf or nan; the run then
        # stops as the array loop would, naming the step's start time
        def f(t, y):
            return -y

        def floats(t, ys):
            if t > 1.0:
                raise ZeroDivisionError
            return [-y for y in ys]

        f.floats = lambda n: floats
        with pytest.raises(NonFiniteState, match=r"^state became non-finite near t=0\.\d+"):
            integrate(f, 0.0, 2.0, np.array([1.0, 2.0]), sim_cfg)

    def test_kernels_are_built_once_per_shape(self):
        kernel = _integrate_module._step_kernel
        assert kernel(12, 4) is kernel(12, 4)
        assert kernel(12, 4) is not kernel(12, 12)


def _controller_runs():
    """TestController's runs, each pytest.param(run() -> Solution, t1, cfg)."""
    params = persistence_params()
    t_end = 52.0 * params.period
    # the cap binds on 81 of the (4,) run's 1,843 steps (52 rejected); uncapped they reach 1.2 h
    capped = IntegratorConfig(max_step=1.0)
    batch = np.array([ic.as_array() for ic in DEFAULT_INITIAL_CONDITIONS])
    grid = _uniform_grid(t_end, params.period / GRID_POINTS_PER_PERIOD)
    sim, spectral = IntegratorConfig.simulation(), IntegratorConfig.spectral()
    lin = build_linearization(params)
    return [
        pytest.param(lambda: integrate(vector_field(params), 0.0, t_end,
                                       np.array([10.0, 1.0, 1.0, 1.0]), capped),
                     t_end, capped, id="(4,)"),
        pytest.param(lambda: integrate(vector_field(params), 0.0, t_end, batch, sim, t_eval=grid),
                     t_end, sim, id="(3, 4)"),
        # rho_for_lambda's run at lambda = 1; it replaces abs_tol, which the rule does not read
        pytest.param(lambda: recorded_monodromy(lin, 1.0, spectral)[1], params.period, spectral,
                     id="(10,)"),
        # the cap of 1 on the factor after a rejection binds in none of the
        # runs above; a pulse that the step sizes have grown past binds it twice
        pytest.param(lambda: integrate(lambda t, y: np.exp(-(t - 10.0) ** 2) - 0.01 * y,
                                       0.0, 20.0, np.array([1.0]), sim),
                     20.0, sim, id="pulse"),
    ]


class TestController:
    """Every step size the loop tries, and next_step, are the step-size rule's, bit for bit.

    The rule (controlled_steps in tests/helpers.py) is the PI controller
    written with min and max and its constants spelled out, replayed on the
    recorded error norms: a change to the loop's controller that moves one
    h fails here, although both step kinds would still agree.
    """

    @pytest.mark.parametrize("run, t1, cfg", _controller_runs())
    def test_step_sizes_follow_the_rule(self, run, t1, cfg):
        with recorded_steps() as steps:
            sol = run()
        attempts, next_step = controlled_steps([err for *_, err in steps], 0.0, t1, cfg)
        assert [(t, h) for t, h, *_ in steps] == attempts
        assert sol.step_count == len(steps) and sol.next_step == next_step
        assert sol.rejected == sum(err > 1.0 for *_, err in steps)


@st.composite
def _end_state_runs(draw):
    """A linear field on a state of shape (n,), (m, n) or (m, n, n), its start and its span."""
    shape = draw(st.sampled_from([(4,), (1,), (3, 4), (2, 5), (3, 3, 3), (2, 2, 2)]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    if len(shape) == 3:
        base, wave = rng.uniform(-0.5, 0.5, size=(2,) + shape)

        def f(t, y):
            return (base + math.sin(t) * wave) @ y
    else:
        a, b = rng.uniform(-0.5, 0.5, size=(2,) + shape)

        def f(t, y):
            return a * y - b * np.roll(y, 1, axis=-1) + math.sin(t)
    y0 = rng.uniform(-2.0, 2.0, size=shape)
    rel_tol = draw(st.sampled_from([1e-4, 1e-6, 1e-9]))
    return f, y0, draw(st.floats(0.1, 5.0)), IntegratorConfig(rel_tol=rel_tol,
                                                              abs_tol=1e-3 * rel_tol)


class TestEmptyGrid:
    """An empty t_eval samples nothing and changes no bit of the end state or the tallies."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(run=_end_state_runs(), arrays=st.booleans())
    def test_empty_t_eval_matches_no_t_eval(self, run, arrays):
        f, y0, t1, cfg = run
        with array_loop() if arrays else contextlib.nullcontext():
            sol = integrate(f, 0.0, t1, y0, cfg, t_eval=())
            ref = integrate(f, 0.0, t1, y0, cfg)
        assert sol.trajectory.times.shape == (0,)
        assert sol.trajectory.states.shape == (0,) + y0.shape
        assert len(ref.trajectory) == ref.step_count - ref.rejected + 1
        assert _same_bits(sol.final, ref.final)
        assert (sol.step_count, sol.rejected, sol.next_step) == (
            ref.step_count, ref.rejected, ref.next_step)


class TestDenseOutput:
    """Every sample bitwise equal to the interpolant evaluated one sample at a time."""

    @staticmethod
    def _check(f, t_end, y0, cfg, grid):
        with recorded_steps() as steps:
            sol = integrate(f, 0.0, t_end, np.array(y0), cfg, t_eval=grid)
        expected = dense_samples_by_hand(steps, grid).reshape(sol.trajectory.states.shape)
        assert _same_bits(sol.trajectory.times, grid)
        assert _same_bits(sol.trajectory.states, expected)
        return sol, steps

    def test_validate_grid(self, sim_cfg):
        # validate's 96 samples a period over 52 periods on classify's (3, 4)
        # batch: more steps with samples than one evaluation takes at a time
        params = persistence_params()
        t_end = 52.0 * params.period
        grid = _uniform_grid(t_end, params.period / GRID_POINTS_PER_PERIOD)
        batch = [ic.as_array() for ic in DEFAULT_INITIAL_CONDITIONS]
        sol, steps = self._check(vector_field(params), t_end, batch, sim_cfg, grid)
        assert len(grid) == 52 * 96 + 1
        assert _integrate_module._DENSE_CHUNK < sol.step_count < len(grid)

    def test_sample_at_t0_reads_back_y0(self, sim_cfg):
        params = persistence_params()
        y0 = [10.0, 1.0, 1.0, -0.0]
        sol, _ = self._check(vector_field(params), params.period, y0, sim_cfg,
                             np.array([0.0, 0.5 * params.period, params.period]))
        first = sol.trajectory.states[0]
        assert first.tolist() == y0  # -0.0 == 0.0 ...
        assert not np.signbit(first[3])  # ... and -0.0 reads back as 0.0

    def test_sample_at_t1(self, spectral_cfg):
        params = persistence_params()
        sol, _ = self._check(vector_field(params), params.period, [10.0, 1.0, 1.0, 1.0],
                             spectral_cfg, np.array([params.period / 3.0, params.period]))
        assert np.allclose(sol.trajectory.states[-1], sol.final, rtol=1e-14, atol=0.0)

    def test_warm_start_pass_grid(self, spectral_cfg):
        # one sample, at t1
        params = persistence_params()
        sol, steps = self._check(vector_field(params), params.period, [10.0, 1.0, 1.0, 1.0],
                                 spectral_cfg, np.array([params.period]))
        assert len(steps) > 20

    def test_matrix_stack_on_the_array_loop(self, spectral_cfg):
        # a (3, 3, 3) stack steps on arrays; with its sums left to right it takes
        # the steps the float loop takes on the same values as (3, 9), and a
        # short evaluation chunk puts several chunk boundaries into the grid
        rng = np.random.default_rng(3)
        base, wave = rng.uniform(-0.1, 0.1, size=(2, 3, 3, 3))

        def field(t, m):
            return (base + math.sin(0.3 * t) * wave) @ m.reshape(3, 3, 3)

        y0 = np.broadcast_to(np.eye(3), (3, 3, 3))
        grid = np.linspace(0.0, 24.0, 97)
        with recorded_steps() as steps:
            integrate(lambda t, y: field(t, y).reshape(3, 9), 0.0, 24.0, y0.reshape(3, 9),
                      spectral_cfg, t_eval=grid)
        with array_loop(), pytest.MonkeyPatch.context() as mp:
            mp.setattr(_integrate_module, "_DENSE_CHUNK", 5)
            calls = count_calls(mp, _integrate_module, "_array_step")
            sol = integrate(field, 0.0, 24.0, y0, spectral_cfg, t_eval=grid)
        assert {args[4].shape for args in calls} == {(27,)}  # the flat state, after width
        assert sol.step_count == len(steps) == len(calls) > 20
        expected = dense_samples_by_hand(steps, grid).reshape(sol.trajectory.states.shape)
        assert _same_bits(sol.trajectory.states, expected)
