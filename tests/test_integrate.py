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
from perivir.analysis import DEFAULT_INITIAL_CONDITIONS
from perivir.model import vector_field
from perivir.reproduction import build_linearization

from .helpers import expm_reference, baseline_params, persistence_params


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
    ])
    def test_invalid_config(self, kwargs):
        with pytest.raises(ValueError):
            IntegratorConfig(**kwargs)


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
        traj, _ = integrate(lambda t, y: -0.01 * y, 0.0, 10.0, [1.0], cfg)
        assert np.max(np.diff(traj.times)) <= 0.125 + 1e-12


class TestBatchIntegration:
    def test_shapes_follow_y0(self, sim_cfg):
        y0 = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        traj, yf = integrate(lambda t, y: -y, 0.0, 1.0, y0, sim_cfg, t_eval=[0.0, 0.5, 1.0])
        assert traj.states.shape == (3, 3, 2)
        assert yf.shape == (3, 2)
        assert np.allclose(yf, math.exp(-1.0) * y0, rtol=1e-5)
        with pytest.raises(ValueError):
            integrate(lambda t, y: -y, 0.0, 1.0, np.ones((2, 2, 2)), sim_cfg)

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

    def test_step_tallies_reported(self, sim_cfg):
        calls = 0

        def A(t):
            nonlocal calls
            calls += 1
            return np.diag([-0.1, -0.2])

        sol = integrate_matrix(A, 0.0, 10.0, np.eye(2), sim_cfg)
        # one field evaluation at t0, then six stages per attempted step (FSAL)
        assert calls == 1 + 6 * sol.step_count
        assert sol.step_count > sol.rejected >= 0
