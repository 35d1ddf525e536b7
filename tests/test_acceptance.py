"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints one CRITERION line on success; a failed assertion is the
fail line. Run with `pytest -v -s tests/test_acceptance.py` to see both.
"""

import json
import math
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from perivir import (
    IntegratorConfig,
    Regime,
    State,
    Trajectory,
    classify,
    find_periodic_orbit,
    integrate,
    integrate_matrix,
    monitor_invariants,
    r0_autonomous,
    r0_periodic,
    virus_free_closed_form,
    virus_free_numeric,
    warm_start_guess,
)
from perivir.analysis import DEFAULT_INITIAL_CONDITIONS
from perivir.cli import main
from perivir.model import vector_field
from perivir.periodic import _healthy_field

from .helpers import (
    closed_form_r0,
    expm_reference,
    baseline_params,
    persistence_params,
    random_autonomous_params,
    random_periodic_params,
    rescaled_extinction_params,
)

SIM = IntegratorConfig.simulation()
SPECTRAL = IntegratorConfig.spectral()


def test_criterion_01_autonomous_r0_equivalence():
    # 50 randomized zero-amplitude sets: bisection route vs closed form
    rng = np.random.default_rng(20240101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        params = random_autonomous_params(rng)
        closed = closed_form_r0(params)
        value = r0_periodic(params).value
        worst = max(worst, abs(value - closed) / closed)
        assert abs(value - closed) / closed < 1e-6
    elapsed = time.perf_counter() - start
    print(f"\nCRITERION 1 PASS: 50 autonomous sets, worst rel dev {worst:.2e}, "
          f"{elapsed:.1f}s")


def test_criterion_02_hand_value_check():
    closed = r0_autonomous(mu=0.1, beta=0.3, d=0.01, k=0.2, delta=0.09,
                           p=0.5, c=0.18, c1=0.1)
    assert closed == pytest.approx(0.003 / 7.56e-5, rel=1e-12)
    assert closed == pytest.approx(39.6825, abs=5e-5)
    periodic = r0_periodic(baseline_params(amps=0.0)).value
    assert abs(periodic - closed) / closed < 1e-6
    print(f"\nCRITERION 2 PASS: closed form {closed:.6f}, "
          f"bisection {periodic:.6f}")


def test_criterion_03_threshold_sign_equivalence():
    # sign(R0 - 1) == sign(rho(Phi_{F-G}(P)) - 1) across randomized periodic sets
    rng = np.random.default_rng(20240103)
    checked = 0
    agreements = 0
    while checked < 100:
        params = random_periodic_params(rng)
        res = r0_periodic(params)
        if abs(res.value - 1.0) < 1e-7 or abs(res.rho_at_one - 1.0) < 1e-7:
            continue  # boundary case, excluded by the criterion
        checked += 1
        if (res.value > 1.0) == (res.rho_at_one > 1.0):
            agreements += 1
    assert agreements == checked == 100
    print(f"\nCRITERION 3 PASS: sign agreement {agreements}/{checked}")


def test_criterion_04_virus_free_solution():
    params = baseline_params()
    closed = virus_free_closed_form(params)
    numeric = virus_free_numeric(params, SPECTRAL)
    grid = np.linspace(0.0, params.period, 97)
    rel = np.abs(closed.value(grid) - numeric.value(grid)) / np.abs(numeric.value(grid))
    assert np.max(rel) < 1e-7

    _, back = integrate(_healthy_field(params), 0.0, params.period,
                        [numeric.t_star_initial], SPECTRAL)
    ret = abs(back[0] - numeric.t_star_initial) / numeric.t_star_initial
    assert ret < 1e-9
    print(f"\nCRITERION 4 PASS: 97-point rel dev {np.max(rel):.2e}, "
          f"period return {ret:.2e}")


def test_criterion_05_monodromy_matrix_exponential_oracle():
    rng = np.random.default_rng(20240105)
    worst = 0.0
    for _ in range(20):
        A = rng.uniform(-0.08, 0.08, size=(3, 3))
        got = integrate_matrix(lambda t: A, 0.0, 24.0, np.eye(3), SPECTRAL).end_matrix
        dev = float(np.max(np.abs(got - expm_reference(24.0 * A))))
        worst = max(worst, dev)
        assert dev < 1e-8
    print(f"\nCRITERION 5 PASS: 20 random matrices, worst entrywise dev {worst:.2e}")


def test_criterion_06_extinction_regime():
    params = rescaled_extinction_params()
    report = classify(params, DEFAULT_INITIAL_CONDITIONS, 5000.0, SIM)
    assert report.r0.value < 1.0
    assert report.regime == Regime.EXTINCTION
    for ev in report.evidence:
        assert ev.final_infection_max < 1e-8
        assert ev.t_star_sup_distance < 1e-4

    # the unrescaled baseline constants are run and reported without any
    # expected regime attached: their computed R0 speaks for itself
    literal = r0_periodic(baseline_params())
    lit_report = classify(baseline_params(), DEFAULT_INITIAL_CONDITIONS, 1200.0, SIM,
                          r0_result=literal)
    print(f"\nCRITERION 6 PASS: rescaled set R0 {report.r0.value:.4f} -> Extinction; "
          f"unrescaled baseline constants report R0 {literal.value:.4f}, "
          f"observed regime {lit_report.regime}")


def test_criterion_07_persistence_regime_and_orbit():
    params = persistence_params()
    report = classify(params, DEFAULT_INITIAL_CONDITIONS, 4800.0, SIM)
    assert report.regime == Regime.PERSISTENCE
    assert report.r0.value > 1.0
    assert report.persistence_eta > 0.0
    assert report.eta_relative_variation < 0.05

    guess = warm_start_guess(params, State(10.0, 1.0, 1.0, 1.0), 2000.0, SPECTRAL)
    orbit = find_periodic_orbit(params, guess, SPECTRAL, newton_tol=1e-10)
    assert orbit.newton_residual < 1e-10
    assert np.all(np.abs(orbit.floquet_multipliers) < 1.0)
    assert np.all(orbit.initial_state.as_array() > 0.0)
    print(f"\nCRITERION 7 PASS: R0 {report.r0.value:.3f}, eta {report.persistence_eta:.4f} "
          f"(variation {report.eta_relative_variation:.2e}), orbit residual "
          f"{orbit.newton_residual:.2e}, max |multiplier| "
          f"{np.max(np.abs(orbit.floquet_multipliers)):.4f}")


def test_criterion_08_positivity_and_boundedness():
    # 1000 random positive initial conditions, 50 periods each, default
    # tolerances. Batches of 50 share one integration (the product system);
    # a handful are re-run individually as a cross-check.
    params = persistence_params()
    rng = np.random.default_rng(20240108)
    horizon = 50.0 * params.period
    grid = np.linspace(0.0, horizon, 401)
    f = vector_field(params)

    violations = 0
    unbounded = 0
    worst = 0.0
    for _ in range(20):
        batch = 10.0 ** rng.uniform(-2.0, math.log10(20.0), size=(50, 4))
        traj, _ = integrate(f, 0.0, horizon, batch, SIM, t_eval=grid)
        for j in range(50):
            single = Trajectory(grid, traj.states[:, j, :])
            log = monitor_invariants(single, params, abs_tol=SIM.abs_tol)
            violations += log.positivity_violations
            worst = min(worst, log.worst_undershoot)
            unbounded += 0 if log.bounded else 1
    assert violations == 0
    assert unbounded == 0

    from perivir import simulate
    for row in 10.0 ** rng.uniform(-2.0, math.log10(20.0), size=(10, 4)):
        traj = simulate(params, State.from_array(row), horizon, SIM,
                        grid_step=params.period / 8.0)
        log = monitor_invariants(traj, params, abs_tol=SIM.abs_tol)
        assert log.positivity_violations == 0
        assert log.bounded
    print(f"\nCRITERION 8 PASS: 1000 ICs, 0 violations (worst undershoot {worst:.2e}), "
          f"W bound non-growing for all")


def test_criterion_09_figure_reproduction_artifacts(config_dir, tmp_path):
    baseline = str(config_dir / "baseline.ini")
    persistence = str(config_dir / "persistence.ini")

    code = main(["simulate", "--config", baseline, "--t-end", "240",
                 "--out", str(tmp_path / "baseline.csv"),
                 "--svg", str(tmp_path / "baseline.svg"), "--grid-step", "0.25"])
    assert code == 0
    code = main(["simulate", "--config", persistence, "--t-end", "240",
                 "--out", str(tmp_path / "persistence.csv"),
                 "--svg", str(tmp_path / "persistence.svg"), "--grid-step", "0.25"])
    assert code == 0
    for i in range(3):
        for stem in ("baseline", "persistence"):
            path = tmp_path / f"{stem}_ic{i}.csv"
            lines = path.read_text().splitlines()
            assert lines[0] == "t,T,E,I,V"
            assert len(lines) == 962  # header + 961 grid points over 240 h

    code = main(["orbit", "--config", persistence, "--out", str(tmp_path / "orbit.csv"),
                 "--svg", str(tmp_path / "phase")])
    assert code == 0
    rows = [list(map(float, line.split(",")))
            for line in (tmp_path / "orbit.csv").read_text().splitlines()[1:]]
    first, last = np.array(rows[0][1:]), np.array(rows[-1][1:])
    assert np.max(np.abs(last - first)) < 1e-6  # orbit closes over one period

    svgs = ["baseline.svg", "persistence.svg", "phase_iv.svg", "phase_tv.svg", "phase_ev.svg"]
    for name in svgs:
        tree = ET.parse(tmp_path / name)
        body = ET.tostring(tree.getroot(), encoding="unicode")
        assert "polyline" in body
    print(f"\nCRITERION 9 PASS: time-series CSVs/SVGs and the three phase planes "
          f"written; orbit closure {np.max(np.abs(last - first)):.2e}")


def test_criterion_10_determinism(config_dir, tmp_path, capsys):
    persistence = str(config_dir / "persistence.ini")

    def run_all(tag):
        assert main(["simulate", "--config", persistence, "--t-end", "120",
                     "--out", str(tmp_path / f"sim_{tag}.csv"),
                     "--grid-step", "0.5"]) == 0
        assert main(["orbit", "--config", persistence,
                     "--out", str(tmp_path / f"orbit_{tag}.csv")]) == 0
        assert main(["r0", "--config", persistence]) == 0
        return capsys.readouterr().out.strip().splitlines()[-1]

    json_a = run_all("a")
    json_b = run_all("b")
    assert json.loads(json_a) == json.loads(json_b)
    assert json_a == json_b
    for i in range(3):
        a = (tmp_path / f"sim_a_ic{i}.csv").read_bytes()
        b = (tmp_path / f"sim_b_ic{i}.csv").read_bytes()
        assert a == b
    assert ((tmp_path / "orbit_a.csv").read_bytes()
            == (tmp_path / "orbit_b.csv").read_bytes())
    print("\nCRITERION 10 PASS: byte-identical CSVs and R0 summaries across reruns")
