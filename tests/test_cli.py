import json
import math
import operator
import os
import pathlib
import re
import subprocess
import sys
import typing
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perivir import (
    BracketFailure,
    ConvergedToBoundary,
    DegenerateDecay,
    IntegratorConfig,
    ModelParameters,
    NewtonDiverged,
    NonFiniteState,
    NumericalFailure,
    SinusoidalCoefficient,
    State,
    StepLimitExceeded,
    analysis,
    cli,
    integrate,
    periodic,
    r0_periodic,
    svgplot,
)
from perivir.cli import (
    ParseError,
    RunConfig,
    ValidationError,
    load_config,
    main,
    parse_config,
)
from perivir.model import vector_field
from perivir.svgplot import Panel, Series

from .helpers import closed_form_r0, count_calls

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

GOOD_CONFIG = f"""
[mu]
mean = 0.1
amplitude = 0.05

[beta]
mean = 0.3
amplitude = 0.1

[d]
mean = 0.01
amplitude = 0.005

[scalars]
angular_frequency = {2 * math.pi / 24!r}
k = 0.2
delta = 0.1
p = 0.5
c = 0.1
c1 = 0.1
c2 = 0.1

[integrator]
rel_tol = 1e-9
abs_tol = 1e-12

[run]
horizon = 4800
initial_conditions = 10,1,1,1; 5,2,0.5,3; 20,0.1,0.1,0.1
"""


def _good_run_config() -> RunConfig:
    """The run configuration that GOOD_CONFIG and the README's example spell out."""
    coeff = SinusoidalCoefficient
    return RunConfig(
        params=ModelParameters(angular_frequency=2 * math.pi / 24, mu=coeff(0.1, 0.05),
                               beta=coeff(0.3, 0.1), d=coeff(0.01, 0.005), k=0.2, delta=0.1,
                               p=0.5, c=0.1, c1=0.1, c2=0.1),
        integrator=IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12),
        initial_conditions=(State(10.0, 1.0, 1.0, 1.0), State(5.0, 2.0, 0.5, 3.0),
                            State(20.0, 0.1, 0.1, 0.1)),
        horizon=4800.0)


class TestParseConfig:
    def test_table_constants_parsed_exactly(self):
        cfg = parse_config(GOOD_CONFIG)
        p = cfg.params
        assert (p.mu.mean, p.mu.amplitude) == (0.1, 0.05)
        assert (p.beta.mean, p.beta.amplitude) == (0.3, 0.1)
        assert (p.d.mean, p.d.amplitude) == (0.01, 0.005)
        assert p.angular_frequency == 2 * math.pi / 24
        assert (p.k, p.delta, p.p, p.c, p.c1, p.c2) == (0.2, 0.1, 0.5, 0.1, 0.1, 0.1)
        assert cfg.horizon == 4800.0
        assert len(cfg.initial_conditions) == 3
        assert cfg.integrator.rel_tol == 1e-9

    def test_parses_to_explicit_run_config(self):
        assert parse_config(GOOD_CONFIG) == _good_run_config()

    def test_readme_config_block_parses_as_documented(self):
        # the "Config format" block, verbatim, inline "#" notes included
        readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = re.search(r"### Config format\n\n```\n(.*?)```", readme, re.S).group(1)
        assert "   # 2*pi/24 -> 24-hour period" in block
        assert parse_config(block) == _good_run_config()

    def test_amplitude_at_mean_names_key(self):
        bad = GOOD_CONFIG.replace("amplitude = 0.005", "amplitude = 0.02")
        with pytest.raises(ValidationError, match="d.amplitude"):
            parse_config(bad)

    @pytest.mark.parametrize("old, new, key", [
        (f"angular_frequency = {2 * math.pi / 24!r}", "angular_frequency = 0",
         "scalars.angular_frequency"),
        ("mean = 0.3", "mean = -0.3", "beta.mean"),
        ("amplitude = 0.05", "amplitude = -0.05", "mu.amplitude"),
        ("k = 0.2", "k = 0", "scalars.k"),
        ("c2 = 0.1", "c2 = -0.1", "scalars.c2"),
    ])
    def test_domain_rejection_names_key(self, old, new, key):
        assert old in GOOD_CONFIG
        with pytest.raises(ValidationError, match=key):
            parse_config(GOOD_CONFIG.replace(old, new))

    def test_empty_document_rejected(self):
        with pytest.raises((ParseError, ValidationError)):
            parse_config("")

    def test_syntax_error_reported_as_parse_error(self):
        with pytest.raises(ParseError):
            parse_config("not a config\n[mu")

    def test_missing_key_named(self):
        bad = GOOD_CONFIG.replace("k = 0.2\n", "")
        with pytest.raises(ValidationError, match="scalars.k"):
            parse_config(bad)

    def test_bad_number_named(self):
        bad = GOOD_CONFIG.replace("delta = 0.1", "delta = fast")
        with pytest.raises(ValidationError, match="scalars.delta"):
            parse_config(bad)

    def test_bad_initial_condition_named(self):
        bad = GOOD_CONFIG.replace("5,2,0.5,3", "5,2,0.5")
        with pytest.raises(ValidationError, match="initial_conditions"):
            parse_config(bad)

    def test_negative_initial_condition_named(self):
        bad = GOOD_CONFIG.replace("10,1,1,1", "-1,1,1,1")
        with pytest.raises(ValidationError, match=r"^run\.initial_conditions\[0\]: t_cells "):
            parse_config(bad)

    def test_shipped_configs_parse(self, config_dir):
        for name in ("baseline.ini", "persistence.ini", "extinction.ini"):
            cfg = load_config(str(config_dir / name))
            assert isinstance(cfg, RunConfig)
            assert len(cfg.initial_conditions) == 3


def _growing_bound_config() -> str:
    """GOOD_CONFIG from a near-empty start, d relaxing over 1000 h, validated for 120 h."""
    return (GOOD_CONFIG
            .replace("horizon = 4800", "horizon = 120")
            .replace("mean = 0.01", "mean = 0.001")        # d: 1000 h relaxation
            .replace("amplitude = 0.005", "amplitude = 0.0005")
            .replace("mean = 0.3", "mean = 0.001")         # beta: no ignition
            .replace("amplitude = 0.1\n", "amplitude = 0.0001\n")
            .replace("initial_conditions = 10,1,1,1; 5,2,0.5,3; 20,0.1,0.1,0.1",
                     "initial_conditions = 0.01,0.01,0.01,0.01"))


def _scaled_beta_config(config_dir, tmp_path, r0: float) -> pathlib.Path:
    """persistence.ini with beta's mean and amplitude scaled so that R0 = r0.

    R0 is linear in beta, so one scale factor moves it to any target.
    """
    shipped = config_dir / "persistence.ini"
    scale = r0 / r0_periodic(load_config(str(shipped)).params).value
    path = tmp_path / f"r0_{r0}.ini"
    path.write_text(shipped.read_text().replace(
        "mean = 0.3\namplitude = 0.1",
        f"mean = {0.3 * scale!r}\namplitude = {0.1 * scale!r}"))
    assert r0_periodic(load_config(str(path)).params).value == pytest.approx(r0, rel=1e-7)
    return path


class TestSchemaFollowsModelParameters:
    """The config keys and the sweep names are ModelParameters' fields."""

    HINTS = typing.get_type_hints(ModelParameters)
    COEFFS = tuple(n for n, t in HINTS.items() if t is SinusoidalCoefficient)
    FLOATS = tuple(n for n, t in HINTS.items() if t is float)

    def test_scalars_are_the_float_fields(self):
        # the one forcing frequency of mu, beta and d comes first, as in the shipped configs
        assert cli._SECTION_KEYS["scalars"] == self.FLOATS
        assert self.FLOATS == ("angular_frequency", "k", "delta", "p", "c", "c1", "c2")

    def test_coefficient_sections_are_the_coefficient_fields(self):
        sections = {s: keys for s, keys in cli._SECTION_KEYS.items()
                    if s not in ("scalars", "integrator", "run")}
        assert self.COEFFS == ("mu", "beta", "d")
        assert sections == {c: ("mean", "amplitude") for c in self.COEFFS}

    def test_sweep_takes_exactly_the_float_and_dotted_names(self):
        base = _good_run_config().params
        names = self.FLOATS + tuple(f"{c}.{k}" for c in self.COEFFS
                                    for k in ("mean", "amplitude"))
        for name in names:
            get = operator.attrgetter(name)
            assert get(analysis._param_setter(name)(base, 1.5 * get(base))) == 1.5 * get(base)
        for name in ("mu.angular_frequency", "mu", "k.mean"):
            with pytest.raises(ValueError, match="unknown sweep parameter"):
                analysis._param_setter(name)


# bounded so that a constant x series keeps x_lo + 1.0 > x_lo, a nonzero width to divide by
_FINITE = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False)


@st.composite
def _series(draw):
    """x and y of one length: random, constant, negative, one-point and wide-range series."""
    n = draw(st.integers(min_value=1, max_value=40))
    values = st.one_of(
        st.lists(_FINITE, min_size=n, max_size=n),
        _FINITE.map(lambda v: [v] * n),
        st.lists(st.floats(min_value=-1e6, max_value=-1e-6), min_size=n, max_size=n),
        st.lists(st.sampled_from([0.0, 5e-324, 1e-300, -1e-30, 1.0, 1e12]), min_size=n,
                 max_size=n))
    return draw(values), draw(values)


def _points_per_point(series, x0, y0):
    """Each series' polyline points by the per-point formula _fmt(tx(float(a))), float by float."""
    fmt = svgplot._fmt
    xs = [s for s in series if len(s.x)]
    x_lo = min(float(np.min(s.x)) for s in xs)
    x_hi = max(float(np.max(s.x)) for s in xs)
    y_lo = min(float(np.min(s.y)) for s in xs)
    y_hi = max(float(np.max(s.y)) for s in xs)
    pad = max(1.0, abs(y_lo)) * 1e-3 if y_hi <= y_lo else 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    px0, py0 = x0 + svgplot._MARGIN_L, y0 + svgplot._MARGIN_T
    pw = svgplot._PANEL_W - svgplot._MARGIN_L - svgplot._MARGIN_R
    ph = svgplot._PANEL_H - svgplot._MARGIN_T - svgplot._MARGIN_B

    def tx(v):
        return px0 + (v - x_lo) / (x_hi - x_lo) * pw

    def ty(v):
        return py0 + ph - (v - y_lo) / (y_hi - y_lo) * ph

    return [" ".join(f"{fmt(tx(float(a)))},{fmt(ty(float(b)))}" for a, b in zip(s.x, s.y))
            for s in series]


def _csv_per_value(header, rows) -> str:
    """The CSV text by the per-value rule: numbers but bools as repr(float(v)), else str(v)."""
    lines = [",".join(header)]
    lines += [",".join(repr(float(v)) if isinstance(v, (int, float, np.floating))
                       and not isinstance(v, bool) else str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


class TestOutputBytes:
    """The bulk CSV and SVG writers give the bytes of the per-value formulas they replace."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(_series(), min_size=1, max_size=3),
           st.sampled_from([(0.0, 0.0), (420.0, 300.0)]), st.booleans())
    def test_svg_points_match_the_per_point_formula(self, pairs, origin, every_bit):
        series = tuple(Series(np.array(x), np.array(y)) for x, y in pairs)
        panel = Panel(title="t", x_label="x", y_label="y", series=series)
        with pytest.MonkeyPatch.context() as mp:
            if every_bit:  # repr for .6g on both sides: tx and ty must agree to the bit
                mp.setattr(svgplot, "_fmt", repr)
                mp.setattr(svgplot, "_point", "{!r},{!r}".format)
            got = [re.fullmatch(r'<polyline points="(.*)" fill="none" .*', line).group(1)
                   for line in svgplot._panel_svg(panel, *origin)
                   if line.startswith("<polyline")]
            assert got == _points_per_point(series, *origin)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(st.lists(st.one_of(
        st.floats(), st.floats().map(np.float64), st.integers(), st.booleans(),
        st.integers(min_value=-2 ** 63, max_value=2 ** 63 - 1).map(np.int64),
        st.text(st.characters(blacklist_categories=("Cs",)), max_size=5)),
        max_size=6), max_size=8))
    def test_csv_rows_match_the_per_value_rule(self, tmp_path_factory, rows):
        path = tmp_path_factory.getbasetemp() / "bytes.csv"
        cli._write_csv(str(path), ("a", "b"), rows)
        with open(path, encoding="utf-8", newline="") as fh:
            text = fh.read()
        assert text == _csv_per_value(("a", "b"), rows)
        assert "np.float64(" not in text

    def test_csv_rows_of_python_floats_from_arrays(self, tmp_path):
        # orbit and simulate hand over np.column_stack(...).tolist(): Python floats
        times, states = np.linspace(0.0, 24.0, 5), np.random.default_rng(3).random((5, 4))
        rows = np.column_stack((times, states)).tolist()
        assert all(type(v) is float for row in rows for v in row)
        cli._write_csv(str(tmp_path / "o.csv"), ("t", "T", "E", "I", "V"), rows)
        assert (tmp_path / "o.csv").read_text() == _csv_per_value(
            ("t", "T", "E", "I", "V"), zip(times, *states.T))


class TestTicks:
    """Axis ticks on ranges as narrow as one ulp: a step under half an ulp moves no tick."""

    @pytest.mark.parametrize("lo", [0.1, 1.0, 4.34, 10.0, 1e6, -3.0, 1e-300, 1e300])
    @pytest.mark.parametrize("ulps", [1, 2, 3])
    def test_ticks_on_a_range_of_a_few_ulps(self, lo, ulps):
        hi = lo
        for _ in range(ulps):
            hi = math.nextafter(hi, math.inf)
        ticks = svgplot._nice_ticks(lo, hi)
        assert 1 <= len(ticks) <= 2 * svgplot._TICK_TARGET
        assert ticks == sorted(ticks)
        slack = 4.0 * max(math.ulp(lo), math.ulp(hi))
        assert lo - slack <= ticks[0] and ticks[-1] <= hi + slack

    @pytest.mark.parametrize("lo, hi", [(math.nan, 1.0), (0.0, math.inf)])
    def test_ticks_on_a_non_finite_range(self, lo, hi):
        assert svgplot._nice_ticks(lo, hi) == [0.0]

    @pytest.mark.parametrize("lo", [0.0, 3.0, -250.0])
    def test_ticks_on_an_empty_range(self, lo):
        width = 1e-3 * max(1.0, abs(lo))  # hi == lo widens the range to this above lo
        ticks = svgplot._nice_ticks(lo, lo)
        assert 1 <= len(ticks) <= 2 * svgplot._TICK_TARGET and ticks == sorted(ticks)
        assert lo - math.ulp(lo) <= ticks[0] and ticks[-1] <= lo + 1.25 * width

    def test_panel_of_empty_series_takes_the_unit_square(self):
        # no point gives a range, so the axes are those of series on [0, 1] x [0, 1]
        def axes(*series):
            panel = Panel(title="t", x_label="x", y_label="y", series=series)
            return [line for line in svgplot._panel_svg(panel, 0.0, 0.0)
                    if not line.startswith("<polyline")]

        empty = Series(np.array([]), np.array([]))
        assert axes(empty, empty) == axes(Series(np.array([0.0, 1.0]), np.array([0.0, 1.0])))

    def test_panels_of_series_an_ulp_wide(self):
        one_up = math.nextafter(1.0, 2.0)
        narrow = Series(np.array([1.0, one_up]), np.array([1.0, one_up]))
        doc = svgplot.render_panels([Panel(title="t", x_label="x", y_label="y",
                                           series=(narrow,))])
        assert doc.count("<polyline") == 1


class TestCliDispatch:
    def test_simulate_writes_csv_and_svg(self, config_dir, tmp_path):
        out = tmp_path / "run.csv"
        svg = tmp_path / "run.svg"
        code = main(["simulate", "--config", str(config_dir / "persistence.ini"),
                     "--t-end", "48", "--out", str(out), "--svg", str(svg),
                     "--grid-step", "0.5"])
        assert code == 0
        for i in range(3):
            path = tmp_path / f"run_ic{i}.csv"
            text = path.read_text()
            lines = text.splitlines()
            assert lines[0] == "t,T,E,I,V"
            assert len(lines) == 98  # header + 97 grid points
            assert "\r" not in text
        ET.parse(svg)  # well-formed XML

    def test_r0_prints_machine_readable_summary(self, config_dir, capsys):
        code = main(["r0", "--config", str(config_dir / "extinction.ini")])
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["r0"] == pytest.approx(0.3947, rel=1e-3)
        assert payload["bracket"][0] <= payload["r0"] <= payload["bracket"][1]
        assert payload["method"] == "periodic-monodromy"

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_r0_non_finite_tol_exits_2(self, config_dir, capsys, tol):
        code = main(["r0", "--config", str(config_dir / "persistence.ini"), "--tol", tol])
        assert code == 2
        captured = capsys.readouterr()
        assert "config-error: tol must be finite and positive" in captured.err
        assert captured.out == ""

    def test_missing_config_exits_2(self, capsys):
        assert main(["r0", "--config", "/nonexistent.ini"]) == 2
        assert "config-error" in capsys.readouterr().err

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text(GOOD_CONFIG.replace("mean = 0.01", "mean = -0.01"))
        assert main(["r0", "--config", str(bad)]) == 2
        assert "config-error" in capsys.readouterr().err

    @pytest.mark.parametrize("command, extra", [
        ("orbit", ["--out", "orbit.csv"]),
        ("simulate", ["--t-end", "24", "--out", "run.csv"]),
        ("validate", []),
    ])
    def test_no_initial_conditions_exits_2(self, tmp_path, capsys, command, extra):
        path = tmp_path / "no_ics.ini"
        path.write_text(GOOD_CONFIG.replace(
            "initial_conditions = 10,1,1,1; 5,2,0.5,3; 20,0.1,0.1,0.1", ""))
        extra = [str(tmp_path / a) if a.endswith(".csv") else a for a in extra]
        assert main([command, "--config", str(path)] + extra) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"config-error: run.initial_conditions: need at least one for {command}\n")
        assert captured.out == ""

    @pytest.mark.parametrize("old, new, message", [
        ("rel_tol = 1e-9", "rel_tl = 1e-9", "integrator.rel_tl: unknown key"),
        ("[integrator]", "[integrater]", "unknown section [integrater]"),
        ("k = 0.2", "k = 0.2\nkappa = 0.2", "scalars.kappa: unknown key"),
    ], ids=["misspelt-key", "misspelt-section", "extra-scalar"])
    def test_unread_config_key_or_section_exits_2(self, tmp_path, capsys, old, new, message):
        path = tmp_path / "typo.ini"
        path.write_text(GOOD_CONFIG.replace(old, new, 1))
        assert main(["r0", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config-error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("field, value", [
        ("rel_tol", "nan"), ("abs_tol", "nan"), ("initial_step", "nan"),
        ("max_step", "nan"), ("max_steps", "inf"), ("max_steps", "2.7"),
    ])
    def test_non_finite_integrator_setting_exits_2(self, tmp_path, capsys, field, value):
        text = re.sub(rf"^{field} = .*\n", "", GOOD_CONFIG, flags=re.M)
        path = tmp_path / "bad.ini"
        path.write_text(text.replace("[integrator]\n", f"[integrator]\n{field} = {value}\n"))
        assert main(["r0", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config-error: integrator: ")
        assert captured.err.count("\n") == 1 and captured.out == ""

    @pytest.mark.parametrize("horizon, command, extra", [
        ("inf", "validate", []),
        ("4800", "orbit", ["--transient", "inf", "--out", "orbit.csv"]),
        ("4800", "simulate", ["--t-end", "inf", "--grid-step", "1", "--out", "run.csv"]),
        ("4800", "simulate", ["--t-end", "inf", "--out", "run.csv"]),
    ])
    def test_non_finite_horizon_exits_2(self, tmp_path, capsys, horizon, command, extra):
        path = tmp_path / "horizon.ini"
        path.write_text(GOOD_CONFIG.replace("horizon = 4800", f"horizon = {horizon}"))
        extra = [str(tmp_path / a) if a.endswith(".csv") else a for a in extra]
        assert main([command, "--config", str(path)] + extra) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config-error: ")
        assert captured.err.count("\n") == 1 and captured.out == ""

    @pytest.mark.parametrize("newton_tol", ["inf", "nan", "-1"])
    def test_orbit_bad_newton_tol_exits_2(self, config_dir, tmp_path, capsys, monkeypatch,
                                          newton_tol):
        # rejected before the warm start integrates the transient
        warm_starts = count_calls(monkeypatch, cli, "warm_start_guess")
        out = tmp_path / "orbit.csv"
        code = main(["orbit", "--config", str(config_dir / "persistence.ini"),
                     "--transient", "240", "--newton-tol", newton_tol, "--out", str(out)])
        assert code == 2
        assert warm_starts == []
        captured = capsys.readouterr()
        assert captured.err == "config-error: newton_tol must be finite and nonnegative\n"
        assert captured.out == "" and not out.exists()

    def test_orbit_from_the_virus_free_face_exits_2(self, tmp_path, capsys, monkeypatch):
        # rejected before any warm-start pass of the 20,000-period transient
        path = tmp_path / "face.ini"
        path.write_text(GOOD_CONFIG.replace("10,1,1,1; 5,2,0.5,3; 20,0.1,0.1,0.1", "10,0,0,0"))
        passes = count_calls(monkeypatch, periodic, "_period_pass")
        out = tmp_path / "orbit.csv"
        code = main(["orbit", "--config", str(path), "--transient", "480000",
                     "--out", str(out)])
        assert code == 2
        assert passes == []
        captured = capsys.readouterr()
        assert captured.err == (
            "config-error: ic lies on the invariant virus-free face E = I = V = 0\n")
        assert captured.out == "" and not out.exists()

    def test_orbit_in_extinction_regime_exits_3(self, config_dir, tmp_path, capsys):
        # no interior orbit exists below threshold; Newton collapses to the
        # virus-free solution and the command reports a numerical failure
        code = main(["orbit", "--config", str(config_dir / "extinction.ini"),
                     "--transient", "480", "--out", str(tmp_path / "orbit.csv")])
        assert code == 3
        assert "numerical-failure" in capsys.readouterr().err

    @pytest.mark.parametrize("transient", [None, "3000", "4800"], ids=["default", "3000", "4800"])
    def test_orbit_below_threshold_exits_3_at_any_transient(self, config_dir, tmp_path, capsys,
                                                             transient):
        # below threshold the virus-free orbit attracts every solution, so a
        # warm start whose E, I and V settle within abs_tol of zero is that
        # outcome: a numerical verdict, not a config error. Every budget runs
        # the same passes up to the stop, so the message is one
        out = tmp_path / "orbit.csv"
        extra = [] if transient is None else ["--transient", transient]
        code = main(["orbit", "--config", str(config_dir / "extinction.ini"),
                     "--out", str(out)] + extra)
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err == ("numerical-failure: warm start settled on the virus-free orbit: "
                                "E, I and V stayed within abs_tol 1e-09 of zero for passes "
                                "24-28\n")
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("r0", [0.999, 0.9999])
    def test_orbit_just_below_threshold_exits_3(self, config_dir, tmp_path, capsys, r0):
        # Newton closes on the virus-free orbit within newton_tol, with E
        # about 3.5e-9 but inside the next Newton step's size (9e-8): no
        # interior orbit can be told from it
        path = _scaled_beta_config(config_dir, tmp_path, r0)
        out = tmp_path / "orbit.csv"
        assert main(["orbit", "--config", str(path), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "numerical-failure: fixed point has E, I or V within its Newton error bound ")
        assert captured.err.count("\n") == 1
        assert captured.out == "" and not out.exists()

    def test_orbit_from_below_abs_tol_exits_3_unresolved(self, config_dir, tmp_path, capsys):
        # above threshold, but a start at E = I = V = 1e-12 grows below the
        # transient's abs_tol 1e-9 for its first passes: the message names
        # that, not the virus-free orbit that extinction.ini's decay settles on
        path = _scaled_beta_config(config_dir, tmp_path, 1.29)
        path.write_text(path.read_text().replace(
            "initial_conditions = 10,1,1,1;", "initial_conditions = 10,1e-12,1e-12,1e-12;"))
        out = tmp_path / "orbit.csv"
        assert main(["orbit", "--config", str(path), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err == (
            "numerical-failure: warm start never resolved the infection: E, I and V stayed "
            "within abs_tol 1e-09 of zero for passes 1-5, and growth from a start this close "
            "to the virus-free face is below what the loosened transient resolves\n")
        assert captured.out == "" and not out.exists()

    def test_orbit_just_above_threshold_exits_0(self, config_dir, tmp_path, capsys):
        path = _scaled_beta_config(config_dir, tmp_path, 1.0001)
        out = tmp_path / "orbit.csv"
        assert main(["orbit", "--config", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert out.exists()

    @pytest.mark.parametrize("case", ["singular", "budget"])
    def test_orbit_newton_divergence_exits_3(self, config_dir, tmp_path, capsys, monkeypatch,
                                             case):
        # a monodromy of I leaves Phi - I singular; newton_tol 0 cannot be met
        # within a budget of one iteration
        if case == "singular":
            def identity_monodromy(params, x, cfg):
                return x + 1.0, np.eye(4)

            monkeypatch.setattr(periodic, "_flow_and_monodromy", identity_monodromy)
        else:
            monkeypatch.setattr(periodic, "MAX_NEWTON_ITERS", 1)
        shots = count_calls(monkeypatch, cli, "find_periodic_orbit")
        out = tmp_path / "orbit.csv"
        code = main(["orbit", "--config", str(config_dir / "persistence.ini"),
                     "--newton-tol", "0", "--out", str(out)])
        assert code == 3
        if case == "singular":
            # the residual of the model's own flow from the warm start
            (params, guess, integrator), = shots
            x = guess.as_array()
            end = integrate(vector_field(params), 0.0, params.period, x, integrator).final
            message = f"singular shooting Jacobian at residual {np.max(np.abs(end - x)):.3e}"
        else:
            message = "no convergence within 1 iterations"
        captured = capsys.readouterr()
        assert captured.err == f"numerical-failure: {message}\n"
        assert captured.out == "" and not out.exists()

    def test_orbit_warm_start_collapse_exits_3(self, config_dir, tmp_path, capsys,
                                               monkeypatch):
        # a warm-start pass that lands on the virus-free face is a numerical
        # collapse, reported at once rather than after the whole transient
        original = periodic._period_pass
        passes = []

        def collapsing(params, x, cfg):
            image, step = original(params, x, cfg)
            passes.append(image)
            return State(image.t_cells, 0.0, 0.0, 0.0), step

        monkeypatch.setattr(periodic, "_period_pass", collapsing)
        code = main(["orbit", "--config", str(config_dir / "persistence.ini"),
                     "--out", str(tmp_path / "orbit.csv")])
        assert code == 3
        assert len(passes) == 1
        assert capsys.readouterr().err == (
            "numerical-failure: warm-start pass 1 landed on the virus-free face E = I = V = 0\n")

    def test_fast_forcing_r0_and_validate_exit_0(self, config_dir, tmp_path, capsys):
        # a 0.1 h period, 240 times faster than the shipped sets': the
        # periodic R0 averages out to the closed form at the coefficient means
        text = (config_dir / "persistence.ini").read_text()
        for old, new in [("angular_frequency = 0.2617993877991494",
                          f"angular_frequency = {2 * math.pi / 0.1!r}"),
                         ("rel_tol = 1e-9", "rel_tol = 1e-6"),
                         ("abs_tol = 1e-12", "abs_tol = 1e-9"),
                         ("horizon = 4800", "horizon = 240")]:
            assert old in text
            text = text.replace(old, new)
        path = tmp_path / "fast.ini"
        path.write_text(text)
        assert main(["r0", "--config", str(path)]) == 0
        r0 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["r0"]
        expected = closed_form_r0(load_config(str(path)).params)
        assert expected == pytest.approx(64.935, rel=1e-5)
        assert r0 == pytest.approx(expected, rel=1e-5)
        assert main(["validate", "--config", str(path)]) == 0

    def test_orbit_matches_pinned_spectral_warm_start(self, config_dir, tmp_path, capsys):
        # the summary line as printed when the warm-start transient ran at
        # spectral tolerance and Newton polished it with separate 4-wide
        # line-search flows; the orbit is the same fixed point to within
        # the shooting tolerance, and the multipliers to within 1e-12
        pinned = {
            "initial_state": [0.10319521884740318, 0.3529522440966036,
                              0.7915462962119961, 4.34007161966431],
            "multipliers": [[0.07473869158318686, 0.08354976759662591],
                            [0.07473869158318686, -0.08354976759662591],
                            [0.003051043248332042, 0.0],
                            [6.41753946165362e-10, 0.0]],
            "stable": True,
        }
        assert main(["orbit", "--config", str(config_dir / "persistence.ini"),
                     "--out", str(tmp_path / "orbit.csv")]) == 0
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        for got, want in zip(out["initial_state"], pinned["initial_state"], strict=True):
            assert abs(got - want) <= 1e-9 * abs(want)
        for got, want in zip(out["multipliers"], pinned["multipliers"], strict=True):
            assert abs(complex(*got) - complex(*want)) <= 1e-12
        assert out["stable"] is pinned["stable"]

    def test_validate_clean_config_exits_0(self, tmp_path):
        cfg_text = GOOD_CONFIG.replace("horizon = 4800", "horizon = 240")
        path = tmp_path / "ok.ini"
        path.write_text(cfg_text)
        assert main(["validate", "--config", str(path)]) == 0

    def test_validate_growing_bound_exits_4(self, tmp_path, capsys):
        # near-empty start with a 1000-hour relaxation time: over a 120-hour
        # horizon W(t) is still climbing in the second half, so the
        # boundedness check must fail and validate must exit 4
        path = tmp_path / "growing.ini"
        path.write_text(_growing_bound_config())
        assert main(["validate", "--config", str(path)]) == 4
        assert "invariant-violation" in capsys.readouterr().err

    def test_sweep_writes_table(self, config_dir, tmp_path):
        out = tmp_path / "sweep.csv"
        cfg_text = GOOD_CONFIG.replace("horizon = 4800", "horizon = 1200")
        path = tmp_path / "cfg.ini"
        path.write_text(cfg_text)
        code = main(["sweep", "--config", str(path), "--param", "beta.mean",
                     "--values", "0.15,0.3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "value,r0,rho_at_one,regime,error"
        assert len(lines) == 3

    @pytest.mark.parametrize("values", [",", "", " , "], ids=["comma", "empty", "blanks"])
    def test_sweep_without_values_exits_2(self, config_dir, tmp_path, capsys, values):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", str(config_dir / "persistence.ini"),
                     "--param", "beta.mean", "--values", values, "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "config-error: sweep --values: need at least one value\n"
        assert captured.out == "" and not out.exists()

    def test_sweep_non_number_value_exits_2(self, config_dir, tmp_path, capsys, monkeypatch):
        # the bad value is named, and rejected before any value runs
        out = tmp_path / "sweep.csv"
        calls = count_calls(monkeypatch, analysis, "r0_periodic")
        code = main(["sweep", "--config", str(config_dir / "persistence.ini"),
                     "--param", "beta.mean", "--values", "0.1,abc", "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "config-error: sweep --values: not a number: 'abc'\n"
        assert captured.out == "" and not out.exists() and calls == []

    def test_sweep_unknown_param_exits_2(self, config_dir, tmp_path, capsys, monkeypatch):
        # a misspelt --param is rejected before any R0 or simulation runs
        out = tmp_path / "sweep.csv"
        calls = count_calls(monkeypatch, analysis, "r0_periodic")
        code = main(["sweep", "--config", str(config_dir / "persistence.ini"),
                     "--param", "beta.maen", "--values", "0.1,0.2", "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "config-error: unknown sweep parameter 'beta.maen'\n"
        assert captured.out == "" and not out.exists() and calls == []

    def test_sweep_over_the_forcing_frequency(self, tmp_path, capsys):
        # angular_frequency is a float field of ModelParameters, so sweep takes
        # it like k; each row's R0 is the one r0 prints for that frequency
        text = GOOD_CONFIG.replace("horizon = 4800", "horizon = 1300")
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        out = tmp_path / "sweep.csv"
        values = ["0.2617993877991494", "0.5"]
        assert main(["sweep", "--config", str(path), "--param", "angular_frequency",
                     "--values", ",".join(values), "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == values
        capsys.readouterr()
        for value, row in zip(values, rows):
            path.write_text(re.sub(r"angular_frequency = .*", f"angular_frequency = {value}",
                                   text))
            assert main(["r0", "--config", str(path)]) == 0
            r0 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["r0"]
            assert float(row[1]) == r0
            assert row[3] == "Persistence"
        assert [round(float(row[1]), 2) for row in rows] == [64.68, 64.91]

    def test_non_number_initial_condition_exits_2(self, tmp_path, capsys):
        # named like every other config number
        path = tmp_path / "cfg.ini"
        path.write_text(GOOD_CONFIG.replace("10,1,1,1", "10,x,1,1"))
        assert main(["r0", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "config-error: run.initial_conditions[0]: not a number: 'x'\n"
        assert captured.out == ""

    def test_death_rate_too_small_for_t_star_exits_2(self, tmp_path, capsys):
        # D(P) = 2.4e-17 rounds e^{-D(P)} to 1, so T*(0) = e^{-D(P)} I / (1 - e^{-D(P)})
        # has no finite value: one config error, no numpy warnings
        path = tmp_path / "cfg.ini"
        path.write_text(GOOD_CONFIG.replace("mean = 0.01\namplitude = 0.005",
                                            "mean = 1e-18\namplitude = 0"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["r0", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("config-error: death rate integrates to D(P) = ")
        assert main(["validate", "--config", str(path)]) == 0

    @pytest.mark.parametrize("old, new, message", [
        ("mean = 0.1\namplitude = 0.05", "mean = 0\namplitude = 0",
         "mu.mean must be strictly positive"),
        ("mean = 0.01\namplitude = 0.005", "mean = 0\namplitude = 0",
         "d.mean must be strictly positive"),
    ], ids=["mu", "d"])
    def test_zero_birth_or_death_rate_names_its_key(self, tmp_path, capsys, old, new, message):
        # a ModelParameters rule, raised under [scalars], whose dotted field is its own key
        assert old in GOOD_CONFIG
        path = tmp_path / "cfg.ini"
        path.write_text(GOOD_CONFIG.replace(old, new))
        assert main(["r0", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config-error: {message}\n"
        assert captured.out == ""

    def test_coefficient_error_is_named_before_the_frequency(self, tmp_path, capsys):
        # the coefficients are built before ModelParameters checks the
        # frequency, so of two bad values the coefficient's is named
        path = tmp_path / "cfg.ini"
        path.write_text(GOOD_CONFIG.replace("angular_frequency = 0.2617993877991494",
                                            "angular_frequency = 0")
                        .replace("mean = 0.3", "mean = -0.3"))
        assert main(["r0", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "config-error: beta.mean must be nonnegative\n"

    @pytest.mark.parametrize("ics", ["10,1,1,1", "10,1,1,1; 5,2,0.5,3; 20,0.1,0.1,0.1"])
    def test_simulate_and_validate_integrate_once(self, monkeypatch, tmp_path, ics):
        path = tmp_path / "cfg.ini"
        path.write_text(GOOD_CONFIG.replace("horizon = 4800", "horizon = 48")
                        .replace("10,1,1,1; 5,2,0.5,3; 20,0.1,0.1,0.1", ics))
        calls = count_calls(monkeypatch, analysis, "integrate")
        assert main(["simulate", "--config", str(path), "--t-end", "48",
                     "--out", str(tmp_path / "run.csv")]) == 0
        assert len(calls) == 1
        assert main(["validate", "--config", str(path)]) == 0
        assert len(calls) == 2

    def test_csv_determinism(self, config_dir, tmp_path):
        args = lambda o: ["simulate", "--config", str(config_dir / "persistence.ini"),
                          "--t-end", "24", "--out", str(tmp_path / o),
                          "--grid-step", "0.25"]
        assert main(args("a.csv")) == 0
        assert main(args("b.csv")) == 0
        for i in range(3):
            a = (tmp_path / f"a_ic{i}.csv").read_bytes()
            b = (tmp_path / f"b_ic{i}.csv").read_bytes()
            assert a == b


class _LaterFailure(NumericalFailure):
    """A failure type defined after cli.py was written."""


class TestExitCodeMap:
    """A failure's type alone decides the exit code and the stderr prefix."""

    @pytest.mark.parametrize("exc, code", [
        (NonFiniteState("state became non-finite near t=1.0"), 3),
        (StepLimitExceeded("max_steps=10 reached at t=1.0"), 3),
        (NewtonDiverged("residual stalled at 1e-03"), 3),
        (ConvergedToBoundary("collapsed onto T*"), 3),
        (BracketFailure("no bracket within 40 rounds"), 3),
        (np.linalg.LinAlgError("Array must not contain infs or NaNs"), 3),
        (_LaterFailure("a later failure"), 3),
        (ValueError("tol must be finite and positive"), 2),
        (DegenerateDecay("death rate integrates to D(P) = 0.0"), 2),
        (ValidationError("scalars.k: not a number"), 2),
        (ParseError("no section headers"), 2),
        (OSError("disk full"), 2),
    ], ids=lambda v: type(v).__name__ if isinstance(v, BaseException) else str(v))
    def test_failure_type_picks_exit_code(self, config_dir, capsys, monkeypatch, exc, code):
        def failing(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "r0_periodic", failing)
        assert main(["r0", "--config", str(config_dir / "persistence.ini")]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        prefix = {3: "numerical-failure", 2: "config-error"}[code]
        assert captured.err == f"{prefix}: {exc}\n"


def _extinction_at(config_dir, period: float, d: str | None = None) -> str:
    """extinction.ini with a period of period hours and, given d = "mean amplitude", that d."""
    text = re.sub(r"angular_frequency = .*", f"angular_frequency = {2 * math.pi / period!r}",
                  (config_dir / "extinction.ini").read_text())
    if d is not None:
        mean, amplitude = d.split()
        text = text.replace("[d]\nmean = 0.01\namplitude = 0.005",
                            f"[d]\nmean = {mean}\namplitude = {amplitude}")
    return text


class TestStderrContract:
    """Every failing exit writes one "<category>: <message>" line to stderr and nothing else.

    Each case runs `python -m perivir.cli` in a fresh interpreter, so numpy's
    RuntimeWarnings reach stderr as they would for a user, and are not
    turned into errors by the test run's filter.
    """

    @pytest.mark.parametrize("case, command, code", [
        ("bad-key", "r0", 2),
        ("extinction-at-30000-h", "r0", 3),    # NonFiniteState in the lambda = 1 monodromy
        ("growing-bound", "validate", 4),
        ("wide-d-at-30000-h", "r0", 3),  # d = 0.03 + 0.027 sin: e^{D(t)} overflowed Simpson's T*
        ("t-star-unresolved", "r0", 3),  # UnresolvedTStar at 100,000 h, d = 0.05 + 0.0495 sin
    ])
    def test_one_line_per_failure(self, config_dir, tmp_path, case, command, code):
        text = {"bad-key": lambda: GOOD_CONFIG.replace("rel_tol = 1e-9", "rel_tl = 1e-9"),
                "extinction-at-30000-h": lambda: _extinction_at(config_dir, 30_000.0),
                "growing-bound": _growing_bound_config,
                "wide-d-at-30000-h": lambda: _extinction_at(config_dir, 30_000.0, "0.03 0.027"),
                "t-star-unresolved": lambda: _extinction_at(config_dir, 1e5, "0.05 0.0495"),
                }[case]()
        path = tmp_path / "case.ini"
        path.write_text(text)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        run = subprocess.run([sys.executable, "-m", "perivir.cli", command, "--config", str(path)],
                             env=env, capture_output=True, text=True, timeout=120)
        category = {2: "config-error", 3: "numerical-failure", 4: "invariant-violation"}[code]
        assert run.returncode == code
        assert re.fullmatch(f"{category}: [^\n]+\n", run.stderr), run.stderr
