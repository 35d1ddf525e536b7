"""Command-line front end: sectioned key-value configs in, CSV/SVG out.

Subcommands: simulate, r0, orbit, sweep, validate. All take a `--config`
pointing at a flat INI-style document with sections [mu], [beta], [d],
[scalars], [integrator], [run]; times are hours, rates per hour. The
model keys are ModelParameters' fields: [scalars] holds its float
fields, angular_frequency (the one frequency of mu, beta and d) first.

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 invariant
violation (validate only). Every failure prints a one-line
machine-parsable "<category>: <message>" to stderr. The exception's type
picks the code: any NumericalFailure, and numpy's LinAlgError, exit 3;
ParseError, ValidationError, any other ValueError (DegenerateDecay among
them) and OSError exit 2.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from .analysis import GRID_POINTS_PER_PERIOD, monitor_invariants, simulate, sweep
from .integrate import IntegratorConfig, NumericalFailure
from .model import (COEFF_KEYS, COEFF_NAMES, CONSTANT_NAMES, ModelParameters,
                    SinusoidalCoefficient, State, Trajectory)
from .periodic import NEWTON_TOL, find_periodic_orbit, orbit_guess
from .reproduction import R0_TOL, r0_periodic
from .svgplot import Panel, Series, write_panels

__all__ = [
    "ParseError",
    "ValidationError",
    "RunConfig",
    "parse_config",
    "load_config",
    "main",
]


class ParseError(Exception):
    """The config document is not syntactically valid."""


class ValidationError(Exception):
    """A config value violates a model invariant; message names the key."""


@dataclass(frozen=True)
class RunConfig:
    """Everything a subcommand needs besides its own flags."""

    params: ModelParameters
    integrator: IntegratorConfig
    initial_conditions: tuple[State, ...]
    horizon: float


_SECTION_KEYS = {
    **{section: COEFF_KEYS for section in COEFF_NAMES},
    "scalars": CONSTANT_NAMES,
    "integrator": tuple(f.name for f in fields(IntegratorConfig)),
    "run": ("horizon", "initial_conditions"),
}


def _get_float(cp: configparser.ConfigParser, section: str, key: str,
               default: float | None = None) -> float:
    if not cp.has_option(section, key):
        if default is not None:
            return default
        raise ValidationError(f"missing required key {section}.{key}")
    return _to_float(cp.get(section, key), f"{section}.{key}")


def _to_float(raw: str, name: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ValidationError(f"{name}: not a number: {raw!r}") from exc


def _naming_key(exc: ValueError, section: str) -> ValidationError:
    """A domain-type ValueError as a ValidationError that names the INI key.

    Domain messages start with the field they reject. A field that is
    already dotted (mu.mean) is its own key.
    """
    msg = str(exc)
    field = msg.split(" ", 1)[0]
    if "." in field:
        return ValidationError(msg)
    return ValidationError(f"{section}.{msg}")


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a config document.

    Raises ParseError for syntax problems (with line numbers, courtesy of
    configparser) and ValidationError naming the offending key for
    invariant breaches; the model invariants themselves are checked by
    SinusoidalCoefficient and ModelParameters. There are no silent model
    defaults: the model sections and run horizon are required. A section
    or key that nothing reads, such as a misspelt one, is rejected too.
    A "#" after whitespace starts a comment; ";" does not, since it
    separates the initial conditions.
    """
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ParseError(str(exc)) from exc

    for section in cp.sections():
        if section not in _SECTION_KEYS:
            raise ValidationError(f"unknown section [{section}]")
        for key in cp.options(section):
            if key not in _SECTION_KEYS[section]:
                raise ValidationError(f"{section}.{key}: unknown key")
    for section in COEFF_NAMES + ("scalars", "run"):
        if not cp.has_section(section):
            raise ValidationError(f"missing required section [{section}]")

    coeffs = {}
    for section in COEFF_NAMES:
        values = {key: _get_float(cp, section, key) for key in COEFF_KEYS}
        try:
            coeffs[section] = SinusoidalCoefficient(**values)
        except ValueError as exc:
            raise _naming_key(exc, section) from exc

    scalars = {key: _get_float(cp, "scalars", key) for key in CONSTANT_NAMES}
    try:
        params = ModelParameters(**coeffs, **scalars)
    except ValueError as exc:
        raise _naming_key(exc, "scalars") from exc

    try:
        integrator = IntegratorConfig(**{
            f.name: _get_float(cp, "integrator", f.name, f.default)
            for f in fields(IntegratorConfig)})
    except ValueError as exc:
        raise ValidationError(f"integrator: {exc}") from exc

    horizon = _get_float(cp, "run", "horizon")
    if not 0.0 < horizon < math.inf:
        raise ValidationError("run.horizon: must be finite and positive")

    ics: list[State] = []
    raw = cp.get("run", "initial_conditions", fallback="").strip()
    for i, chunk in enumerate(raw.split(";") if raw else ()):
        name = f"run.initial_conditions[{i}]"
        parts = chunk.split(",")
        if len(parts) != 4:
            raise ValidationError(f"{name}: need 4 comma-separated values")
        try:
            ics.append(State(*(_to_float(v.strip(), name) for v in parts)))
        except ValueError as exc:
            raise ValidationError(f"{name}: {exc}") from exc

    return RunConfig(params=params, integrator=integrator,
                     initial_conditions=tuple(ics), horizon=horizon)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def _write_csv(path: str, header, rows) -> None:
    """Write the CSV as one string; a number (a bool is not one) as repr(float(v)), else str(v).

    A Python float, the common cell, is tested for first: repr(v) is repr(float(v)) for it.
    """
    lines = [",".join(header)]
    lines += [",".join([repr(v) if type(v) is float
                        else repr(float(v)) if isinstance(v, (int, float, np.floating))
                        and not isinstance(v, bool) else str(v) for v in row])
              for row in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _ic_path(base: str, index: int, total: int) -> str:
    if total == 1:
        return base
    stem, ext = os.path.splitext(base)
    return f"{stem}_ic{index}{ext}"


def _ic_batch(cfg: RunConfig, command: str) -> np.ndarray:
    """The config's initial conditions as one (m, 4) batch."""
    if not cfg.initial_conditions:
        raise ValidationError(f"run.initial_conditions: need at least one for {command}")
    return np.array(cfg.initial_conditions, dtype=float)


def _cmd_simulate(cfg: RunConfig, args) -> int:
    traj = simulate(cfg.params, _ic_batch(cfg, "simulate"), args.t_end, cfg.integrator,
                    grid_step=args.grid_step)
    n_ics = traj.states.shape[1]
    for i in range(n_ics):
        path = _ic_path(args.out, i, n_ics)
        _write_csv(path, ("t", "T", "E", "I", "V"),
                   np.column_stack((traj.times, traj.states[:, i])).tolist())
        print(f"wrote {path}")
    if args.svg:
        names = ("T cells", "E cells", "I cells", "virus")
        panels = [
            Panel(title=names[comp], x_label="time (hours)", y_label="density",
                  series=tuple(Series(traj.times, traj.states[:, i, comp], label=f"ic{i}")
                               for i in range(n_ics)))
            for comp in range(4)
        ]
        write_panels(args.svg, panels, n_cols=2)
        print(f"wrote {args.svg}")
    return 0


def _cmd_r0(cfg: RunConfig, args) -> int:
    result = r0_periodic(cfg.params, tol=args.tol, cfg=cfg.integrator)
    print(f"R0 = {result.value!r}")
    print(f"rho(Phi_F-G(P)) = {result.rho_at_one!r}")
    print(f"bracket = [{result.bracket[0]!r}, {result.bracket[1]!r}]")
    print(f"iterations = {result.iterations}")
    print(f"method = {result.method}")
    print(json.dumps({
        "r0": result.value, "rho_at_one": result.rho_at_one,
        "bracket": list(result.bracket), "iterations": result.iterations,
        "method": result.method,
    }))
    return 0


def _cmd_orbit(cfg: RunConfig, args) -> int:
    # find_periodic_orbit checks this too, but only after the start is computed
    if not 0.0 <= args.newton_tol < math.inf:  # written so that nan fails
        raise ValueError("newton_tol must be finite and nonnegative")
    first = State.from_array(_ic_batch(cfg, "orbit")[0])
    guess = orbit_guess(cfg.params, first, args.transient, cfg.integrator)
    orbit = find_periodic_orbit(cfg.params, guess, cfg.integrator,
                                newton_tol=args.newton_tol)
    _write_csv(args.out, ("t", "T", "E", "I", "V"),
               np.column_stack((orbit.times, orbit.states)).tolist())
    print(f"wrote {args.out}")
    print(f"newton_residual = {orbit.newton_residual!r}")
    print(f"stable = {orbit.stable} (margin {orbit.stability_margin!r})")
    for m in orbit.floquet_multipliers:
        sign = "+" if m.imag >= 0 else "-"
        print(f"multiplier = {float(m.real)!r} {sign} {abs(float(m.imag))!r}j"
              f"  |.| = {float(abs(m))!r}")
    print(json.dumps({
        "initial_state": [float(v) for v in orbit.initial_state.as_array()],
        "newton_residual": orbit.newton_residual,
        "multipliers": [[float(m.real), float(m.imag)] for m in orbit.floquet_multipliers],
        "stable": orbit.stable,
        "stability_margin": orbit.stability_margin,
    }))
    if args.svg:
        pairs = (("I", 2, "V", 3), ("T", 0, "V", 3), ("E", 1, "V", 3))
        for xn, xi, yn, yi in pairs:
            path = f"{args.svg}_{xn.lower()}{yn.lower()}.svg"
            panel = Panel(title=f"{xn}-{yn} limit cycle",
                          x_label=f"{xn} density", y_label=f"{yn} density",
                          series=(Series(orbit.states[:, xi], orbit.states[:, yi]),))
            write_panels(path, [panel], n_cols=1)
            print(f"wrote {path}")
    return 0


def _cmd_sweep(cfg: RunConfig, args) -> int:
    values = [_to_float(v.strip(), "sweep --values") for v in args.values.split(",") if v.strip()]
    if not values:
        raise ValidationError("sweep --values: need at least one value")
    ics = cfg.initial_conditions or None
    rows = sweep(cfg.params, args.param, values, cfg.horizon, cfg.integrator,
                 initial_conditions=ics)
    _write_csv(args.out, ("value", "r0", "rho_at_one", "regime", "error"),
               ((r.value,
                 "" if r.r0 is None else r.r0,
                 "" if r.rho_at_one is None else r.rho_at_one,
                 r.regime or "", r.error or "") for r in rows))
    print(f"wrote {args.out}")
    return 0


def _cmd_validate(cfg: RunConfig, args) -> int:
    traj = simulate(cfg.params, _ic_batch(cfg, "validate"), cfg.horizon, cfg.integrator,
                    grid_step=cfg.params.period / GRID_POINTS_PER_PERIOD)
    total_violations = 0
    all_bounded = True
    for i in range(traj.states.shape[1]):
        log = monitor_invariants(Trajectory(traj.times, traj.states[:, i]), cfg.params,
                                 abs_tol=cfg.integrator.abs_tol)
        print(f"ic{i}: violations={log.positivity_violations} "
              f"worst_undershoot={log.worst_undershoot!r} "
              f"bound={log.bound_estimate!r} bounded={log.bounded}")
        total_violations += log.positivity_violations
        all_bounded = all_bounded and log.bounded
    if total_violations or not all_bounded:
        print(f"invariant-violation: {total_violations} positivity violations, "
              f"bounded={all_bounded}", file=sys.stderr)
        return 4
    print("all invariants hold")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perivir",
        description="Periodic within-host viral model: simulation, R0, periodic orbits.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="path to the config document")
        sp.set_defaults(fn=fn)
        return sp

    sp = add("simulate", _cmd_simulate, "integrate the model and write time-series CSV/SVG")
    sp.add_argument("--t-end", type=float, required=True, help="end time (hours)")
    sp.add_argument("--out", required=True, help="output CSV path")
    sp.add_argument("--svg", help="optional time-series SVG panel path")
    sp.add_argument("--grid-step", type=float, default=None,
                    help="uniform output grid step (hours); default: accepted steps")

    sp = add("r0", _cmd_r0, "compute the periodic reproduction number")
    sp.add_argument("--tol", type=float, default=R0_TOL, help="absolute bracket width")

    sp = add("orbit", _cmd_orbit, "locate an endemic periodic orbit by Newton shooting")
    sp.add_argument("--transient", type=float, default=2000.0,
                    help="warm-start transient length (hours), used only where Fourier "
                         "collocation does not resolve the orbit: integrated one period "
                         "at a time at simulation tolerance or looser; an upper bound, "
                         "it stops once the period map has settled")
    sp.add_argument("--newton-tol", type=float, default=NEWTON_TOL,
                    help="shooting residual target: how well the model's flow over one "
                         "period closes on the returned state")
    sp.add_argument("--out", required=True, help="one-period samples CSV path")
    sp.add_argument("--svg", help="optional phase-plane SVG path prefix")

    sp = add("sweep", _cmd_sweep, "classify across one varying parameter")
    sp.add_argument("--param", required=True,
                    help=f"scalar field ({', '.join(CONSTANT_NAMES)}) or "
                         f"{'/'.join(COEFF_NAMES)}.{'|'.join(COEFF_KEYS)}")
    sp.add_argument("--values", required=True, help="comma-separated values")
    sp.add_argument("--out", required=True, help="output CSV path")

    add("validate", _cmd_validate, "check positivity/boundedness invariants over the horizon")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        return args.fn(cfg, args)
    except (NumericalFailure, np.linalg.LinAlgError) as exc:
        # first: LinAlgError derives from ValueError
        print(f"numerical-failure: {exc}", file=sys.stderr)
        return 3
    except (ParseError, ValidationError, ValueError, OSError) as exc:
        print(f"config-error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
