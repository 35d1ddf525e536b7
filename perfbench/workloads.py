"""Seeded workload generator: admissible parameter sets, INI configs and op lists.

Every op is one `perivir` command line with its own generated config file;
no config is used by two ops, so nothing can be reused across ops, just as
in one-invocation-per-process use. Every generated set is admissible: each
amplitude is strictly below its mean and mu, beta and d share one angular
frequency. The same seed gives byte-identical configs and op lists.

The op count of a workload is fixed by --seconds, sized so that the seed
code needs about that long; `run_s` is the time of that fixed list.
"""

from __future__ import annotations

import math
import os

import numpy as np

OMEGA_24H = 2.0 * math.pi / 24.0
DEFAULT_ICS = ((10.0, 1.0, 1.0, 1.0), (5.0, 2.0, 0.5, 3.0), (20.0, 0.1, 0.1, 0.1))
SPECTRAL = {"rel_tol": 1e-9, "abs_tol": 1e-12}
SIMULATION = {"rel_tol": 1e-6, "abs_tol": 1e-9}
# classify needs at least 50 periods
SWEEP_PERIODS = 52

# Why each workload exists, and its op mix at 20 s, is in BENCHMARK.json.
WORKLOADS = ("r0_scan", "regime_sweep", "orbit_shoot")


def _set(mu, beta, d, k, delta, p, c, c1, c2, omega=OMEGA_24H):
    """A parameter set; mu, beta and d are (mean, amplitude) pairs."""
    return {"mu": mu, "beta": beta, "d": d, "omega": omega,
            "k": k, "delta": delta, "p": p, "c": c, "c1": c1, "c2": c2}


# The three sets shipped in configs/, copied so the benchmark needs no file
# outside its own directory.
SHIPPED = {
    "baseline": (_set((0.1, 0.05), (0.3, 0.1), (0.01, 0.005),
                      0.2, 0.09, 0.5, 0.18, 0.1, 0.1), SPECTRAL, 4800.0),
    "extinction": (_set((0.1, 0.05), (0.003, 0.001), (0.01, 0.005),
                        0.2, 0.09, 0.5, 0.18, 0.1, 0.1), SIMULATION, 5000.0),
    "persistence": (_set((0.1, 0.05), (0.3, 0.1), (0.01, 0.005),
                         0.2, 0.1, 0.5, 0.1, 0.1, 0.1), SPECTRAL, 4800.0),
}


def r0_closed_form(ps, beta_mean=None) -> float:
    """Autonomous R0 at the coefficient means: p b k mu / (c (d+delta)(d+k)(d+c1 mu))."""
    mu, d = ps["mu"][0], ps["d"][0]
    beta = ps["beta"][0] if beta_mean is None else beta_mean
    return (ps["p"] * beta * ps["k"] * mu
            / (ps["c"] * (d + ps["delta"]) * (d + ps["k"]) * (d + ps["c1"] * mu)))


def _stratified(rng, lo, hi, n):
    """n log-spaced values over [lo, hi], each jittered inside its own stratum."""
    u = (np.arange(n) + rng.uniform(0.2, 0.8, n)) / n
    return np.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _rates(rng, amp_lo=0.2, amp_hi=0.6, jitter=0.1):
    """Rates within +-10% (log) of the shipped magnitudes, beta mean unset."""
    def j(x):
        return float(x * math.exp(rng.uniform(-jitter, jitter)))

    def amp(mean):
        return (mean, float(mean * rng.uniform(amp_lo, amp_hi)))

    mu, d = j(0.1), j(0.01)
    return _set(amp(mu), None, amp(d), j(0.2), j(0.1), j(0.5), j(0.12), j(0.1), j(0.1))


def _with_r0(ps, target, amp_ratio):
    """Set beta so the closed-form R0 at the means is `target` (R0 is linear in beta)."""
    beta = float(target / r0_closed_form(ps, beta_mean=1.0))
    return dict(ps, beta=(beta, float(beta * amp_ratio)))


def config_text(ps, integrator, horizon, ics=DEFAULT_ICS) -> str:
    """INI document in the layout `perivir --config` reads."""
    lines = []
    for name in ("mu", "beta", "d"):
        mean, amp = ps[name]
        lines += [f"[{name}]", f"mean = {mean!r}", f"amplitude = {amp!r}", ""]
    lines += ["[scalars]", f"angular_frequency = {ps['omega']!r}"]
    lines += [f"{key} = {ps[key]!r}" for key in ("k", "delta", "p", "c", "c1", "c2")]
    lines += ["", "[integrator]", f"rel_tol = {integrator['rel_tol']!r}",
              f"abs_tol = {integrator['abs_tol']!r}", "initial_step = 0.01",
              "max_step = inf", "max_steps = 10000000",
              "", "[run]", f"horizon = {horizon!r}",
              "initial_conditions = " + "; ".join(",".join(repr(v) for v in ic) for ic in ics)]
    return "\n".join(lines) + "\n"


def _r0_sets(rng, seconds):
    """Shipped sets, then zero-amplitude / skewed / near-threshold / wide, interleaved."""
    per_kind = max(2, round(seconds * 1.35 / 4))
    flat = _stratified(rng, 0.3, 40.0, per_kind)
    near = _stratified(rng, 0.8, 1.25, per_kind)
    skew = _stratified(rng, 0.5, 30.0, per_kind)
    wide = _stratified(rng, 0.3, 40.0, per_kind)
    for a in (flat, near, skew, wide):
        rng.shuffle(a)
    out = [(f"shipped-{name}", ps, integ, horizon)
           for name, (ps, integ, horizon) in SHIPPED.items()]
    for i in range(per_kind):
        ps = _rates(rng)
        ps = dict(_with_r0(ps, flat[i], 0.0), mu=(ps["mu"][0], 0.0), d=(ps["d"][0], 0.0))
        out.append(("flat", ps, SPECTRAL, 4800.0))
        out.append(("near", _with_r0(_rates(rng), near[i], rng.uniform(0.2, 0.6)),
                    SPECTRAL, 4800.0))
        ps = _rates(rng)
        mu_amp, d_amp = (0.8, 0.1) if i % 2 == 0 else (0.1, 0.8)
        ps = dict(ps, mu=(ps["mu"][0], ps["mu"][0] * mu_amp), d=(ps["d"][0], ps["d"][0] * d_amp))
        out.append(("skewed", _with_r0(ps, skew[i], 0.4), SPECTRAL, 4800.0))
        out.append(("wide", _with_r0(_rates(rng), wide[i], rng.uniform(0.2, 0.6)),
                    SPECTRAL, 4800.0))
    return out


SWEEP_TARGETS = (0.3, 0.85, 1.2, 4.0, 40.0)


def make_plan(workload: str, seed: int, seconds: float, workdir: str) -> list[dict]:
    """Write the workload's configs into `workdir` and return its op list.

    Each op carries the argv for `perivir.cli.main`, the parameter set its
    correctness gate needs and the paths of the files it writes.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    ops = []

    def add(kind, ps, integ, horizon, argv_tail, **extra):
        i = len(ops)
        path = os.path.join(workdir, f"op{i:03d}.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(config_text(ps, integ, horizon))
        ops.append({"id": i, "kind": kind, "params": ps,
                    "argv": [argv_tail[0], "--config", path] + [
                        a.format(out=os.path.join(workdir, f"op{i:03d}")) for a in argv_tail[1:]],
                    **extra})

    if workload == "r0_scan":
        for kind, ps, integ, horizon in _r0_sets(rng, seconds):
            add(kind, ps, integ, horizon, ["r0"])
    elif workload == "regime_sweep":
        for _ in range(max(2, round(seconds / 5))):
            base = _rates(rng, jitter=0.05)
            b1 = r0_closed_form(base, beta_mean=1.0)
            values = [t * math.exp(rng.uniform(-0.05, 0.05)) / b1 for t in SWEEP_TARGETS]
            base = dict(base, beta=(4.0 / b1, 0.25 * min(values)))
            horizon = SWEEP_PERIODS * 2.0 * math.pi / base["omega"]
            add("validate", base, SIMULATION, horizon, ["validate"])
            for v in rng.permutation(values).tolist():
                add("sweep", base, SIMULATION, horizon,
                    ["sweep", "--param", "beta.mean", "--values", repr(v), "--out", "{out}.csv"],
                    out_csv=os.path.join(workdir, f"op{len(ops):03d}.csv"))
    else:
        ps, integ, horizon = SHIPPED["persistence"]
        add("shipped-persistence", ps, integ, horizon, ["orbit", "--out", "{out}.csv", "--svg", "{out}"])
        for target in _stratified(rng, 2.0, 20.0, max(10, round(seconds * 0.65))):
            add("seeded", _with_r0(_rates(rng), float(target), rng.uniform(0.2, 0.6)),
                SPECTRAL, 4800.0, ["orbit", "--out", "{out}.csv", "--svg", "{out}"])
    return ops
