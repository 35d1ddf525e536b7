"""Outside-in benchmark of perivir: time to R0, regime verdicts and endemic orbits.

    python3 perfbench/run.py --workload r0_scan --seed 1 --seconds 20 --trace 0
    for w in r0_scan regime_sweep orbit_shoot; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 20 --trace 0; done

Run from the root of a perivir source tree. The workload's configs are
generated from --seed; its fixed op list (sized so the seed code needs
about --seconds) runs in one fresh worker process that calls
`perivir.cli.main(argv)` once per op, a closed loop with one client. Every
answer is then checked against scipy references (reference.py), outside
the timed region. An op fails on a non-zero exit, an exception or a failed
gate; `correct` is false when an answer that was returned is wrong or a
determinism check fails.

--trace 0 reports the end-to-end metrics: setup_s (median time for a fresh
interpreter to import perivir.cli), run_s (time of the op list), op_s.p50
and op_s.tail (per-op time) and peak_rss_mb (the worker's peak resident set).
Run and op times are at reference host speed (host.py); raw wall times
are printed beside them. --trace 1 runs the list untraced, then traced (tracer.py),
then its first ops traced once more, and reports per-layer metrics, the
tracing overhead and whether output digests and per-op counts repeat.

A human-readable summary comes first; the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}. The full report,
with every failed op and its gate, and the spans go to .perfbench_out/.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads: one BLAS thread in every process here

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time

import reference
from host import adjusted, calib_us
from workloads import WORKLOADS, make_plan

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DEADLINE_S = 170.0
SETUP_RUNS = 7
REPEAT_OPS = 3
LAYERS = ("model", "integrate", "periodic", "reproduction", "analysis", "cli", "svgplot")
# the layer each workload's reason for being says dominates traced self time
EXPECTED_LAYER = {"r0_scan": "integrate", "regime_sweep": "integrate",
                  "orbit_shoot": "integrate"}
# per-layer counts an optimisation is likely to move; calls that only track
# the op count (load_config, sweep, warm_start_guess, ...) are left out
COUNTS = (
    "reproduction.r0_periodic.calls", "reproduction.rho_for_lambda.calls",
    "integrate.integrate_matrix.calls", "integrate.integrate_matrix.steps",
    "integrate.integrate_matrix.rejected", "periodic.tstar_value.calls",
    "periodic.virus_free_closed_form.calls", "analysis.simulate.calls",
    "analysis.classify.calls", "analysis.classify.decisive",
    "analysis.monitor_invariants.calls", "integrate.integrate.calls",
    "integrate.integrate.fcalls", "model.rhs.calls", "model.jacobian.calls",
    "periodic.variational_flows", "periodic.linesearch_flows",
)


def setup_times(n: int) -> list[float]:
    """Wall times of fresh interpreters importing perivir.cli.

    Left unadjusted: the probe adjustment widened the spread of these short
    runs instead of narrowing it.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, "-c", "import perivir.cli"]
    subprocess.run(cmd, env=env, check=True, timeout=60)  # untimed: writes the bytecode cache
    walls = []
    for _ in range(n):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=60)
        walls.append(time.perf_counter() - start)
    return walls


def run_worker(ops, work, tag, traced, deadline) -> dict:
    plan = os.path.join(work, f"plan-{tag}.json")
    result = os.path.join(work, f"result-{tag}.json")
    with open(plan, "w", encoding="utf-8") as fh:
        json.dump(ops, fh)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), plan, result]
    if traced:
        cmd.append("--trace")
    subprocess.run(cmd, check=True, timeout=max(1.0, deadline - time.monotonic()))
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def tail(times):
    """Highest percentile with at least 10 ops beyond it: (value, percentile), or None."""
    n = len(times)
    if n < 11:
        return None
    return sorted(times)[n - 11], 100.0 * (n - 10) / n


def gate(op, rec) -> tuple[list, int, int]:
    """Failures of one op as (gate, detail) pairs, plus (verdicts, decisive verdicts)."""
    if rec["error"] or rec["exit"] != 0:
        return [("exit", f"exit {rec['exit']} {rec['error'] or ''} {rec['stderr'].strip()}")], 0, 0
    cmd = op["argv"][0]
    if cmd == "r0":
        return reference.gate_r0(op, rec["stdout"]), 0, 0
    if cmd == "sweep":
        return reference.gate_sweep(op, rec["numeric"])
    if cmd == "orbit":
        return reference.gate_orbit(op, rec["stdout"]), 0, 0
    return [], 0, 0  # validate: exit 0 is its gate


def summed(records, part, factors=None) -> dict:
    """Per-name sum over ops of one per-op delta table, each op scaled by its factor."""
    out = {}
    for i, rec in enumerate(records):
        for k, v in rec.get(part, {}).items():
            out[k] = out.get(k, 0) + (v if factors is None else v * factors[i])
    return out


def trace_report(workload, ops, base, traced, again, base_times, failures):
    """Per-layer metrics from the traced run, plus the determinism checks."""
    for op, a, b in zip(ops, base["ops"], traced["ops"]):
        if a["digest"] != b["digest"]:
            failures.append((op["id"], op["kind"], "determinism.digest",
                             "traced output differs from untraced output"))
    for op, a, b in zip(ops, traced["ops"], again["ops"]):
        if a["counts"] != b["counts"]:
            diff = sorted(k for k in a["counts"].keys() | b["counts"].keys()
                          if a["counts"].get(k) != b["counts"].get(k))
            failures.append((op["id"], op["kind"], "determinism.counts",
                             f"per-op counts differ between two traced runs: {diff}"))

    recs = traced["ops"]
    walls = [r["wall_s"] for r in recs]
    times = adjusted(walls, traced["probes"])
    factors = [t / w for t, w in zip(times, walls)]
    counts = summed(recs, "counts")
    self_raw, total_raw = summed(recs, "self_s"), summed(recs, "total_s")
    self_adj, total_adj = summed(recs, "self_s", factors), summed(recs, "total_s", factors)

    def layer_sum(table, layer):
        return sum(v for k, v in table.items() if k.split(".")[0] == layer)

    by_layer = {layer: layer_sum(self_raw, layer) for layer in LAYERS}
    matrix_steps = counts.get("integrate.integrate_matrix.steps", 0)
    # DOPRI5 with FSAL: one f call to start, six per attempted step
    vector_steps = (counts.get("integrate.integrate.fcalls", 0)
                    - counts.get("integrate.integrate.calls", 0)) / 6
    r0_calls = counts.get("reproduction.r0_periodic.calls", 0)
    m = {name: (counts.get(name, 0), "count") for name in COUNTS}
    m["integrate.integrate.steps"] = (vector_steps, "count")
    m["reproduction.rho_evals_per_r0"] = (
        counts.get("reproduction.rho_for_lambda.calls", 0) / r0_calls if r0_calls else 0, "count")
    m["integrate.us_per_step"] = (
        1e6 * layer_sum(self_adj, "integrate") / (matrix_steps + vector_steps), "us")
    for layer in ("cli", "integrate", "periodic"):
        m[f"{layer}.self_s"] = (layer_sum(self_adj, layer), "s")
    m["cli.main.self_s"] = (self_adj["cli.main"], "s")
    m["cli.load_config.s"] = (total_adj["cli.load_config"], "s")
    m["trace.overhead_s"] = (sum(times) - sum(base_times), "s")

    outside = sum(walls) - total_raw["cli.main"]
    report = {
        "traced_wall_s": sum(walls), "traced_s": sum(times), "untraced_s": sum(base_times),
        "outside_layers_s": outside, "layer_self_s": by_layer,
        "layer_self_sum_s": sum(by_layer.values()),
        "dominant_layer": max(by_layer, key=by_layer.get),
        "expected_layer": EXPECTED_LAYER[workload],
        "functions": {name: {"calls": counts.get(f"{name}.calls", 0),
                             "total_s": total_raw[name], "self_s": self_raw[name]}
                      for name in sorted(self_raw)},
        "counts": counts, "repeat_checked_ops": len(again["ops"]),
    }
    return m, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "perivir", "cli.py")):
        print(f"perfbench: no perivir sources under {SRC}; run from a perivir checkout",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {list(WORKLOADS)}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    work = os.path.join(ROOT, ".perfbench_tmp", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        return bench(args, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def bench(args, work, deadline) -> int:
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    setup_walls = setup_times(SETUP_RUNS)
    ops = make_plan(args.workload, args.seed, args.seconds, work)
    base = run_worker(ops, work, "untraced", False, deadline)
    walls = [rec["wall_s"] for rec in base["ops"]]
    times = adjusted(walls, base["probes"])

    failures = []  # (op id, kind, gate, detail)
    verdicts = decisive = 0
    for op, rec in zip(ops, base["ops"]):
        fails, v, dv = gate(op, rec)
        verdicts, decisive = verdicts + v, decisive + dv
        failures += [(op["id"], op["kind"], g, d) for g, d in fails]

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "ops": [{"id": op["id"], "kind": op["kind"], "command": op["argv"][0],
                       "wall_s": w, "s": t, "digest": rec["digest"]}
                      for op, rec, w, t in zip(ops, base["ops"], walls, times)],
              "setup_wall_s": setup_walls, "run_wall_s": sum(walls),
              "op_wall_s.p50": statistics.median(walls),
              "host_probes_s": base["probes"],
              "verdicts": verdicts, "decisive": decisive}
    t = tail(times)
    if args.trace == 0:
        metrics = {"setup_s": (statistics.median(setup_walls), "s"),
                   "run_s": (sum(times), "s"),
                   "op_s.p50": (statistics.median(times), "s"),
                   "peak_rss_mb": (base["rss_mb"], "MB")}
        if t is not None:
            metrics["op_s.tail"] = (t[0], "s")
    else:
        traced = run_worker(ops, work, "traced", True, deadline)
        again = run_worker(ops[:REPEAT_OPS], work, "repeat", True, deadline)
        metrics, report["trace"] = trace_report(args.workload, ops, base, traced, again,
                                                times, failures)
        metrics["host.calib_us"] = (calib_us(base["probes"]), "us")
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["op", "name", "start", "end", "parent"],
                       "spans": traced["spans"]}, fh)
    report["failures"] = [dict(zip(("op", "kind", "gate", "detail"), f)) for f in failures]
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    failed_ops = {f[0] for f in failures}
    wrong = [f for f in failures if f[2] != "exit"]
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops, {len(failed_ops)} failed "
          f"(failed_frac {len(failed_ops) / len(ops):.4f}); host.calib_us "
          f"{calib_us(base['probes'][:1]):.2f} at start, {calib_us(base['probes'][-1:]):.2f} at end")
    for op_id, kind, g, detail in failures:
        print(f"  FAILED op {op_id} ({kind}) gate {g}: {detail}")
    print(f"  raw wall: run {sum(walls):.3f} s, op p50 {statistics.median(walls):.4f} s")
    if t is not None:
        print(f"  op_s.tail is p{t[1]:.1f} of {len(times)} ops")
    if verdicts:
        print(f"  analysis.classify.decisive_frac {decisive / verdicts:.4f} ({decisive}/{verdicts})")
    if "trace" in report:
        tr = report["trace"]
        print(f"  traced {tr['traced_s']:.3f} s vs untraced {tr['untraced_s']:.3f} s; "
              f"layer self times sum to {tr['layer_self_sum_s']:.3f} s of "
              f"{tr['traced_wall_s']:.3f} s traced wall, {tr['outside_layers_s']:.4f} s outside "
              f"layers; dominant layer {tr['dominant_layer']} (expected {tr['expected_layer']})")
        for name, f in tr["functions"].items():
            print(f"    {name:34s} calls {f['calls']:8d}  total {f['total_s']:9.4f} s"
                  f"  self {f['self_s']:9.4f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value!r} {unit}")

    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({"correct": not wrong, "attempted": len(ops),
                      "failed": len(failed_ops), "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
