"""Run one op list through `perivir.cli.main` in this process, one op after another.

Usage: python3 worker.py PLAN.json RESULT.json [--trace]

A closed loop with one client: each op starts when the previous one has
returned. Only the `cli.main` call is timed; the host-speed probe, reading
outputs and hashing them happen outside the timed region. The result holds
per-op wall time, exit code, captured output, the digest of the op's
numeric output, the probes and this process's peak RSS; with --trace also
the spans and, per op, the counts and the self and total seconds of every
wrapped function.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from host import probe  # noqa: E402
from perivir import cli  # noqa: E402


def _numeric_output(op, stdout: str) -> str:
    """The text whose digest stands for the op's result."""
    if op["argv"][0] == "sweep":
        with open(op["out_csv"], encoding="utf-8") as fh:
            return fh.read()
    if op["argv"][0] in ("r0", "orbit"):
        lines = [ln for ln in stdout.splitlines() if ln.startswith("{")]
        return lines[-1] if lines else ""
    return stdout


def peak_rss_mb() -> float:
    """This process's peak resident set (VmHWM).

    Not ru_maxrss: Linux carries the parent's high-water mark across
    fork and exec into it, so it would report the launching process.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def run(ops, tracer=None) -> tuple[list[dict], list[float]]:
    """Per-op records, and host probes taken before the first op and after each op."""
    results = []
    probes = [probe()]
    before = {}
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        error = None
        if tracer is not None:
            tracer.op = op["id"]
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(op["argv"])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an escaped exception is a failed op, not a crash
            code, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        probes.append(probe())
        stdout = out.getvalue()
        rec = {"id": op["id"], "wall_s": wall, "exit": code, "error": error,
               "stdout": stdout, "stderr": err.getvalue()}
        try:
            numeric = _numeric_output(op, stdout)
        except OSError as exc:
            numeric, rec["error"] = "", rec["error"] or f"missing output: {exc}"
        rec["numeric"] = numeric
        rec["digest"] = hashlib.sha256(numeric.encode()).hexdigest()
        if tracer is not None:
            now = tracer.snapshot()
            for part in now:
                rec[part] = {k: v - before.get(part, {}).get(k, 0) for k, v in now[part].items()
                             if v != before.get(part, {}).get(k, 0)}
            before = now
        results.append(rec)
    return results, probes


def main(argv) -> int:
    plan_path, result_path = argv[0], argv[1]
    traced = "--trace" in argv[2:]
    with open(plan_path, encoding="utf-8") as fh:
        ops = json.load(fh)
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        results, probes = run(ops, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    payload = {"ops": results, "probes": probes, "rss_mb": peak_rss_mb()}
    if tracer is not None:
        payload["spans"] = tracer.spans
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
