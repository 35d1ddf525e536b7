"""R0's route census: the certified order and R0 of `r0_periodic` on a fixed list of sets.

    PYTHONPATH=src python -m tests.census > tests/census.json

writes the table `tests/test_reproduction.py::TestCensus` compares the
library with, on one BLAS thread (OPENBLAS_NUM_THREADS=1) as perfbench
runs. The sets are the shipped configs and, for each of SEEDS,
DRAWS draws of `random_periodic_params(default_rng(seed))`, each at its
own 24 h period and at P = 24 * 50^U h, U the matching draw of
`default_rng(seed + 1).uniform()` (`long_period`).

A set's entry is [order, R0]: the Hill order whose enclosure certified
the bracket and the R0 that bracket gives, or [null, null] when no order
certifies and `r0_periodic` would search. The walk is `r0_periodic`'s own,
with `rho_for_lambda` stubbed: a certified R0 reads no radius, and at long
periods the lambda = 1 monodromy can overflow (ROADMAP item 15).
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from unittest import mock

import numpy as np

from perivir import ModelParameters, r0_periodic, reproduction
from perivir.cli import load_config

from .conftest import CONFIG_DIR
from .helpers import random_periodic_params

SEEDS = (4545, 12345, 7)
DRAWS = 120
SHIPPED = ("baseline", "extinction", "persistence")


class _Searched(Exception):
    """The walk left the certified route: `r0_periodic` asked for a radius other than lambda = 1's."""


def _radius_at_one_only(lin, lam, cfg):
    if lam != 1.0:
        raise _Searched
    return math.nan


def walk(params: ModelParameters) -> list:
    """[order, R0] of `r0_periodic`'s certified route at its default tol, or [None, None]."""
    orders, hill = [], reproduction._hill_r0

    def spied(lin, order):
        orders.append(order)
        return hill(lin, order)

    with mock.patch.object(reproduction, "rho_for_lambda", _radius_at_one_only), \
            mock.patch.object(reproduction, "_hill_r0", spied):
        try:
            value = r0_periodic(params).value
        except _Searched:
            return [None, None]
    return [orders[-1], value]


def draws(seed: int) -> list[ModelParameters]:
    """The seed's DRAWS sets, each at its own 24 h period."""
    rng = np.random.default_rng(seed)
    return [random_periodic_params(rng) for _ in range(DRAWS)]


def long_period(seed: int) -> list[ModelParameters]:
    """`draws(seed)`, each at P = 24 * 50^U h, U from `default_rng(seed + 1)` in draw order."""
    units = np.random.default_rng(seed + 1).uniform(size=DRAWS)
    return [replace(params, angular_frequency=2.0 * math.pi / (24.0 * 50.0 ** u))
            for params, u in zip(draws(seed), units)]


def table() -> dict:
    """The table: {"shipped": entries in SHIPPED order, "<seed>/24h" and "<seed>/long": ...}."""
    table = {"shipped": [walk(load_config(str(CONFIG_DIR / f"{name}.ini")).params)
                         for name in SHIPPED]}
    for seed in SEEDS:
        table[f"{seed}/24h"] = [walk(params) for params in draws(seed)]
        table[f"{seed}/long"] = [walk(params) for params in long_period(seed)]
    return table


def dumps(table: dict) -> str:
    """table as JSON, one set a line; json writes each R0 as its repr, exact to the bit."""
    lists = (f'"{name}": [\n  ' + ",\n  ".join(map(json.dumps, entries)) + "]"
             for name, entries in table.items())
    return "{" + ",\n".join(lists) + "}\n"


if __name__ == "__main__":
    print(dumps(table()), end="")
