"""Metamorphic relations: verdicts that must not move when the operator
does not.

Three changes leave the operator, or its spectrum, as it was. Another
``seed`` draws other test functions for the sampled checks; another
``grid_points`` moves where the checks look; and the mirror ``x -> 1 - x``
with the basis and the functionals reversed (``helpers.mirror_config``)
turns the matrix into ``J M J``, ``J`` the reversal, up to the rounding of
``1 - x``. So the classification, each check flag and the closed-class
periods must not move under any of them, and mirrored eigenvalues must
agree within 1e-12. The catalog Bernstein and Kantorovich operators are
their own mirrors: their matrices must equal ``J M J`` within 1e-14.

The seed and grid relations run over every well-formed config of the
three benchmark pools (``perfbench/workloads.py``); the mirror relation
also over the largest and kernel-witness configs of
``tools/output_diff.py``. Each config is analysed in process, and each
analysis once.

The sampled norm check breaks all three relations (ROADMAP item 7), so its
flag, and the exit code that it drives, are one strict xfail per relation.
"""

from __future__ import annotations

import json
from functools import cache

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from helpers import mirror_config, well_formed_configs

from pouspec.report import exit_code_for, parse_config, run_analyze
from pouspec.spectra import closed_classes

CONFIGS = {name: json.loads(text)
           for name, text in well_formed_configs("largest", "witness").items()}
POOL = [name for name in CONFIGS if not name.startswith(("largest ", "witness "))]
SELF_MIRRORED = [name for name, config in CONFIGS.items()
                 if config["operator"] in ("bernstein", "kantorovich")]
MIRRORED = [name for name in CONFIGS if name not in SELF_MIRRORED]

#: Seeds other than each config's own; each breaks the seed relation of
#: the norm flag on some pool config.
SEEDS = (0, 1)
GRID_POINTS = (101, 2001)

NORM_FLAG_REASON = (
    "ROADMAP item 7: the sampled norm check takes ||f|| on the grid while Tf reads f at "
    "the nodes, so a trial that peaks at a node off the grid reads ||Tf|| / ||f|| > 1 "
    "and the norm_estimate flag, with the exit code, follows the {} and not the operator")


@cache
def verdict(text: str) -> dict:
    """What a relation compares of one analysis of the config ``text``."""
    report = run_analyze(parse_config(text))
    entries = report.matrix.entries
    return {"classification": report.spectrum.classification,
            "flags": {name: check.passed for name, check in report.checks.items()},
            "periods": sorted(closed_classes(entries)[1].tolist()),
            "exit": exit_code_for(report),
            "eigenvalues": report.spectrum.eigenvalues,
            "mirror_deviation": float(np.abs(entries - entries[::-1, ::-1]).max())}


def of(name: str, **changes) -> dict:
    """The verdict of the config ``name``, with its fields ``changes``."""
    return verdict(json.dumps({**CONFIGS[name], **changes}))


def mirrored(name: str) -> dict:
    return verdict(json.dumps(mirror_config(CONFIGS[name])))


def assert_same_verdict(a: dict, b: dict) -> None:
    """Equal classification, closed-class periods and flags of every check
    but the norm estimate."""
    assert a["classification"] == b["classification"]
    assert a["periods"] == b["periods"]
    flags = [{k: v for k, v in d["flags"].items() if k != "norm_estimate"} for d in (a, b)]
    assert flags[0] == flags[1]


def norm_flag_breaks(pairs) -> list[str]:
    """The names of the ``(name, a, b)`` pairs whose norm flag or exit code
    differ."""
    return [name for name, a, b in pairs
            if (a["flags"]["norm_estimate"], a["exit"]) != (b["flags"]["norm_estimate"],
                                                           b["exit"])]


@pytest.mark.parametrize("name", MIRRORED)
def test_mirror_keeps_the_verdict_and_the_spectrum(name):
    a, b = of(name), mirrored(name)
    assert_same_verdict(a, b)
    # Eigenvalues paired to minimise the total distance: an order by value
    # could pair two of nearly equal real part crosswise.
    distance = np.abs(a["eigenvalues"][:, None] - b["eigenvalues"][None, :])
    rows, cols = linear_sum_assignment(distance)
    assert distance[rows, cols].max() <= 1e-12


@pytest.mark.parametrize("name", SELF_MIRRORED)
def test_catalog_bernstein_and_kantorovich_are_their_own_mirrors(name):
    assert mirror_config(CONFIGS[name]) == CONFIGS[name]
    assert of(name)["mirror_deviation"] <= 1e-14


@pytest.mark.parametrize("grid_points", GRID_POINTS)
@pytest.mark.parametrize("name", POOL)
def test_grid_keeps_the_verdict(name, grid_points):
    assert_same_verdict(of(name), of(name, grid_points=grid_points))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", POOL)
def test_seed_keeps_the_verdict(name, seed):
    assert_same_verdict(of(name), of(name, seed=seed))


@pytest.mark.xfail(strict=True, reason=NORM_FLAG_REASON.format("mirror"))
def test_mirror_keeps_the_norm_flag():
    assert norm_flag_breaks((name, of(name), mirrored(name)) for name in MIRRORED) == []


@pytest.mark.xfail(strict=True, reason=NORM_FLAG_REASON.format("grid"))
def test_grid_keeps_the_norm_flag():
    assert norm_flag_breaks((f"{name} grid_points {points}", of(name),
                             of(name, grid_points=points))
                            for name in POOL for points in GRID_POINTS) == []


@pytest.mark.xfail(strict=True, reason=NORM_FLAG_REASON.format("seed"))
def test_seed_keeps_the_norm_flag():
    assert norm_flag_breaks((f"{name} seed {seed}", of(name), of(name, seed=seed))
                            for name in POOL for seed in SEEDS) == []
