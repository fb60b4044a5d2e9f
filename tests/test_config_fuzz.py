"""Fuzzed configurations: every mutation of a small valid config ends in
exit 0, 1 or 2 with at most one ``error:`` line, never a traceback."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import tempfile

from hypothesis import given, settings, strategies as st

from pouspec.cli import main

BASE_CONFIGS = (
    {"version": 1, "operator": "bernstein", "n": 3, "grid_points": 101, "seed": 7,
     "tolerances": {"pou": 1e-10, "peripheral": 1e-8, "norm": 1e-10}},
    {"operator": "kantorovich", "n": 2, "grid_points": 101},
    {"operator": "schoenberg", "degree": 2, "knots": [0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0],
     "grid_points": 101},
    {"operator": "hat-dirac", "nodes": [0.0, 0.3, 1.0], "grid_points": 101},
    {"operator": "custom", "basis": {"kind": "hat", "nodes": [0.0, 0.5, 1.0]},
     "functionals": [{"kind": "dirac", "x": 0.0},
                     {"kind": "interval-average", "a": 0.25, "b": 0.75},
                     {"kind": "weighted-quadrature", "nodes": [0.9, 1.0],
                      "weights": [0.5, 0.5]}],
     "grid_points": 101},
    {"operator": "custom", "basis": {"kind": "bspline", "degree": 1,
                                     "knots": [0.0, 0.0, 0.5, 1.0, 1.0]},
     "functionals": [{"kind": "dirac", "x": 0.0}, {"kind": "dirac", "x": 0.5},
                     {"kind": "dirac", "x": 1.0}],
     "grid_points": 101, "seed": 3},
    {"operator": "custom", "basis": {"kind": "bernstein", "n": 1},
     "functionals": [{"kind": "dirac", "x": 1.0}, {"kind": "dirac", "x": 0.0}],
     "grid_points": 101},
)

# 10**400 is past the float range: an integer JSON reads exactly but
# float() cannot convert.
REPLACEMENTS = (float("nan"), float("inf"), float("-inf"), -1, 0, 10**6, 10**400, 1e300,
                "x", [], {}, None, True)


def _children(node):
    if isinstance(node, dict):
        return node.items()
    return enumerate(node) if isinstance(node, list) else ()


def _values(node, path=()):
    """Paths of every value below ``node`` (leaves, lists and maps)."""
    for key, child in _children(node):
        yield path + (key,)
        yield from _values(child, path + (key,))


def _maps(node, path=()):
    """Paths of every map in ``node``, the root included."""
    if isinstance(node, dict):
        yield path
    for key, child in _children(node):
        yield from _maps(child, path + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


@st.composite
def mutated_configs(draw) -> dict:
    config = copy.deepcopy(draw(st.sampled_from(BASE_CONFIGS)))
    mutation = draw(st.sampled_from(("replace", "drop", "add")))
    if mutation == "replace":
        *parent, key = draw(st.sampled_from(list(_values(config))))
        _at(config, parent)[key] = draw(st.sampled_from(REPLACEMENTS))
    elif mutation == "drop":
        keyed = [(path, key) for path in _maps(config) for key in _at(config, path)]
        path, key = draw(st.sampled_from(keyed))
        del _at(config, path)[key]
    else:
        _at(config, draw(st.sampled_from(list(_maps(config)))))["unknown_field"] = 1
    return config


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(mutated_configs(), st.sampled_from(("analyze", "verify", "oracle")))
def test_mutated_config_exits_cleanly(config, command):
    stdout, stderr = io.StringIO(), io.StringIO()
    # The config file is written to a directory of its own.
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        with open("config.json", "w", encoding="utf-8") as handle:
            handle.write(json.dumps(config))
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([command, "--config", "config.json"])
    assert code in (0, 1, 2), (config, code)
    errors = [line for line in stderr.getvalue().splitlines() if "error:" in line]
    assert len(errors) <= 1, (config, stderr.getvalue())
    assert code != 2 or errors, config
