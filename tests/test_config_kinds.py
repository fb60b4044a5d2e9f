"""The kind tables of ``pouspec.report``: every operator, basis and
functional kind in ``OPERATORS``, ``BASES`` and ``FUNCTIONALS`` parses from
a minimal config, round-trips through ``AnalysisConfig.echo``, builds to
its declared size, and names each of its fields when that field is
missing."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pouspec.cli import main
from pouspec.functionals import join
from pouspec.report import (BASES, FUNCTIONALS, OPERATORS, build_operator,
                            config_from_mapping)

DIRAC_0 = {"kind": "dirac", "x": 0.0}
DIRAC_1 = {"kind": "dirac", "x": 1.0}
HAT_01 = {"kind": "hat", "nodes": [0.0, 1.0]}

#: The fields of a minimal config of each kind.
OPERATOR_EXAMPLES = {
    "bernstein": {"n": 2},
    "kantorovich": {"n": 2},
    "schoenberg": {"knots": [0.0, 0.0, 0.5, 1.0, 1.0], "degree": 1},
    "hat-dirac": {"nodes": [0.0, 0.5, 1.0]},
    "custom": {"basis": HAT_01, "functionals": [DIRAC_0, DIRAC_1]},
}
#: Each of two functions, paired with point evaluation at 0 and 1.
BASIS_EXAMPLES = {
    "bernstein": {"n": 1},
    "bspline": {"knots": [0.0, 0.0, 1.0, 1.0], "degree": 1},
    "hat": {"nodes": [0.0, 1.0]},
}
#: Functional 0 of a custom operator on the hat basis over [0, 1], with
#: point evaluation at 1 as functional 1.
FUNCTIONAL_EXAMPLES = {
    "dirac": {"x": 0.0},
    "interval-average": {"a": 0.0, "b": 0.5},
    "weighted-quadrature": {"nodes": [0.0, 0.5], "weights": [0.5, 0.5]},
}


def _cases():
    """``(id, config, path to the kind's fields, error context, table, kind)``
    for every kind of the three tables."""
    for kind, params in OPERATOR_EXAMPLES.items():
        yield (f"operator-{kind}", {"operator": kind, **params}, (),
               f"operator '{kind}'", OPERATORS, kind)
    for kind, params in BASIS_EXAMPLES.items():
        yield (f"basis-{kind}",
               {"operator": "custom", "basis": {"kind": kind, **params},
                "functionals": [DIRAC_0, DIRAC_1]},
               ("basis",), "custom basis", BASES, kind)
    for kind, params in FUNCTIONAL_EXAMPLES.items():
        yield (f"functional-{kind}",
               {"operator": "custom", "basis": HAT_01,
                "functionals": [{"kind": kind, **params}, DIRAC_1]},
               ("functionals", 0), "functional[0]", FUNCTIONALS, kind)


CASES = {case[0]: case[1:] for case in _cases()}
FIELD_CASES = [(case_id, name) for case_id, (_, _, _, table, kind) in CASES.items()
               for name in table[kind].params]


def _at(config: dict, path: tuple) -> dict:
    for key in path:
        config = config[key]
    return config


@pytest.mark.parametrize("table, examples", [
    (OPERATORS, OPERATOR_EXAMPLES), (BASES, BASIS_EXAMPLES),
    (FUNCTIONALS, FUNCTIONAL_EXAMPLES)], ids=["operators", "bases", "functionals"])
def test_every_kind_has_an_example(table, examples):
    assert list(examples) == list(table)


@pytest.mark.parametrize("case_id", CASES)
def test_kind_parses_round_trips_and_builds(case_id):
    mapping, _, _, table, kind = CASES[case_id]
    config = config_from_mapping(mapping)
    assert config_from_mapping(json.loads(json.dumps(config.echo()))) == config
    op = build_operator(config)
    if table is OPERATORS:
        assert table[kind].size(config.params) == op.n
    elif table is BASES:
        assert table[kind].size(config.params["basis"]) == op.basis.n
    else:
        alone = table[kind].construct_all([config.params["functionals"][0]])
        assert op.functionals.kinds[0] == alone.kinds[0]


@pytest.mark.parametrize("case_id, name", FIELD_CASES,
                         ids=[f"{case_id}-{name}" for case_id, name in FIELD_CASES])
def test_dropping_a_field_exits_two_naming_it(tmp_path, capsys, case_id, name):
    mapping, fields_at, context, _, _ = CASES[case_id]
    config = json.loads(json.dumps(mapping))
    del _at(config, fields_at)[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["analyze", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {context}: missing required field '{name}'\n"


def test_catalog_lists_the_operator_kinds(capsys):
    assert main(["catalog"]) == 0
    lines = capsys.readouterr().out.splitlines()
    kinds = [line.split()[0] for line in lines
             if line.startswith("  ") and not line.startswith("   ")]
    assert kinds == list(OPERATORS)



def _custom_on_six_hats(functionals: list[dict]) -> dict:
    return {"operator": "custom",
            "basis": {"kind": "hat", "nodes": [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]},
            "functionals": functionals}


def _dirac(x):
    return {"kind": "dirac", "x": x}


def _average(a, b):
    return {"kind": "interval-average", "a": a, "b": b}


def _quadrature(nodes, weights):
    return {"kind": "weighted-quadrature", "nodes": nodes, "weights": weights}


unit = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def _specs(draw) -> dict:
    """A valid functional spec of any kind: nodes in [0, 1], cells at
    least 1e-3 wide."""
    kind = draw(st.sampled_from(list(FUNCTIONALS)))
    if kind == "dirac":
        return _dirac(draw(unit))
    if kind == "interval-average":
        a = draw(st.floats(min_value=0.0, max_value=0.99))
        return _average(a, draw(st.floats(min_value=a + 1e-3, max_value=1.0)))
    size = draw(st.integers(min_value=1, max_value=5))
    raw = np.array(draw(st.lists(st.floats(min_value=1e-3, max_value=1.0),
                                 min_size=size, max_size=size)))
    return _quadrature(draw(st.lists(unit, min_size=size, max_size=size)),
                       (raw / raw.sum()).tolist())


class TestCustomFunctionalOrder:
    """A custom operator builds the functionals of each kind together, but
    keeps config order and names the first spec that fails, as building
    them one at a time in order would."""

    @pytest.mark.parametrize("functionals, error, message", [
        ([_dirac(0.0), _average(0.1, 0.3), _quadrature([0.4, 0.5], [0.5, 0.5]),
          _average(0.7, 0.6), _dirac(0.8), _quadrature([0.9, 1.0], [1.0])],
         "ConfigError", "functional[3]: interval average requires a < b, got [0.7, 0.6]"),
        ([_average(0.0, 0.2), _dirac(1.5), _quadrature([0.4, 0.5], [0.5, 0.5]),
          _average(0.6, 0.7), _dirac(0.8), _dirac(1.0)],
         "DomainError", "custom: functional 1 (dirac(1.5)): x=1.5 outside domain [0.0, 1.0]"),
        ([_average(0.0, 0.2), _dirac(1.5), _quadrature([0.4, 0.5], [0.5, 0.5]),
          _average(0.7, 0.6), _dirac(0.8), _dirac(1.0)],
         "ConfigError", "functional[3]: interval average requires a < b, got [0.7, 0.6]"),
        ([_average(0.0, 0.2), _dirac(0.5), _quadrature([0.4, 0.5], [1.0]),
          _average(0.7, 0.6), _dirac(0.8), _dirac(1.0)],
         "ConfigError", "functional[2]: functional nodes and weights differ in length"),
        ([_quadrature([0.4, -0.5], [0.5, 0.5]), _dirac(0.5), _average(0.3, 0.6),
          _average(0.7, 0.8), _dirac(0.8), _dirac(1.0)],
         "DomainError",
         "custom: functional 0 (quad(2 nodes)): x=-0.5 outside domain [0.0, 1.0]"),
    ], ids=["reversed-at-3", "outside-at-1", "outside-at-1-reversed-at-3",
            "quadrature-at-2-reversed-at-3", "quadrature-outside-at-0"])
    def test_first_failing_spec_is_named(self, functionals, error, message):
        config = config_from_mapping(_custom_on_six_hats(functionals))
        with pytest.raises(Exception) as caught:
            build_operator(config)
        assert type(caught.value).__name__ == error
        assert str(caught.value) == message

    def test_functionals_keep_config_order(self):
        specs = [_dirac(0.0), _average(0.1, 0.3), _quadrature([0.4, 0.5], [0.5, 0.5]),
                 _average(0.5, 0.6), _dirac(0.8), _dirac(1.0)]
        op = build_operator(config_from_mapping(_custom_on_six_hats(specs)))
        assert [op.functionals.name(k) for k in range(op.n)] == [
            "dirac(0)", "avg[0.1,0.3]", "quad(2 nodes)", "avg[0.5,0.6]", "dirac(0.8)",
            "dirac(1)"]

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(specs=st.lists(_specs(), min_size=2, max_size=12), data=st.data())
    @example(specs=[_dirac(0.0), _average(0.1, 0.3), _quadrature([0.4, 0.5], [0.5, 0.5]),
                    _average(0.5, 0.6), _dirac(0.8), _dirac(1.0)],
             data=None)
    def test_each_member_equals_its_spec_built_alone(self, specs, data):
        # Through a custom config (each kind built in one call, then
        # joined), and through ``join`` of the specs built one by one in a
        # random order: member k has the bits, name, kind and cell of spec k
        # built on its own.
        alone = [FUNCTIONALS[spec["kind"]].construct_all([spec]) for spec in specs]
        config = {"operator": "custom",
                  "basis": {"kind": "hat", "nodes": np.linspace(0.0, 1.0, len(specs)).tolist()},
                  "functionals": specs}
        order = list(range(len(specs)))
        if data is not None:
            order = data.draw(st.permutations(order))
        joined = [build_operator(config_from_mapping(config)).functionals,
                  join([alone[k] for k in order], order)]
        for fs in joined:
            assert fs.n == len(specs)
            for k, single in enumerate(alone):
                (nodes, weights), (single_nodes, single_weights) = fs.rule(k), single.rule(0)
                assert nodes.tobytes() == single_nodes.tobytes()
                assert weights.tobytes() == single_weights.tobytes()
                assert fs.name(k) == single.name(0)
                assert fs.kinds[k] == single.kinds[0]
                assert fs.a[k:k + 1].tobytes() == single.a.tobytes()
                assert fs.b[k:k + 1].tobytes() == single.b.tobytes()

    def test_each_kind_is_built_once(self, monkeypatch):
        # Alternating kinds: one builder call per kind, however the specs
        # interleave, and none per spec.
        calls = {kind: 0 for kind in FUNCTIONALS}
        for kind, row in FUNCTIONALS.items():
            def counted(*args, kind=kind, build=row.build, **kwargs):
                calls[kind] += 1
                return build(*args, **kwargs)
            monkeypatch.setitem(FUNCTIONALS, kind, dataclasses.replace(row, build=counted))
        specs = [[_dirac(x), _average(x, x + 0.01), _quadrature([x, x + 0.01], [0.5, 0.5])][k % 3]
                 for k, x in enumerate(np.linspace(0.0, 0.9, 30).tolist())]
        config = {"operator": "custom",
                  "basis": {"kind": "hat", "nodes": np.linspace(0.0, 1.0, 30).tolist()},
                  "functionals": specs}
        op = build_operator(config_from_mapping(config))
        assert op.n == 30
        assert calls == {kind: 1 for kind in FUNCTIONALS}
