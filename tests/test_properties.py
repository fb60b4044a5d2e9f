"""Property-based checks of the theorem on random partition-of-unity bases
paired with random nonnegative discrete-measure functionals."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from pouspec.bases import clamped_knots, make_bspline_basis, make_hat_basis
from pouspec.functionals import DiracFunctional, WeightedQuadratureFunctional
from pouspec.operators import OperatorSpec
from pouspec.spectra import (CLASSIFICATION_VIOLATES, TOL_PERIPHERAL,
                             build_collocation_matrix, classify_spectrum, closed_classes,
                             eigenvalues, gershgorin_disks, iterate_limit)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def breakpoints(draw) -> np.ndarray:
    """Strictly increasing points from 0 to 1, no gap below 1e-3."""
    gaps = np.array(draw(st.lists(st.floats(min_value=1e-3, max_value=1.0),
                                  min_size=1, max_size=8)))
    pts = np.concatenate(([0.0], np.cumsum(gaps) / gaps.sum()))
    pts[-1] = 1.0
    return pts


@st.composite
def functional(draw):
    """A Dirac, or a rule on up to four nodes with Dirichlet-like weights."""
    if draw(st.booleans()):
        return DiracFunctional(draw(unit))
    size = draw(st.integers(min_value=1, max_value=4))
    nodes = draw(st.lists(unit, min_size=size, max_size=size))
    raw = np.array(draw(st.lists(st.floats(min_value=1e-3, max_value=1.0),
                                 min_size=size, max_size=size)))
    return WeightedQuadratureFunctional(nodes, raw / raw.sum())


@st.composite
def operators(draw) -> OperatorSpec:
    points = draw(breakpoints())
    if draw(st.booleans()):
        basis = make_hat_basis(points)
    else:
        degree = draw(st.integers(min_value=0, max_value=3))
        basis = make_bspline_basis(clamped_knots(points, degree), degree)
    funcs = draw(st.lists(functional(), min_size=basis.n, max_size=basis.n))
    return OperatorSpec(basis, funcs, name="random")


@st.composite
def permuted_diracs(draw) -> OperatorSpec:
    """Hat ``k`` read at node ``image[k]`` of a drawn permutation, so that
    every cycle of length d is a closed class of period d; some rows are
    then redrawn as random functionals, which joins or opens classes."""
    nodes = draw(breakpoints())
    image = draw(st.permutations(range(nodes.size)))
    funcs = [DiracFunctional(nodes[j]) for j in image]
    for k in draw(st.sets(st.integers(min_value=0, max_value=nodes.size - 1), max_size=2)):
        funcs[k] = draw(functional())
    return OperatorSpec(make_hat_basis(nodes), funcs, name="permuted")


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.one_of(operators(), permuted_diracs()))
def test_limit_exists_or_a_period_is_named(op):
    matrix = build_collocation_matrix(op).entries
    result = iterate_limit(matrix)
    periods = closed_classes(matrix)[1]
    if result.converged:
        limit = result.limit
        assert periods.max() == 1
        assert limit.min() >= -1e-12
        assert np.max(np.abs(limit.sum(axis=1) - 1.0)) <= 1e-12
        for product in (limit @ limit, limit @ matrix, matrix @ limit):
            assert np.max(np.abs(product - limit)) <= 1e-12
    else:
        assert periods.max() > 1
        assert result.message.startswith("no limit: closed class(es) of period ")


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(operators())
def test_random_operator_obeys_theorem(op):
    matrix = build_collocation_matrix(op)
    assert matrix.entries.min() >= -1e-12
    assert np.max(np.abs(matrix.row_sums() - 1.0)) <= 1e-12
    eigs = eigenvalues(matrix)
    assert np.max(np.abs(eigs)) <= 1.0 + 1e-8
    assert np.min(np.abs(eigs - 1.0)) <= 1e-8
    if matrix.diagonal_min() > TOL_PERIPHERAL:
        spectrum = classify_spectrum(eigs, gershgorin_disks(matrix))
        assert spectrum.classification != CLASSIFICATION_VIOLATES, spectrum.diagnostics
