"""Operators: assembly, application, lemma checks, kernel witnesses."""

from __future__ import annotations

import numpy as np
import numpy.testing as nptest
import pytest

from pouspec import operators
from pouspec.bases import (BasisSystem, make_bernstein_basis, make_bspline_basis,
                           make_hat_basis)
from pouspec.errors import ConfigError, DomainError, NotConstructibleError
from pouspec.functionals import (check_functional_normalization, dirac_functionals,
                                 first_unnormalized, interval_average_functionals,
                                 make_kantorovich_functionals, quadrature_functionals)
from pouspec.functions import DrawnTestFunctions, draw_test_functions, grid
from pouspec.operators import (OperatorSpec, _candidate_witness, bernstein_operator,
                               coefficient_vector, estimate_operator_norm,
                               greville_abscissae, hat_dirac_operator,
                               kantorovich_operator, kernel_witness_report,
                               schoenberg_operator, verify_constant_reproduction,
                               verify_norm_bound, verify_positivity)
from pouspec.spectra import build_collocation_matrix

from helpers import (adjoint_pairing, average, candidate_witness_two_pass, clamped_knots,
                     dirac, greville_loop, image, in_order, norm_estimate_oracle, one,
                     pairing, positivity_oracle, quadrature, random_breakpoints,
                     random_function_oracle, rules, validate_functionals_one_by_one,
                     verified_two_pass, verify_adjoint_identity)

GRID = np.linspace(0.0, 1.0, 1001)
SIGNS = np.array([1.0, -1.0, 1.0, 1.0, -1.0, 1.0, -1.0, -1.0])


def catalog_operators():
    return [
        bernstein_operator(2),
        bernstein_operator(8),
        kantorovich_operator(1),
        kantorovich_operator(5),
        schoenberg_operator(clamped_knots([0.0, 0.25, 0.6, 1.0], 2), 2),
        schoenberg_operator(clamped_knots([0.0, 0.3, 0.7, 1.0], 3), 3),
        hat_dirac_operator([0.0, 0.4, 1.0]),
    ]


class TestConstruction:
    def test_count_mismatch_rejected(self):
        basis = make_hat_basis([0.0, 0.5, 1.0])
        with pytest.raises(ConfigError):
            OperatorSpec(basis, dirac(0.0), name="short")

    def test_validation_rejects_scaled_basis(self):
        base = bernstein_operator(2)
        shrunk = BasisSystem(lambda xs: 0.9 * base.basis.values(xs), base.basis.n,
                             name="shrunk")
        with pytest.raises(ConfigError):
            OperatorSpec(shrunk, base.functionals)

    def test_validation_rejects_denormalized_functional(self):
        basis = make_hat_basis([0.0, 1.0])
        bad = quadrature([0.3], [0.9])
        with pytest.raises(ConfigError):
            OperatorSpec(basis, in_order(dirac(0.0), bad))

    def test_validation_names_first_functional_outside_domain(self):
        funcs = in_order(dirac(0.0), dirac(1.5), dirac(-0.5))
        with pytest.raises(DomainError) as err:
            OperatorSpec(make_hat_basis([0.0, 0.5, 1.0]), funcs, name="far")
        assert str(err.value) == "far: functional 1 (dirac(1.5)): x=1.5 outside domain [0.0, 1.0]"

    @pytest.mark.parametrize("bad_first, error", [
        ("mass", ConfigError), ("domain", DomainError),
    ])
    def test_validation_checks_functionals_in_order(self, bad_first, error):
        # Functional k's nodes, then its mass, in order of k: the first
        # faulty functional decides which error is raised.
        denormalized = quadrature([0.3], [0.9])
        outside = dirac(1.5)
        funcs = (in_order(denormalized, outside) if bad_first == "mass"
                 else in_order(outside, denormalized))
        with pytest.raises(error, match="functional 0 "):
            OperatorSpec(make_hat_basis([0.0, 1.0]), funcs)

    @pytest.mark.parametrize("validate", [True, False])
    @pytest.mark.parametrize("funcs, message", [
        (in_order(dirac(0.0), dirac(1.5), dirac(-2.0)),
         "functional 1 (dirac(1.5)): x=1.5"),
        (in_order(dirac(0.0), dirac(0.5), dirac(1.5)),
         "functional 2 (dirac(1.5)): x=1.5"),
        (in_order(dirac(0.0),
          quadrature([0.5, 1.25, -0.5], [0.25, 0.25, 0.5]),
          dirac(1.0)),
         "functional 1 (quad(3 nodes)): x=1.25"),
        (in_order(dirac(0.0),
          quadrature([0.5, 1.25, 1.5], [0.2, 0.4, 0.4]),
          dirac(1.5)),
         "functional 1 (quad(3 nodes)): x=1.25"),
    ], ids=["second-dirac", "last-dirac", "quadrature-both-sides", "quadrature-then-dirac"])
    def test_node_outside_domain_rejected_whatever_validate(self, funcs, message, validate):
        # The nodes lie in [0, 1] for every operator built, so no check and
        # no collocation assembly has to test them again.
        with pytest.raises(DomainError) as err:
            OperatorSpec(make_hat_basis([0.0, 0.5, 1.0]), funcs, name="doctored",
                         validate=validate)
        assert str(err.value) == f"doctored: {message} outside domain [0.0, 1.0]"

    @pytest.mark.parametrize("funcs", [
        in_order(dirac(0.0), dirac(0.3),
         quadrature([0.4, 0.6], [1.25, -0.25]), dirac(1.0)),
        in_order(dirac(0.0), quadrature([0.4, 0.6], [0.5, 0.5 + 2e-12]),
         dirac(0.7), dirac(1.0)),
        in_order(dirac(0.0), quadrature([0.4, 0.6], [0.5, 0.5 + 5e-13]),
         dirac(0.7), dirac(1.0)),
        in_order(average(0.0, 0.3), dirac(0.4),
         quadrature([0.5, 0.6, 0.7], [0.2, 0.3, 0.4]),
         average(0.7, 1.0)),
        in_order(dirac(0.0), quadrature([0.2, 0.3], [0.6, 0.6]),
         dirac(1.5), quadrature([0.8], [-1.0])),
        in_order(dirac(0.0), dirac(1.5),
         quadrature([0.2, 0.3], [0.6, 0.6]), dirac(1.0)),
        in_order(dirac(0.0), average(0.1, 0.5),
         quadrature([0.6, 0.7, 0.8], [0.5, 0.5, -2e-12]),
         dirac(1.0)),
    ], ids=["negative-weight", "mass-off-by-2e-12", "mass-off-by-5e-13",
            "mixed-rule-sizes", "mass-before-domain", "domain-before-mass",
            "tiny-negative-weight"])
    def test_validation_matches_one_functional_at_a_time(self, funcs):
        # One pass checks every functional; the error, its text and which
        # functional it names are those of checking them one at a time.
        basis = make_hat_basis([0.0, 0.3, 0.6, 1.0])
        try:
            validate_functionals_one_by_one("doctored", funcs)
            expected = None
        except (ConfigError, DomainError) as exc:
            expected = (type(exc), str(exc))
        try:
            OperatorSpec(basis, funcs, name="doctored")
            found = None
        except (ConfigError, DomainError) as exc:
            found = (type(exc), str(exc))
        assert found == expected

    def test_one_pass_finds_the_first_unnormalized_rule(self):
        # Masses within a rounding of the tolerance, over rule sizes 1 to
        # 1000: the one pass agrees with each rule's own check.
        rng = np.random.default_rng(11)
        for _ in range(20):
            members = []
            for size in rng.integers(1, 1001, size=12):
                weights = rng.dirichlet(np.ones(size))
                weights[rng.integers(size)] += rng.choice([0.0, 0.99e-12, 1.01e-12, -1e-12])
                members.append(quadrature(np.full(size, 0.5), weights))
            expected = next((k for k, rule in enumerate(members)
                             if not check_functional_normalization(rule, 0).passed),
                            len(members))
            joined = in_order(*members)
            assert first_unnormalized(joined.weights, joined.starts) == expected

    def test_validate_false_allows_doctored(self):
        basis = make_hat_basis([0.0, 1.0])
        bad = quadrature([0.2, 0.8], [1.3, -0.3])
        op = OperatorSpec(basis, in_order(dirac(0.0), bad), name="doctored",
                          validate=False)
        assert op.n == 2

    def test_greville_abscissae(self):
        knots = clamped_knots([0.0, 0.5, 1.0], 2)
        nptest.assert_allclose(greville_abscissae(knots, 2), [0.0, 0.25, 0.75, 1.0])

    @pytest.mark.parametrize("degree", [1, 2, 3, 5, 8, 9, 17, 30])
    def test_greville_abscissae_equal_the_loop(self, degree):
        # One mean over sliding windows of the inner knots, with the bits of
        # each knot average taken on its own (pairwise summation from eight
        # knots on).
        rng = np.random.default_rng(degree)
        for _ in range(50):
            breakpoints = random_breakpoints(rng, interior=int(rng.integers(0, 40)),
                                             min_gap=0.0)
            knots = clamped_knots(breakpoints, degree)
            assert greville_abscissae(knots, degree).tobytes() == \
                greville_loop(knots, degree).tobytes()

    def test_greville_abscissae_of_too_few_knots_are_empty(self):
        for knots in ([0.0, 1.0], [0.0, 0.5, 1.0]):
            assert greville_abscissae(knots, 3).tobytes() == greville_loop(knots, 3).tobytes()
            assert greville_abscissae(knots, 3).shape == (0,)

    def test_schoenberg_degree_one_is_nodal(self):
        op = schoenberg_operator(clamped_knots([0.0, 0.5, 1.0], 1), 1)
        xs = op.functionals.a
        nptest.assert_allclose(xs, [0.0, 0.5, 1.0])


def _joined_rule_parts():
    """(basis, parts) of Kantorovich n = 7, a hat basis with cell averages,
    and a hat basis with mixed Dirac/quadrature functionals: the
    functionals are the members of the parts, in order."""
    pts = np.array([0.0, 0.2, 0.45, 0.7, 1.0])
    edges = np.concatenate(([0.0], (pts[:-1] + pts[1:]) / 2.0, [1.0]))
    return {
        "kantorovich-7": (make_bernstein_basis(7), (make_kantorovich_functionals(7),)),
        "hat-average": (make_hat_basis(pts),
                        tuple(average(a, b) for a, b in zip(edges, edges[1:]))),
        "dirac-quadrature": (make_hat_basis([0.0, 0.5, 1.0]),
                             (dirac(0.0), quadrature([0.4, 0.5, 0.6], [0.25, 0.5, 0.25]),
                              dirac(1.0))),
    }


@pytest.mark.parametrize("validate", [True, False])
@pytest.mark.parametrize("parts", ["kantorovich-7", "hat-average", "dirac-quadrature"])
class TestJoinedRule:
    def test_joined_arrays_concatenate_functionals(self, parts, validate):
        basis, parts = _joined_rule_parts()[parts]
        op = OperatorSpec(basis, in_order(*parts), validate=validate)
        fs = op.functionals
        nptest.assert_array_equal(fs.nodes, np.concatenate([p.nodes for p in parts]))
        nptest.assert_array_equal(fs.weights, np.concatenate([p.weights for p in parts]))
        sizes = [nodes.size for p in parts for nodes, _ in rules(p)]
        nptest.assert_array_equal(fs.starts, np.cumsum([0] + sizes[:-1]))
        for array in (fs.nodes, fs.weights, fs.starts):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.5

    def test_same_parts_compare_equal(self, parts, validate):
        basis, parts = _joined_rule_parts()[parts]
        funcs = in_order(*parts)
        first = OperatorSpec(basis, funcs, name="op", validate=validate)
        second = OperatorSpec(basis, funcs, name="op", validate=validate)
        assert first == second
        assert hash(first) == hash(second)
        assert repr(first) == f"OperatorSpec(basis={basis!r}, functionals={funcs!r}, name='op')"

    def test_coefficient_vector_matches_functionals(self, parts, validate):
        basis, parts = _joined_rule_parts()[parts]
        funcs = in_order(*parts)
        op = OperatorSpec(basis, funcs, validate=validate)
        rng = np.random.default_rng(11)
        for f in (one, lambda xs: xs ** 3, random_function_oracle(rng),
                  random_function_oracle(rng)):
            nptest.assert_allclose(coefficient_vector(op, f),
                                   [pairing(funcs, f, k) for k in range(funcs.n)],
                                   rtol=0, atol=1e-14)


class TestApplication:
    @pytest.mark.parametrize("op", catalog_operators(), ids=lambda o: o.name)
    def test_reproduces_constants(self, op):
        vals = image(op, one, GRID)
        assert np.max(np.abs(vals - 1.0)) <= 1e-12

    def test_bernstein2_reproduces_linear(self):
        op = bernstein_operator(2)
        vals = image(op, lambda xs: xs, GRID)
        assert np.max(np.abs(vals - GRID)) <= 1e-12

    def test_bernstein2_annihilates_full_sine(self):
        # sin(2 pi x) vanishes at the nodes 0, 1/2, 1.
        op = bernstein_operator(2)
        vals = image(op, lambda xs: np.sin(2 * np.pi * xs), GRID)
        assert np.max(np.abs(vals)) <= 1e-14

    def test_coefficients_are_node_values(self):
        op = bernstein_operator(2)
        nptest.assert_allclose(coefficient_vector(op, lambda xs: xs), [0.0, 0.5, 1.0],
                               atol=1e-15)


class TestAdjoint:
    def test_dirac_dual_equals_point_value(self):
        op = bernstein_operator(3)
        def f(xs):
            return xs ** 2

        for x0 in (0.0, 0.37, 1.0):
            assert adjoint_pairing(op, dirac(x0), f) == \
                pytest.approx(image(op, f, np.array([x0]))[0], abs=1e-14)

    def test_bernstein2_linear_at_half(self):
        # T reproduces linears, so dual = point mass at 1/2 gives 1/2.
        assert adjoint_pairing(bernstein_operator(2), dirac(0.5),
                               lambda xs: xs) == pytest.approx(0.5, abs=1e-14)

    def test_unit_maps_to_one(self):
        op = kantorovich_operator(3)
        dual = average(0.2, 0.9)
        assert adjoint_pairing(op, dual, one) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("op", catalog_operators(), ids=lambda o: o.name)
    def test_adjoint_identity_check(self, op):
        result = verify_adjoint_identity(op, pairs=50, tol=1e-10, seed=11)
        assert result.passed, result


class TestPositivityAndNorm:
    def test_kantorovich_positive_on_square(self):
        op = kantorovich_operator(3)
        vals = image(op, lambda xs: xs ** 2, GRID)
        assert vals.min() >= 0.0

    def test_zero_maps_to_zero(self):
        op = bernstein_operator(4)
        coeffs = coefficient_vector(op, np.zeros_like)
        nptest.assert_array_equal(coeffs, np.zeros(5))

    @pytest.mark.parametrize("op", catalog_operators(), ids=lambda o: o.name)
    def test_positivity_check(self, op):
        result = verify_positivity(op, GRID, op.basis.values(GRID), trials=100, tol=1e-10, seed=3)
        assert result.passed, result

    def test_doctored_negative_weight_fails(self):
        basis = make_hat_basis([0.0, 1.0])
        bad = quadrature([0.2, 0.8], [1.5, -0.5])
        op = OperatorSpec(basis, in_order(dirac(0.0), bad), name="doctored",
                          validate=False)
        result = verify_positivity(op, GRID, op.basis.values(GRID), trials=100, tol=1e-10, seed=3)
        assert not result.passed

    def test_norm_includes_constant_witness(self):
        op = bernstein_operator(5)
        estimate = estimate_operator_norm(op, GRID, op.basis.values(GRID), trials=10, seed=0)
        assert 1.0 - 1e-12 <= estimate <= 1.0 + 1e-10

    def test_full_sine_has_zero_ratio(self):
        op = bernstein_operator(2)
        tf = image(op, lambda xs: np.sin(2 * np.pi * xs), GRID)
        assert np.max(np.abs(tf)) <= 1e-14

    def test_kantorovich_norm_bound(self):
        op = kantorovich_operator(4)
        estimate = estimate_operator_norm(op, GRID, op.basis.values(GRID), trials=200, seed=7)
        assert 0.5 <= estimate <= 1.0 + 1e-10

    @pytest.mark.parametrize("op", catalog_operators(), ids=lambda o: o.name)
    def test_norm_check(self, op):
        result = verify_norm_bound(op, GRID, op.basis.values(GRID), trials=60, seed=5)
        assert result.passed, result

    @pytest.mark.parametrize("op", catalog_operators()[:4], ids=lambda o: o.name)
    def test_rank_bound(self, op):
        # Images of 2n random functions span at most n directions.
        rng = np.random.default_rng(17)
        rows = [image(op, random_function_oracle(rng), GRID) for _ in range(2 * op.n)]
        sv = np.linalg.svd(np.vstack(rows), compute_uv=False)
        assert sv[op.n:].max(initial=0.0) <= 1e-8 * sv[0]


def block_check_operators():
    """Every catalog kind, a hat basis with cell averages, a crossed-Dirac
    derangement, mixed Dirac/average functionals, cell averages on a
    B-spline basis (whose values come out F-ordered), and doctored
    operators: zero weights, a zero first weight, a basis with negative
    values and weights in the subnormal range."""
    hat_nodes = [0.0, 0.15, 0.4, 0.75, 1.0]
    edges = np.concatenate(([0.0], np.convolve(hat_nodes, [0.5, 0.5], "valid"), [1.0]))
    averages = tuple(average(a, b) for a, b in zip(edges, edges[1:]))
    knots = clamped_knots([0.0, 0.3, 0.55, 1.0], 3)
    spline_edges = np.linspace(0.0, 1.0, 7)
    return [
        bernstein_operator(7),
        kantorovich_operator(6),
        schoenberg_operator(knots, 3),
        hat_dirac_operator(hat_nodes),
        OperatorSpec(make_hat_basis(hat_nodes), in_order(*averages), name="hat-average"),
        OperatorSpec(make_hat_basis(hat_nodes), dirac_functionals(np.roll(hat_nodes, 2)),
                     name="custom-swap"),
        OperatorSpec(make_hat_basis(hat_nodes),
                     in_order(*(dirac(x) if k % 2 == 0 else a
                                for k, (x, a) in enumerate(zip(hat_nodes, averages)))),
                     name="custom-mixed"),
        OperatorSpec(make_bspline_basis(knots, 3),
                     interval_average_functionals(spline_edges[:-1], spline_edges[1:]),
                     name="bspline-average"),
        # T = 0: every test function ties at the minimum 0.
        OperatorSpec(make_hat_basis([0.0, 1.0]),
                     in_order(*[quadrature([0.5], [0.0])] * 2),
                     name="zero-weights", validate=False),
        # Tf(0) = 0 and Tf > 0 elsewhere: every test function ties at the
        # minimum 0, at x = 0.
        OperatorSpec(make_hat_basis(hat_nodes),
                     in_order(quadrature([0.0], [0.0]), *averages[1:]),
                     name="tied-at-zero", validate=False),
        # Alternating signs: the images are bounded without a nonnegative basis.
        OperatorSpec(BasisSystem(lambda xs: SIGNS[:, None] * make_bernstein_basis(7).values(xs),
                                 8, name="signed-bernstein"),
                     bernstein_operator(7).functionals, name="signed-bernstein",
                     validate=False),
        # Coefficients and images below 2**-1022, where products lose bits.
        OperatorSpec(make_bernstein_basis(6),
                     quadrature_functionals(
                         *zip(*((nodes, weights * 2.0 ** -1060)
                                for nodes, weights in rules(make_kantorovich_functionals(6))))),
                     name="subnormal-kantorovich", validate=False),
    ]


class TestBlockChecks:
    """The positivity and norm checks, run on blocks of test functions,
    against the same checks run one function at a time."""

    def test_operators_cover_f_ordered_values(self):
        layouts = {op.basis.values(GRID).flags.c_contiguous for op in block_check_operators()}
        assert layouts == {True, False}

    # At 20001 points one test function has more values than a block holds
    # (operators.TRIAL_BLOCK_VALUES), so each block holds one test function.
    @pytest.mark.parametrize("trials", [1, 7, 100, 200])
    @pytest.mark.parametrize("points", [11, 97, 1001, 20001])
    @pytest.mark.parametrize("op", block_check_operators(), ids=lambda o: o.name)
    def test_equal_to_one_trial_at_a_time(self, op, points, trials):
        xs = grid(points)
        values = op.basis.values(xs)
        assert verify_positivity(op, xs, values, trials=trials, seed=points) == \
            positivity_oracle(op, xs, values, trials=trials, seed=points)
        assert estimate_operator_norm(op, xs, values, trials=trials, seed=points + 1) == \
            norm_estimate_oracle(op, xs, values, trials=trials, seed=points + 1)

    # The largest operators the CLI analyses, at the default grid.
    @pytest.mark.parametrize("op", [bernstein_operator(499),
                                    hat_dirac_operator(np.linspace(0.0, 1.0, 500))],
                             ids=lambda o: o.name)
    def test_equal_to_one_trial_at_a_time_at_top_size(self, op):
        assert verify_positivity(op, GRID, op.default_values) == \
            positivity_oracle(op, GRID, op.default_values)
        assert estimate_operator_norm(op, GRID, op.default_values, seed=43) == \
            norm_estimate_oracle(op, GRID, op.default_values, seed=43)

    def test_bounds_skip_most_images(self, monkeypatch):
        # Cell averages of a smooth f lie strictly inside its range, so the
        # coefficient bounds rule out all but a few of the 300 trials.
        rows = []
        images = operators._images
        monkeypatch.setattr(operators, "_images",
                            lambda coeffs, values: rows.append(len(coeffs))
                            or images(coeffs, values))
        op = kantorovich_operator(30)
        verify_positivity(op, GRID, op.default_values)
        estimate_operator_norm(op, GRID, op.default_values, seed=43)
        assert 0 < sum(rows) < 300 / 4

    def test_checks_evaluate_each_trial_once(self, monkeypatch):
        # Each check evaluates its drawn trials in kind-pure blocks of at
        # most TRIAL_BLOCK_VALUES values, every trial in exactly one block.
        calls = []
        blocks = DrawnTestFunctions.blocks

        def spy(self, size, xs):
            for rows, values in blocks(self, size, xs):
                calls.append((rows, self.kinds[rows], values.size))
                yield rows, values

        monkeypatch.setattr(DrawnTestFunctions, "blocks", spy)
        op = kantorovich_operator(4)
        basis_values = op.basis.values(GRID)
        for check, trials in ((verify_positivity, 100), (estimate_operator_norm, 200),
                              (verify_norm_bound, 200)):
            calls.clear()
            check(op, GRID, basis_values)
            assert sorted(np.concatenate([rows for rows, _, _ in calls]).tolist()) == \
                list(range(trials))
            for _, kinds, size in calls:
                assert np.unique(kinds).size == 1
                assert size <= operators.TRIAL_BLOCK_VALUES

    def test_only_the_reported_trial_is_named(self, monkeypatch):
        named = []
        name = DrawnTestFunctions.name
        monkeypatch.setattr(DrawnTestFunctions, "name",
                            lambda self, i: named.append(i) or name(self, i))
        op = kantorovich_operator(4)
        basis_values = op.basis.values(GRID)
        result = verify_positivity(op, GRID, basis_values, seed=5)
        draw = draw_test_functions(np.random.default_rng(5), 100, nonnegative=True)
        assert len(named) == 1
        assert result.detail.endswith(f"at f = {name(draw, named[0])}")
        estimate_operator_norm(op, GRID, basis_values)
        assert len(named) == 1

    def test_norm_grid_outside_domain_rejected(self):
        op = bernstein_operator(2)
        xs = np.array([0.0, 0.5, 1.5])
        with pytest.raises(DomainError, match=r"^norm-estimate check grid: x=1.5 outside"):
            estimate_operator_norm(op, xs, op.basis.values(np.array([0.0, 0.5, 1.0])))


class TestConstantReproductionCheck:
    def test_bernstein_tight(self):
        op = bernstein_operator(8)
        result = verify_constant_reproduction(op, GRID, op.basis.values(GRID), tol=1e-12)
        assert result.passed

    def test_kantorovich_with_quadrature(self):
        op = kantorovich_operator(5)
        result = verify_constant_reproduction(op, GRID, op.basis.values(GRID), tol=1e-10)
        assert result.passed

    def test_scaled_basis_fails(self):
        base = bernstein_operator(3)
        shrunk = BasisSystem(lambda xs: 0.99 * base.basis.values(xs), base.basis.n,
                             name="shrunk")
        op = OperatorSpec(shrunk, base.functionals, name="shrunk", validate=False)
        result = verify_constant_reproduction(op, GRID, op.basis.values(GRID), tol=1e-10)
        assert not result.passed
        assert result.value == pytest.approx(0.01, abs=1e-12)


def _witness(op, xs=GRID):
    """The kernel witness of ``op`` on ``xs`` and ``Tw`` on ``GRID``."""
    _, on_xs, on_nodes = _candidate_witness(op, xs)
    fs = op.functionals
    return on_xs, np.add.reduceat(fs.weights * on_nodes, fs.starts) @ op.basis.values(GRID)


def witness_operators():
    """Operators of every witness construction: equally spaced and
    irregular nodes (300 of them, more than one block of the product of
    sines), equal and unequal cells, and cells that meet or overlap by up
    to 1e-12, one of them narrower than the overlap, and one cell off the
    origin, with grid points before it. Among the irregular nodes: repeats
    and nodes within 1e-12 of a kept node, which the product evaluates;
    a -0.0 beside 0.0; and a node below 0 within the domain slack, where the
    signs of the factors at the kept nodes are not those of ``x - node``."""
    nodes = np.sort(np.random.default_rng(4).uniform(size=298))
    hat = make_hat_basis([0.0, 0.5, 1.0])
    hat4 = make_hat_basis([0.0, 0.3, 0.6, 1.0])
    return [
        *catalog_operators(),
        hat_dirac_operator(np.concatenate(([0.0], nodes, [1.0]))),
        OperatorSpec(hat4, in_order(quadrature([0.1, 0.1 + 5e-13], [0.5, 0.5]),
                            dirac(0.3),
                            quadrature([0.6, 0.6 - 4e-13, 0.7, 0.3],
                                                         [0.2, 0.3, 0.4, 0.1]),
                            dirac(1.0)), name="near-duplicates"),
        OperatorSpec(hat, in_order(dirac(0.0),
                           quadrature([-0.0, 0.4], [0.5, 0.5]),
                           dirac(1.0)), name="negative-zero"),
        OperatorSpec(hat, in_order(quadrature([-0.0, 0.4], [0.5, 0.5]),
                           dirac(0.0),
                           dirac(1.0)), name="negative-zero-first"),
        OperatorSpec(hat, in_order(dirac(-1e-13), dirac(0.4),
                           dirac(1.0)), name="below-zero"),
        OperatorSpec(hat, in_order(average(0.0, 0.3),
                           average(0.3 - 1e-12, 0.55),
                           average(0.55 - 5e-13, 1.0)), name="overlap"),
        OperatorSpec(hat, in_order(average(0.0, 0.5),
                           average(0.5, 0.8),
                           average(0.8, 1.0)), name="touch"),
        OperatorSpec(hat, in_order(average(0.0, 0.5),
                           average(0.5 - 9e-13, 0.5 - 8e-13),
                           average(0.5 + 1e-13, 1.0)), name="nested",
                     validate=False),
        OperatorSpec(hat, in_order(average(0.7, 1.0),
                           average(0.1, 0.4),
                           average(0.4 - 1e-12, 0.7)), name="gaps"),
        OperatorSpec(make_bspline_basis([0.0, 1.0], 0),
                     average(0.25, 0.75), name="one-cell"),
    ]


class TestKernelWitness:
    @pytest.mark.parametrize("points", [11, 1001, 20001])
    @pytest.mark.parametrize("op", witness_operators(), ids=lambda o: o.name)
    def test_equal_to_the_two_pass_loop(self, op, points):
        # One evaluation on grid and nodes, the product of sines as a
        # reduced 2-D sine and the cells found by searchsorted: the same
        # name, values, norm and residual as the loop over the nodes or
        # cells, evaluated on the grid and then on the nodes.
        xs = grid(points)
        values = op.basis.values(xs)
        name, w, w_on_grid = candidate_witness_two_pass(op, xs)
        found, on_grid, on_nodes = _candidate_witness(op, xs)
        assert found == name
        assert on_grid.tobytes() == w_on_grid.tobytes()
        assert on_nodes.tobytes() == w(op.functionals.nodes).tobytes()
        try:
            expected = verified_two_pass(op, values, w, w_on_grid)
        except NotConstructibleError as exc:
            expected = str(exc)
        try:
            verified = operators._verified(op, values, on_grid, on_nodes)
        except NotConstructibleError as exc:
            verified = str(exc)
        assert verified == expected

    def test_bernstein2_witness_is_full_sine(self):
        xs = np.linspace(0, 1, 101)
        nptest.assert_allclose(_witness(bernstein_operator(2), xs)[0], np.sin(2 * np.pi * xs),
                               atol=1e-12)

    def test_kantorovich1_witness_frequency(self):
        xs = np.linspace(0, 1, 101)
        nptest.assert_allclose(_witness(kantorovich_operator(1), xs)[0],
                               np.sin(4 * np.pi * xs), atol=1e-12)

    @pytest.mark.parametrize("op", catalog_operators(), ids=lambda o: o.name)
    def test_witness_annihilated(self, op):
        on_grid, image_of_w = _witness(op)
        assert np.max(np.abs(on_grid)) >= 0.5
        assert np.max(np.abs(image_of_w)) <= 1e-10

    def test_irregular_nodes_use_product_construction(self):
        op = hat_dirac_operator([0.0, 0.13, 0.55, 0.97, 1.0])
        name, on_grid, on_nodes = _candidate_witness(op, GRID)
        assert name == "node-vanishing product (5 nodes)"
        nptest.assert_allclose(on_nodes, 0.0, atol=1e-15)
        assert np.max(np.abs(on_grid)) == 1.0
        assert np.max(np.abs(_witness(op)[1])) <= 1e-10

    def test_mixed_kinds_not_constructible(self):
        basis = make_hat_basis([0.0, 0.5, 1.0])
        funcs = in_order(dirac(0.0), average(0.25, 0.75),
                 dirac(1.0))
        op = OperatorSpec(basis, funcs, name="mixed")
        with pytest.raises(NotConstructibleError):
            _candidate_witness(op, GRID)

    def test_report_flags_not_constructible(self):
        basis = make_hat_basis([0.0, 0.5, 1.0])
        funcs = in_order(dirac(0.0), average(0.25, 0.75),
                 dirac(1.0))
        op = OperatorSpec(basis, funcs, name="mixed")
        result = kernel_witness_report(op, GRID, op.basis.values(GRID))
        assert not result.passed and result.value is None
        assert "mixed" in result.detail

    def test_unequal_disjoint_averages_cellwise(self):
        basis = make_hat_basis([0.0, 1.0])
        funcs = in_order(average(0.0, 0.3),
                 average(0.3, 1.0))
        op = OperatorSpec(basis, funcs, name="lopsided")
        on_grid, image_of_w = _witness(op)
        assert np.max(np.abs(on_grid)) >= 0.5
        assert np.max(np.abs(image_of_w)) <= 1e-10

    def test_overlapping_averages_not_constructible(self):
        basis = make_hat_basis([0.0, 0.5, 1.0])
        funcs = in_order(average(0.0, 0.6),
                 average(0.4, 1.0),
                 average(0.0, 1.0))
        op = OperatorSpec(basis, funcs, name="overlap")
        with pytest.raises(NotConstructibleError):
            _candidate_witness(op, GRID)


class TestPowers:
    """``T^m f`` through the coefficient recursion ``a <- M a``."""

    def test_constant_is_fixed_point(self):
        for op in (bernstein_operator(3), kantorovich_operator(2)):
            matrix = build_collocation_matrix(op).entries
            coeffs = coefficient_vector(op, one)
            for _ in range(6):
                coeffs = matrix @ coeffs
            vals = coeffs @ op.basis.values(GRID)
            assert np.max(np.abs(vals - 1.0)) <= 1e-10

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_power_consistency(self, m):
        # a(T g) = M a(g): stepping the coefficients once equals taking the
        # coefficients of the image as a function.
        op = kantorovich_operator(3)
        matrix = build_collocation_matrix(op).entries
        coeffs = coefficient_vector(op, random_function_oracle(np.random.default_rng(23)))
        for _ in range(m - 1):
            coeffs = matrix @ coeffs
        stepped = coefficient_vector(op, lambda xs: coeffs @ op.basis.values(xs))
        assert np.max(np.abs(stepped - matrix @ coeffs)) <= 1e-12

    def test_kantorovich1_coefficient_recursion(self):
        # f with cell averages (1, 0); one step of M maps it to (0.75, 0.25).
        op = kantorovich_operator(1)
        coeffs = coefficient_vector(op, lambda xs: np.interp(xs, [0.0, 0.5, 1.0],
                                                             [2.0, 0.0, 0.0]))
        nptest.assert_allclose(coeffs, [1.0, 0.0], atol=1e-14)
        nptest.assert_allclose(build_collocation_matrix(op).entries @ coeffs, [0.75, 0.25],
                               atol=1e-14)
