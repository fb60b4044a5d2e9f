"""Acceptance suite.

Each test exercises one acceptance criterion end to end at its stated
tolerance and prints a single pass/fail line (run ``pytest -s`` to see them
on success; failures carry the detail in the assertion message).
"""

from __future__ import annotations

import json

import numpy as np

from helpers import (bernstein_eigenvalue_oracle, bump, bump_peaks, clamped_knots, image,
                     kantorovich_matrix_oracle, one, pairing, random_breakpoints,
                     random_stochastic, verify_adjoint_identity, widest_gap)

from pouspec.cli import main
from pouspec.operators import (bernstein_operator, estimate_operator_norm,
                               hat_dirac_operator, kantorovich_operator,
                               kernel_witness_report, schoenberg_operator,
                               verify_constant_reproduction, verify_positivity)
from pouspec.report import dumps_json, parse_config, run_analyze
from pouspec.spectra import (build_collocation_matrix, classify_spectrum, eigenvalues,
                             gershgorin_disks, iterate_limit, mpmath_eigen_oracle,
                             pair_eigenvalues)

GRID = np.linspace(0.0, 1.0, 1001)


def _criterion(name: str, ok: bool, detail: str):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _sweep_operators():
    """The operator population of the conformance sweep: Bernstein and
    Kantorovich up to degree 15, Schoenberg on seeded random clamped knot
    vectors for degrees 1 to 3, hat-Dirac on seeded random partitions."""
    ops = [bernstein_operator(n) for n in range(1, 16)]
    ops += [kantorovich_operator(n) for n in range(1, 16)]
    rng = np.random.default_rng(314159)
    for degree in (1, 2, 3):
        for _ in range(5):
            breakpoints = random_breakpoints(rng, interior=int(rng.integers(2, 6)))
            ops.append(schoenberg_operator(clamped_knots(breakpoints, degree), degree))
    for _ in range(5):
        ops.append(hat_dirac_operator(random_breakpoints(rng, interior=int(rng.integers(2, 8)))))
    return ops


def test_criterion_01_theorem_conformance_sweep():
    worst_modulus = 0.0
    worst_peripheral = 0.0
    count = 0
    for op in _sweep_operators():
        matrix = build_collocation_matrix(op)
        eigs = eigenvalues(matrix)
        worst_modulus = max(worst_modulus, float(np.max(np.abs(eigs))) - 1.0)
        if np.diag(matrix.entries).min() > 1e-6:
            peripheral = eigs[np.abs(eigs) >= 1.0 - 1e-8]
            if peripheral.size:
                worst_peripheral = max(worst_peripheral,
                                       float(np.max(np.abs(peripheral - 1.0))))
        count += 1
    ok = worst_modulus <= 1e-9 and worst_peripheral <= 1e-8
    _criterion("criterion 1: conformance sweep", ok,
               f"{count} operators, max |lambda|-1 = {worst_modulus:.2e}, "
               f"worst peripheral |lambda-1| = {worst_peripheral:.2e}")


def test_criterion_02_row_stochasticity():
    worst_entry = 0.0
    worst_quad = 0.0
    worst_exact = 0.0
    for op in _sweep_operators():
        matrix = build_collocation_matrix(op)
        worst_entry = max(worst_entry, -float(matrix.entries.min()))
        dev = float(np.max(np.abs(matrix.entries.sum(axis=1) - 1.0)))
        if op.name.startswith("kantorovich"):
            worst_quad = max(worst_quad, dev)
        else:
            worst_exact = max(worst_exact, dev)
    ok = worst_entry <= 1e-12 and worst_quad <= 1e-10 and worst_exact <= 1e-12
    _criterion("criterion 2: row stochasticity", ok,
               f"min entry >= -{worst_entry:.2e}, row-sum dev: quadrature "
               f"{worst_quad:.2e}, exact {worst_exact:.2e}")


def test_criterion_03_kantorovich_n1_exactness():
    matrix = build_collocation_matrix(kantorovich_operator(1))
    oracle = kantorovich_matrix_oracle(1)
    assert np.allclose(oracle, [[0.75, 0.25], [0.25, 0.75]], atol=0)
    matrix_dev = float(np.max(np.abs(matrix.entries - oracle)))
    eig_dev = pair_eigenvalues(eigenvalues(matrix), [1.0, 0.5])
    iterates = iterate_limit(matrix, tol=1e-10)
    limit_dev = float(np.max(np.abs(iterates.limit - 0.5)))
    rate = classify_spectrum(eigenvalues(matrix), gershgorin_disks(matrix)).subdominant_modulus
    ok = (matrix_dev <= 1e-12 and eig_dev <= 1e-10 and iterates.converged
          and limit_dev <= 1e-10 and 0.499 <= rate <= 0.501)
    _criterion("criterion 3: Kantorovich n=1 exactness", ok,
               f"matrix dev {matrix_dev:.2e}, eig dev {eig_dev:.2e}, "
               f"limit dev {limit_dev:.2e}, rate {rate:.6f}")


def test_criterion_04_bernstein_eigenvalue_oracle():
    # The closed-form product oracle is itself validated against the
    # 40-digit mpmath eigensolver, which resolves the double eigenvalue 1
    # far below LAPACK's sqrt(eps) error on it.
    for n in (1, 2, 3, 4, 8, 16, 29):
        matrix = build_collocation_matrix(bernstein_operator(n))
        d = pair_eigenvalues(np.asarray(bernstein_eigenvalue_oracle(n), dtype=complex),
                             mpmath_eigen_oracle(matrix))
        assert d <= 1e-12, f"product oracle vs mpmath oracle at n={n}: {d:.2e}"
    worst = 0.0
    for n in range(1, 13):
        matrix = build_collocation_matrix(bernstein_operator(n))
        d = pair_eigenvalues(eigenvalues(matrix), bernstein_eigenvalue_oracle(n))
        worst = max(worst, d)
    ok = worst <= 1e-8
    _criterion("criterion 4: Bernstein eigenvalue oracle", ok,
               f"n = 1..12, worst matched distance {worst:.2e}")


def test_criterion_05_gershgorin_containment():
    rng = np.random.default_rng(777)
    worst = 0.0
    agree = True
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        matrix = random_stochastic(rng, n)
        centers, radii = gershgorin_disks(matrix)
        eigs = eigenvalues(matrix)
        flags = classify_spectrum(eigs, (centers, radii)).in_disk_union
        for lam, inside in zip(eigs, flags):
            distance = min(abs(lam - c) - r for c, r in zip(centers, radii))
            worst = max(worst, distance)
            agree = agree and bool(inside) == (distance <= 1e-9)
    ok = worst <= 1e-9 and agree
    _criterion("criterion 5: Gershgorin containment", ok,
               f"1000 random stochastic matrices, worst residual {worst:.2e}, "
               f"in_disk_union agrees: {agree}")


def test_criterion_06_degenerate_diagonal_counterexample():
    config = parse_config(json.dumps({
        "operator": "custom",
        "basis": {"kind": "hat", "nodes": [0.0, 1.0]},
        "functionals": [{"kind": "dirac", "x": 1.0}, {"kind": "dirac", "x": 0.0}],
    }))
    report = run_analyze(config)
    matrix_ok = np.array_equal(report.matrix.entries, [[0.0, 1.0], [1.0, 0.0]])
    minus_one = min(abs(lam + 1.0) for lam in report.spectrum.eigenvalues)
    classified = (report.spectrum.classification == "violates-theorem"
                  and "zero diagonal" in report.spectrum.diagnostics)
    ok = (matrix_ok and minus_one <= 1e-12 and classified
          and not report.iterates.converged)
    _criterion("criterion 6: crossed-Dirac counterexample", ok,
               f"matrix {'exact' if matrix_ok else 'WRONG'}, |lambda+1| = "
               f"{minus_one:.2e}, classification {report.spectrum.classification}, "
               f"iterates converged = {report.iterates.converged}")


def test_criterion_07_lemma_suite():
    operators = [bernstein_operator(1), bernstein_operator(4), bernstein_operator(9),
                 kantorovich_operator(1), kantorovich_operator(4),
                 kantorovich_operator(8),
                 schoenberg_operator(clamped_knots([0.0, 0.25, 0.5, 0.75, 1.0], 2), 2),
                 schoenberg_operator(clamped_knots([0.0, 0.2, 0.55, 1.0], 3), 3),
                 hat_dirac_operator([0.0, 0.5, 1.0]),
                 hat_dirac_operator([0.0, 0.17, 0.42, 0.77, 1.0])]
    worst = {"constant": 0.0, "positivity": np.inf, "norm_low": np.inf,
             "norm_high": 0.0, "adjoint": 0.0, "attain": 0.0}
    for op in operators:
        values = op.basis.values(GRID)
        worst["constant"] = max(worst["constant"],
                                verify_constant_reproduction(op, GRID, values, 1e-10).value)
        positivity = verify_positivity(op, GRID, values, trials=100, tol=1e-10, seed=42)
        worst["positivity"] = min(worst["positivity"], positivity.value)
        estimate = estimate_operator_norm(op, GRID, values, trials=200, seed=43)
        worst["norm_low"] = min(worst["norm_low"], estimate)
        worst["norm_high"] = max(worst["norm_high"], estimate)
        constant_ratio = float(np.max(np.abs(image(op, one, GRID))))
        worst["attain"] = max(worst["attain"], abs(constant_ratio - 1.0))
        worst["adjoint"] = max(worst["adjoint"],
                               verify_adjoint_identity(op, pairs=50, seed=44).value)
    ok = (worst["constant"] <= 1e-10
          and worst["positivity"] >= -1e-10
          and 1.0 - 1e-12 <= worst["norm_low"]
          and worst["norm_high"] <= 1.0 + 1e-10
          and worst["attain"] <= 1e-12
          and worst["adjoint"] <= 1e-10)
    _criterion("criterion 7: lemma suite", ok,
               f"{len(operators)} operators: |T1-1| <= {worst['constant']:.2e}, "
               f"min Tf = {worst['positivity']:.2e}, norm in "
               f"[{worst['norm_low']:.12f}, {worst['norm_high']:.12f}], "
               f"adjoint residual <= {worst['adjoint']:.2e}")


def test_criterion_08_kernel_witness():
    operators = [bernstein_operator(n) for n in range(1, 11)]
    operators += [kantorovich_operator(n) for n in range(1, 11)]
    operators += [hat_dirac_operator([0.0, 0.5, 1.0]),
                  hat_dirac_operator([0.0, 0.21, 0.48, 0.83, 1.0])]
    # The report's residual and detail against the bump on the widest gap,
    # its norm on the grid and peaks, and Tw from one functional at a time.
    worst_residual = 0.0
    smallest_norm = np.inf
    reported = True
    for op in operators:
        values = op.basis.values(GRID)
        lo, hi = widest_gap(op)
        w = bump(lo, hi)
        witness_norm = float(np.abs(w(np.append(GRID, bump_peaks(lo, hi)))).max())
        image_of_w = np.array([pairing(op.functionals, w, k) for k in range(op.n)]) @ values
        result = kernel_witness_report(op, GRID, values)
        reported &= result.passed and result.detail == (
            f"witness odd bump on [{lo:.6g}, {hi:.6g}], ||w||_inf = {witness_norm:.6g}")
        smallest_norm = min(smallest_norm, witness_norm)
        worst_residual = max(worst_residual, result.value, float(np.max(np.abs(image_of_w))))
    ok = reported and smallest_norm >= 0.5 and worst_residual <= 1e-10
    _criterion("criterion 8: kernel witnesses", ok,
               f"{len(operators)} operators, min ||w|| = {smallest_norm:.3f}, "
               f"max ||Tw|| = {worst_residual:.2e}")


def test_criterion_09_eigensolver_cross_validation():
    rng = np.random.default_rng(20240501)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 6))
        matrix = random_stochastic(rng, n)
        worst = max(worst, pair_eigenvalues(eigenvalues(matrix),
                                            mpmath_eigen_oracle(matrix)))
    ok = worst <= 1e-12
    _criterion("criterion 9: eigensolver cross-validation", ok,
               f"500 random stochastic matrices (n <= 5), worst distance {worst:.2e}")


def test_criterion_10_cli_determinism_and_schema(tmp_path):
    kant = tmp_path / "kant1.json"
    kant.write_text('{"operator": "kantorovich", "n": 1, "seed": 42}',
                    encoding="utf-8")
    swap = tmp_path / "swap.json"
    swap.write_text(json.dumps({
        "operator": "custom",
        "basis": {"kind": "hat", "nodes": [0.0, 1.0]},
        "functionals": [{"kind": "dirac", "x": 1.0}, {"kind": "dirac", "x": 0.0}],
    }), encoding="utf-8")

    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    code_a = main(["analyze", "--config", str(kant), "--json", str(out_a)])
    code_b = main(["analyze", "--config", str(kant), "--json", str(out_b)])
    parsed_a = json.loads(out_a.read_text(encoding="utf-8"))
    parsed_b = json.loads(out_b.read_text(encoding="utf-8"))
    parsed_a.pop("timings")
    parsed_b.pop("timings")
    identical = dumps_json(parsed_a).encode() == dumps_json(parsed_b).encode()
    schema_ok = all(key in parsed_a for key in
                    ("config", "checks", "matrix", "spectrum", "iterates"))
    swap_code = main(["analyze", "--config", str(swap)])
    ok = code_a == 0 and code_b == 0 and identical and schema_ok and swap_code == 1
    _criterion("criterion 10: CLI determinism and schema", ok,
               f"exit codes {code_a}/{code_b}/{swap_code}, byte-identical "
               f"(timings excluded) = {identical}")
