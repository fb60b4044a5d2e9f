"""Command-line front end.

Subcommands:

* ``analyze``: full pipeline for one configured operator; ``--json``,
  ``--csv`` and ``--svg`` name the files of its outputs, and only those are
  written.
* ``catalog``: list the built-in operator kinds and their parameters.
* ``verify``: lemma checks, and whether the collocation matrix is
  row-stochastic within ``TOL_STOCHASTIC``; no spectrum.
* ``oracle``: cross-check the LAPACK eigensolver against mpmath's
  eigensolver in 40-digit arithmetic (matrix dimension at most 30). That
  is independent code, not a different algorithm: both are QR iterations.

Exit codes: 0 when everything conforms, 1 when a check fails, the
spectrum violates the peripheral statement or the eigensolve fails, 2 for
configuration or I/O errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from numpy.linalg import LinAlgError

from .errors import ConfigError, DomainError, UnsupportedSizeError
from .report import (OPERATORS, AnalysisConfig, build_operator, emit_report, emit_svg,
                     exit_code_for, parse_config, run_analyze, run_checks)
from .spectra import (ORACLE_MAX_DIMENSION, TOL_STOCHASTIC, build_collocation_matrix,
                      check_row_stochastic, eigenvalues, mpmath_eigen_oracle,
                      pair_eigenvalues)

#: Bounds LAPACK's own error, about sqrt(eps) on a defective eigenvalue;
#: the 40-digit oracle is far closer than that.
ORACLE_MATCH_TOL = 1e-7

CATALOG_TEXT = """\
Built-in operator kinds (configuration field "operator"):

  bernstein     point evaluation at the nodes k/n against the Bernstein
                basis of degree n. Parameters: n >= 1.
  kantorovich   normalized cell averages over the n+1 equal subintervals
                against the Bernstein basis. Parameters: n >= 1.
  schoenberg    point evaluation at the Greville abscissae against a
                clamped B-spline basis. Parameters: knots (full clamped
                vector), degree >= 1.
  hat-dirac     nodal interpolation: hat basis over a partition with point
                evaluation at the same nodes. Parameters: nodes (strictly
                increasing, spanning [0, 1]).
  custom        any combination of a basis spec ({"kind": "bernstein"|
                "bspline"|"hat", ...}) with one functional spec per basis
                function ({"kind": "dirac"|"interval-average"|
                "weighted-quadrature", ...}).
"""


def _read_config(path: str) -> AnalysisConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"configuration is not valid UTF-8: {exc}") from exc
    return parse_config(text)


def _cmd_analyze(args: argparse.Namespace) -> int:
    config = _read_config(args.config)
    if args.seed is not None:
        config = config.with_seed(args.seed)
    report = run_analyze(config)

    renderers = (
        (args.json, lambda: emit_report(report, "json")),
        (args.csv, lambda: emit_report(report, "csv")),
        (args.svg, lambda: emit_svg(report)),
    )
    # Every output is rendered before any is written, so a value the
    # serializer rejects (a non-finite number) leaves no file behind.
    try:
        texts = [(path, render()) for path, render in renderers if path]
    except ValueError as exc:
        print(f"error: operator {report.operator_name}: emit failed: {exc}", file=sys.stderr)
        return 1
    for path, text in texts:
        Path(path).write_text(text, encoding="utf-8")

    print(f"operator: {report.operator_name}")
    for check in report.checks.values():
        print(f"  {check}")
    print(f"  matrix: n={report.matrix.n}, row sum max dev = "
          f"{report.row_sum_max_dev:.3e}, diag min = {report.diag_min:.6g}")
    eigs = ", ".join(f"{lam:.6g}" for lam in report.spectrum.eigenvalues[:8])
    suffix = ", ..." if report.spectrum.eigenvalues.size > 8 else ""
    print(f"  eigenvalues: {eigs}{suffix}")
    print(f"  classification: {report.spectrum.classification}")
    print(f"  diagnostics: {report.spectrum.diagnostics}")
    print(f"  iterates: {report.iterates.message}" +
          (f" (rate {report.rate:.6g})" if report.rate is not None else ""))
    return exit_code_for(report)


def _cmd_catalog(_args: argparse.Namespace) -> int:
    print(CATALOG_TEXT, end="")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    config = _read_config(args.config)
    if args.seed is not None:
        config = config.with_seed(args.seed)
    op = build_operator(config)
    results = [
        *run_checks(op, config)[0].values(),
        check_row_stochastic(build_collocation_matrix(op), TOL_STOCHASTIC),
    ]
    print(f"operator: {op.name}")
    for check in results:
        print(f"  {check}")
    return 0 if all(c.passed for c in results) else 1


def _cmd_oracle(args: argparse.Namespace) -> int:
    config = _read_config(args.config)
    n = OPERATORS[config.operator].size(config.params)  # before anything is built
    if n > ORACLE_MAX_DIMENSION:
        raise UnsupportedSizeError(
            f"oracle cross-check supports matrices up to "
            f"{ORACLE_MAX_DIMENSION}x{ORACLE_MAX_DIMENSION}, got {n}x{n}")
    op = build_operator(config)
    matrix = build_collocation_matrix(op)
    lapack_eigs = eigenvalues(matrix)
    oracle_eigs = mpmath_eigen_oracle(matrix)
    distance = pair_eigenvalues(lapack_eigs, oracle_eigs)
    print(f"operator: {op.name} (n = {matrix.n})")
    print(f"  LAPACK eigenvalues: {', '.join(f'{v:.12g}' for v in lapack_eigs)}")
    print(f"  oracle eigenvalues: {', '.join(f'{v:.12g}' for v in oracle_eigs)}")
    print(f"  max matched distance: {distance:.3e} (tolerance {ORACLE_MATCH_TOL:.1e})")
    return 0 if distance <= ORACLE_MATCH_TOL else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pouspec",
        description="Spectral analysis of positive finite-rank operators "
                    "with the partition-of-unity property.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run the full analysis pipeline")
    analyze.add_argument("--config", required=True, help="path to a JSON config")
    analyze.add_argument("--json", help="write the JSON report to this path")
    analyze.add_argument("--csv", help="write the eigenvalue CSV to this path")
    analyze.add_argument("--svg", help="write the spectrum plot to this path")
    analyze.add_argument("--seed", type=int, help="override the config seed")
    analyze.set_defaults(handler=_cmd_analyze)

    catalog = sub.add_parser("catalog", help="list built-in operators")
    catalog.set_defaults(handler=_cmd_catalog)

    verify = sub.add_parser("verify", help="run checks only, no spectrum")
    verify.add_argument("--config", required=True, help="path to a JSON config")
    verify.add_argument("--seed", type=int, help="override the config seed")
    verify.set_defaults(handler=_cmd_verify)

    oracle = sub.add_parser("oracle",
                            help="LAPACK vs 40-digit mpmath eigenvalue cross-check (n <= 30)")
    oracle.add_argument("--config", required=True, help="path to a JSON config")
    oracle.set_defaults(handler=_cmd_oracle)

    return parser


#: Built once per process; parsing does not change it.
PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = PARSER.parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, DomainError, UnsupportedSizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LinAlgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
