"""Spectral analysis of positive finite-rank operators with a partition of
unity: basis systems, normalized positive functionals, operator assembly,
collocation matrices, eigensolver, Gershgorin classification, and a batch
reporting front end."""

from .bases import (BasisSystem, LocalForm, check_nonnegativity, check_partition_of_unity,
                    make_bernstein_basis, make_bspline_basis, make_hat_basis)
from .checks import CheckResult
from .errors import ConfigError, DomainError, UnsupportedSizeError
from .functionals import (Functionals, check_functional_normalization, dirac_functionals,
                          interval_average_functionals, join,
                          make_kantorovich_functionals, quadrature_functionals)
from .operators import (OperatorSpec, bernstein_operator, coefficient_vector,
                        estimate_operator_norm, greville_abscissae, hat_dirac_operator,
                        kantorovich_operator, kernel_witness_report, schoenberg_operator,
                        verify_constant_reproduction, verify_norm_bound,
                        verify_positivity)
from .report import (AnalysisConfig, AnalysisReport, Tolerances, build_operator,
                     config_from_mapping, dumps_json, emit_report, emit_svg,
                     exit_code_for, parse_config, report_to_mapping, run_analyze)
from .spectra import (CollocationMatrix, IterateResult, SpectrumReport,
                      build_collocation_matrix, check_row_stochastic, classify_spectrum,
                      closed_classes, eigenvalues, gershgorin_disks, iterate_limit,
                      mpmath_eigen_oracle, pair_eigenvalues, sort_eigenvalues)

__version__ = "0.1.0"
