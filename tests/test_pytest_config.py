"""The pytest configuration reports a failing property test as a failure.

``filterwarnings = ["error"]`` turns every warning into an error. When a
hypothesis test fails, hypothesis imports ``libcst`` to write its failure
patch, and ``libcst.metadata.type_inference_provider`` warns about a
deprecated ``mypy_extensions`` API. Unless that one warning is ignored,
pytest stops with an INTERNALERROR and the remaining tests never run.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x != 0
'''


def test_failing_property_test_is_reported_not_crashed(tmp_path):
    target = tmp_path / "test_failing_property.py"
    target.write_text(FAILING_PROPERTY, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT),
         "-p", "no:cacheprovider", str(target)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output, output
    assert run.returncode == 1, output
    assert "1 failed" in output, output
