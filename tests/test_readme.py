"""README's library example runs and gives the values its comments state."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import numpy.testing as nptest

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The ``python`` code block of README's ``## Library`` section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_states_its_values():
    scope: dict = {}
    exec(compile(library_example(), str(README), "exec"), scope)
    assert scope["name"] == "avg[0.5,1]"
    assert scope["nodes"].size == scope["weights"].size == 32
    assert 0.5 < scope["nodes"].min() and scope["nodes"].max() < 1.0
    assert abs(scope["weights"].sum() - 1.0) <= 1e-15
    assert scope["values"].shape == (2, 1001)
    nptest.assert_allclose(scope["coeffs"], [1 / 12, 7 / 12], rtol=0, atol=1e-15)
    assert scope["tf"].tobytes() == (scope["coeffs"] @ scope["values"]).tobytes()
    nptest.assert_allclose(scope["matrix"].entries, [[0.75, 0.25], [0.25, 0.75]],
                           rtol=0, atol=1e-15)
    nptest.assert_allclose(scope["centers"], [0.75, 0.75], rtol=0, atol=1e-15)
    nptest.assert_allclose(scope["radii"], [0.25, 0.25], rtol=0, atol=1e-15)
    nptest.assert_allclose(scope["moduli"], [1.0, 0.5], rtol=0, atol=1e-15)
    assert abs(scope["rate"] - 0.5) <= 1e-15
    assert scope["labels"].tolist() == [0, 0] and scope["periods"].tolist() == [1]
    nptest.assert_allclose(scope["limit"], np.full((2, 2), 0.5), rtol=0, atol=1e-15)
    assert scope["witness"].passed
