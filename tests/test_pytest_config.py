"""The suite's own pytest configuration, exercised on deliberately failing tests."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_TESTS = textwrap.dedent(
    """
    import warnings

    from hypothesis import given, strategies as st


    @given(st.integers())
    def test_a_false_property(x):
        assert x < 10


    def test_a_deprecation():
        warnings.warn("deprecated here", DeprecationWarning)
    """
)


@pytest.mark.skipif(importlib.util.find_spec("libcst") is None,
                    reason="hypothesis writes no failure patch without libcst")
def test_a_failing_property_shows_its_falsifying_example(tmp_path):
    # On failure hypothesis imports libcst to write a patch, and libcst warns
    # DeprecationWarning on import; the config must not turn that into an
    # INTERNALERROR, while any other DeprecationWarning still fails its test.
    (tmp_path / "test_failing.py").write_text(FAILING_TESTS)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
    assert "2 failed" in output
