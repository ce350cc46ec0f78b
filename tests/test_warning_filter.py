"""A failing test is reported as FAILED, never hidden behind an INTERNALERROR.

pyproject.toml turns every warning into an error.  While hypothesis reports
a failing `@given` test, it raises a DeprecationWarning of a library it
imports; turned into an error there, that would abort the whole run,
so the tests after the failure would never run.  The child run below uses
the project's pytest settings on a generated file with one failing
property test and one failing plain test after it.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(n):
    assert n != n


def test_plain_fails():
    assert False
"""


def test_a_failing_property_test_fails_visibly(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    failed = [line.split(" ")[1] for line in out.splitlines() if line.startswith("FAILED ")]
    assert failed == ["test_probe.py::test_property_fails", "test_probe.py::test_plain_fails"], out
    assert run.returncode == 1
