"""The project's pytest settings report a failing property test as a
failure, with its falsifying example, rather than ending the run with
an internal error."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10
'''


def test_failing_property_test_is_reported(tmp_path):
    # hypothesis's failure report imports modules that warn on import;
    # under filterwarnings = ["error"] alone that ended the run with
    # INTERNALERROR and exit code 3
    test_file = tmp_path / "test_property.py"
    test_file.write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", str(test_file)],
        capture_output=True, text=True, cwd=tmp_path)
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "Falsifying example" in output
