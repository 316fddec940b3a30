"""The repository's pytest configuration reports a failing hypothesis test and goes on."""

import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_failing_given_test_does_not_stop_the_run(tmp_path):
    # hypothesis reports a failure through libcst, whose import chain warns
    # (mypy_extensions.TypedDict is deprecated); under filterwarnings = error
    # that warning must not abort the run with an INTERNALERROR
    test_file = tmp_path / "test_child.py"
    test_file.write_text(textwrap.dedent("""
        from hypothesis import given
        from hypothesis import strategies as st


        @given(st.integers())
        def test_fails(x):
            assert x < 0


        def test_passes():
            pass
    """), encoding="utf-8")
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(ROOT), str(test_file)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)   # hypothesis writes .hypothesis/ into cwd
    assert child.returncode == 1, child.stdout + child.stderr
    assert "1 failed, 1 passed" in child.stdout
