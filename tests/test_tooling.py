"""The repository's pytest configuration keeps a failing property test
reportable: its falsifying example is printed and the session ends with an
ordinary failure.  The README's Python examples run as written."""

import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

FAILING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0
"""


def test_a_failing_property_test_reports_its_example(tmp_path):
    # hypothesis may build its failing-example patch through libcst, whose
    # import warns; the ini's error filter must not turn that warning into
    # an exception inside hypothesis's report hook
    test_file = tmp_path / "test_failing.py"
    test_file.write_text(FAILING)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), str(test_file)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output


def test_the_readme_python_blocks_run(monkeypatch, capsys):
    # the Library example documents the public API; run every python
    # block as a reader would, from the repository root
    blocks = re.findall(r"^```python\n(.*?)^```$",
                        (ROOT / "README.md").read_text(), re.S | re.M)
    assert blocks
    monkeypatch.chdir(ROOT)
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out
