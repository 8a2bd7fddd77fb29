"""README's quick start runs as written and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_prints_its_action_and_residual():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    action, residual = (float(line) for line in out.getvalue().split())
    # The last digits of the action depend on the BLAS thread count.
    assert action == pytest.approx(27.840867421590936, rel=1e-10, abs=0.0)
    assert residual <= 1e-11
