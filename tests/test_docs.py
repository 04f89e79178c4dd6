"""The README's library example runs against the library and prints what it says."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_prints_the_stated_coordinates():
    text = README.read_text()
    section = text[text.index("## Library example") :]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    (alpha, beta), (residual,) = [[float(x) for x in line.split()] for line in lines]
    assert abs(alpha) <= 1e-12 and abs(beta - 1 / 3) <= 1e-12
    assert abs(residual - 4 / 3) <= 1e-12
