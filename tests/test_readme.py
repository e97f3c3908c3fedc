"""The README's "Library use" example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_use_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    bochner, stacked, tau = capsys.readouterr().out.split()
    assert abs(float(bochner)) < 1e-12 and float(stacked) < 1e-12
    assert abs(float(tau) - 24.0) < 1e-10
