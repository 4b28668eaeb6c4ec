"""Every Python file of the project parses with the grammar of the oldest
Python that ``pyproject.toml`` declares (``requires-python``), so syntax
newer than that floor fails on any interpreter, not only on one at the
floor. The benchmark's files under ``perfbench/`` are read, never imported."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_file_parses_at_the_declared_python_floor():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    minor = int(re.search(r'requires-python = ">=3\.(\d+)"', pyproject).group(1))
    files = sorted(path for part in ("src", "tests", "perfbench", "tools")
                   for path in (ROOT / part).rglob("*.py"))
    assert len(files) > 20
    failures = []
    for path in files:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                      feature_version=(3, minor))
        except SyntaxError as err:
            failures.append(f"{path.relative_to(ROOT)}:{err.lineno}: {err.msg}")
    assert not failures, f"not Python 3.{minor} grammar: {failures}"
