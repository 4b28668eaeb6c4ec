"""``tools/equivalence.py``: its tiny probe repeats itself in one process,
under a pinned schema. The digests' values depend on the BLAS build and its
thread count, so they are not pinned. The file is loaded read-only (no
bytecode is written next to it) and is not registered as a module."""

import importlib.util
import re
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "equivalence.py"


def load_tool(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_equivalence", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tiny_probe_repeats_under_a_pinned_schema(monkeypatch):
    tool = load_tool(monkeypatch)
    first, second = tool.tiny_entries(), tool.tiny_entries()
    assert list(first) == [f"tiny.{kind}.{part}" for kind in ("fld", "pae", "ff")
                           for part in ("history", "arrays", "errors")]
    assert all(re.fullmatch("[0-9a-f]{64}", v) for v in first.values())
    assert first == second


def test_relative_difference_sizes_scalars_lists_and_counts(monkeypatch):
    gap = load_tool(monkeypatch).relative_difference
    assert gap(2.0, 2.0) == 0.0 and gap(0.0, 0.0) == 0.0
    assert gap([None, 1.0, 4.0], [None, 1.0, 5.0]) == 0.2
    assert gap({"accepted": 3}, {"accepted": 4}) == 0.25
    assert gap([None], [1.0]) == gap([1.0], [1.0, 2.0]) == float("inf")
    assert gap("ab" * 32, "cd" * 32) is None  # a digest is equal or not
