"""Every function the traced benchmark run wraps still exists under its name.

``perfbench/spans.py`` names its targets as strings, so a rename in ``fld``
would only surface when a traced run is made. The file is loaded read-only
(no bytecode is written next to it) and is not registered as a module.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_targets(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_target_resolves(monkeypatch):
    targets = traced_targets(monkeypatch)
    assert targets
    missing = []
    for module_name, attr, span in targets:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name, None)
            found = cls is not None and callable(vars(cls).get(method))
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"{module_name}.{attr} ({span})")
    assert not missing, f"traced targets missing: {missing}"
