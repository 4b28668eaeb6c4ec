"""Every function the traced benchmark run wraps still exists under its name,
and the eval entry points the benchmark's checks call keep their contract.

``perfbench/spans.py`` names its targets as strings, so a rename in ``fld``
would only surface when a traced run is made. The file is loaded read-only
(no bytecode is written next to it) and is not registered as a module.
"""

import copy
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from fld import dynamics
from fld.model import FLDConfig, FLDModel
from unfolded import unfold_batch_norm

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


def test_eval_entry_points_score_a_frozen_copy_and_leave_the_model(monkeypatch):
    # the benchmark's checks call these on unfrozen models (perfbench/workloads.py,
    # perfbench/tests/test_oracle.py); tier 1 does not run the benchmark
    rng = np.random.default_rng(7)
    model = FLDModel(FLDConfig(dims=4, channels=2, window=9, horizon=4, hidden=8), rng)
    items = rng.normal(size=(3, 5, 4, 9))
    for _ in range(3):  # move the running statistics off their defaults
        model.loss_and_grads(items + rng.normal(size=items.shape), mode="train", want_grads=False)
    before = {k: v.copy() for k, v in model.state_arrays().items()}
    frozen = copy.deepcopy(model).freeze()
    calls = [
        lambda m: m.loss_and_grads(items, mode="eval", want_grads=False),
        lambda m: m.loss_and_grads(items[:1], mode="eval", want_grads=False, alpha=0.9,
                                   horizon=2, anchor=items[:1, -1]),
        lambda m: (dynamics.anchored_gate_loss(m, items[0]),),
    ]
    for call in calls:
        # the total, and each horizon's loss where the call returns them
        assert np.array_equal(np.hstack(call(model)), np.hstack(call(frozen)))
    assert model.state_arrays().keys() == before.keys()
    for name, arr in model.state_arrays().items():
        assert np.array_equal(arr, before[name]), name
    assert not any(p.grad.any() for p in model.parameters())
    # and the loss is batch norm's running statistics applied unfolded, to rounding
    monkeypatch.setattr("fld.model.fold_batch_norm", unfold_batch_norm)
    unfolded = copy.deepcopy(model).freeze()
    got = model.loss_and_grads(items, mode="eval", want_grads=False)[0]
    want = unfolded.loss_and_grads(items, mode="eval", want_grads=False)[0]
    assert abs(got - want) <= 1e-12 * abs(want)
