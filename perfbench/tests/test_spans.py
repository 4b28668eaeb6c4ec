"""The tracer wraps the program from outside and puts every attribute back."""

import sys

import numpy as np
import pytest

import fld.checkpoint  # noqa: F401  (load every traced module before the snapshot)
import fld.dynamics  # noqa: F401
import fld.model
import fld.numerics.fourier
import fld.stats  # noqa: F401
import fld.training  # noqa: F401
from spans import Tracer


def _snapshot():
    state = {}
    for name, mod in list(sys.modules.items()):
        if name == "fld" or name.startswith("fld."):
            state[name] = dict(vars(mod))
            for value in vars(mod).values():
                if isinstance(value, type) and value.__module__.startswith("fld"):
                    state[f"{name}:{value.__qualname__}"] = dict(vars(value))
    return state


def _model_loss():
    cfg = fld.model.FLDConfig(dims=3, channels=2, window=7, horizon=2, hidden=4)
    model = fld.model.FLDModel(cfg, np.random.default_rng(0))
    items = np.random.default_rng(1).normal(size=(2, 3, 3, 7))
    return model.loss_and_grads(items, mode="train")


def test_remove_restores_every_attribute():
    before = _snapshot()
    original_rfft = fld.numerics.fourier.rfft
    tracer = Tracer()
    tracer.install()
    try:
        assert fld.model.rfft is not original_rfft
        assert fld.model.rfft is fld.numerics.fourier.rfft
        assert "decode" in vars(fld.model.FLDModel) and fld.model.FLDModel.decode.__wrapped__
    finally:
        tracer.remove()
    after = _snapshot()
    assert before.keys() == after.keys()
    for key, attrs in before.items():
        changed = [a for a, v in attrs.items() if after[key].get(a) is not v]
        assert not changed, f"{key}: {changed} not restored"


def test_spans_nest_and_self_time_excludes_children():
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op = 0
        _model_loss()
    finally:
        tracer.remove()
    names = [s[0] for s in tracer.spans]
    top = names.index("model.loss_and_grads")
    assert tracer.spans[top][3] == -1
    children = [i for i, s in enumerate(tracer.spans) if s[3] == top]
    assert {tracer.spans[i][0] for i in children} >= {"model.encode", "model.decode",
                                                      "model.decode_backward"}
    selfs = tracer.self_times()
    total = tracer.spans[top][2] - tracer.spans[top][1]
    child_total = sum(tracer.spans[i][2] - tracer.spans[i][1] for i in children)
    assert selfs[top] == pytest.approx(total - child_total)
    assert all(s >= -1e-9 for s in selfs)
    assert tracer.timed_attr("model.loss_and_grads", "cache_bytes")[0] > 0
    # an untraced call after removal records nothing
    count = len(tracer.spans)
    _model_loss()
    assert len(tracer.spans) == count
