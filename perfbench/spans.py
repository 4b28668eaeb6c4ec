"""Outside-in layer trace for the traced benchmark run.

``Tracer.install`` wraps public functions and methods of ``fld`` in place,
from the benchmark's side: every module attribute under ``fld`` that is the
original object is replaced by a wrapper, so names imported into other
modules (``from .numerics import rfft``) are traced too. ``Tracer.remove``
puts every original back. Untraced runs never construct a Tracer.

Spans are (name, start, end, parent span, op id) kept in memory; the op id
is -1 during set-up. Self time is a span's duration minus the durations of
its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

# (module, attribute or Class.method, span name)
TARGETS = [
    ("fld.numerics.fourier", "rfft", "numerics.rfft"),
    ("fld.numerics.fourier", "rfft_backward", "numerics.rfft_backward"),
    ("fld.numerics.layers", "Conv1d.forward", "numerics.conv1d.fwd"),
    ("fld.numerics.layers", "Conv1d.backward", "numerics.conv1d.bwd"),
    ("fld.numerics.layers", "BatchNorm1d.forward", "numerics.batchnorm.fwd"),
    ("fld.numerics.layers", "BatchNorm1d.backward", "numerics.batchnorm.bwd"),
    ("fld.numerics.layers", "elu", "numerics.elu"),
    ("fld.numerics.layers", "elu_backward", "numerics.elu_backward"),
    ("fld.numerics.optim", "Adam.step", "numerics.adam.step"),
    ("fld.model", "FLDModel.encode", "model.encode"),
    ("fld.model", "FLDModel.encode_backward", "model.encode_backward"),
    ("fld.model", "FLDModel.parameterize", "model.parameterize"),
    ("fld.model", "FLDModel.parameterize_backward", "model.parameterize_backward"),
    ("fld.model", "FLDModel.reconstruct_latent", "model.reconstruct_latent"),
    ("fld.model", "FLDModel.reconstruct_latent_backward", "model.reconstruct_latent_backward"),
    ("fld.model", "FLDModel.decode", "model.decode"),
    ("fld.model", "FLDModel.decode_backward", "model.decode_backward"),
    ("fld.model", "FLDModel.loss_and_grads", "model.loss_and_grads"),
    ("fld.training", "train", "training.train"),
    ("fld.dynamics", "encode_state", "dynamics.encode_state"),
    ("fld.dynamics", "decode_state_frame", "dynamics.decode_state_frame"),
    ("fld.dynamics", "anchored_gate_loss", "dynamics.anchored_gate_loss"),
    ("fld.dynamics", "calibrate_threshold", "dynamics.calibrate_threshold"),
    ("fld.dynamics", "gate_step", "dynamics.gate_step"),
    ("fld.dynamics", "GateRunner.step", "dynamics.runner_step"),
    ("fld.checkpoint", "save_checkpoint", "checkpoint.save"),
    ("fld.checkpoint", "load_checkpoint", "checkpoint.load"),
    ("fld.checkpoint", "build_model", "checkpoint.build_model"),
    ("fld.signals", "generate_synthetic", "signals.generate_synthetic"),
    ("fld.signals", "fit_normalization", "signals.fit_normalization"),
    ("fld.signals", "NormalizationStats.apply", "signals.normalization_apply"),
    ("fld.stats", "quantile_midpoint", "stats.quantile_midpoint"),
]

# forward functions whose last return value is a cache the caller keeps
_CACHE_RETURNING = {"model.encode", "model.parameterize", "model.reconstruct_latent",
                    "model.decode"}


def cache_nbytes(obj, seen: set[int] | None = None) -> int:
    """Bytes of the distinct arrays a (nested) cache object refers to."""
    seen = set() if seen is None else seen
    if isinstance(obj, np.ndarray):
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(cache_nbytes(v, seen) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(cache_nbytes(v, seen) for v in obj)
    return 0


class Tracer:
    """Wraps the TARGETS while installed and keeps the spans they record."""

    def __init__(self):
        self.op = -1
        # span id -> [name, start, end, parent, op]
        self.spans: list[list] = []
        self.attrs: dict[int, dict] = {}
        self._open: list[tuple[int, str]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installing -----------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, attr, span_name in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(original, span_name))
            else:
                original = getattr(module, attr)
                wrapper = self._wrap(original, span_name)
                for mod in [m for name, m in sys.modules.items()
                            if name == "fld" or name.startswith("fld.")]:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patches.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, wrapper)

    def remove(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _wrap(self, fn, name: str):
        spans, opened = self.spans, self._open
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = opened[-1][0] if opened else -1
            opened.append((sid, name))
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                opened.pop()
                spans[sid] = [name, start, end, parent, tracer.op]
            tracer._observe(sid, name, args, out)
            return out

        return traced

    def _observe(self, sid: int, name: str, args: tuple, out) -> None:
        """Counts taken at the layer boundary; runs after the span closed."""
        if name == "numerics.conv1d.fwd":
            conv, x = args[0], args[1]
            batch, _, length = np.shape(x)
            self.attrs[sid] = {"mac": batch * conv.out_channels * conv.in_channels
                               * conv.kernel_size * length}
        elif name == "model.decode":
            latent = args[1]
            self.attrs[sid] = {"segments": np.shape(latent)[0] if np.ndim(latent) == 3 else 1}
        elif name == "dynamics.runner_step":
            self.attrs[sid] = {"verdict": out.verdict}
        if name in _CACHE_RETURNING:
            for open_sid, open_name in reversed(self._open):
                if open_name == "model.loss_and_grads":
                    entry = self.attrs.setdefault(open_sid, {"cache_bytes": 0})
                    entry["cache_bytes"] += cache_nbytes(out[-1])
                    break

    # -- reporting ------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def summary(self) -> dict:
        """Per span name, over the timed phase (op >= 0) and over set-up
        (op == -1): [call count, total self seconds]. Spans of the checks
        after the timed phase (op < -1) are left out."""
        selfs = self.self_times()
        out = {"timed": defaultdict(lambda: [0, 0.0]), "setup": defaultdict(lambda: [0, 0.0])}
        for i, (name, _, _, _, op) in enumerate(self.spans):
            if op < -1:
                continue
            entry = out["timed" if op >= 0 else "setup"][name]
            entry[0] += 1
            entry[1] += selfs[i]
        return out

    def timed_attr(self, name: str, key: str) -> list:
        return [self.attrs[i][key] for i, span in enumerate(self.spans)
                if span[0] == name and span[4] >= 0 and key in self.attrs.get(i, {})]

    def timed_durations(self, name: str, verdict: str | None = None) -> list[float]:
        return [span[2] - span[1] for i, span in enumerate(self.spans)
                if span[0] == name and span[4] >= 0
                and (verdict is None or self.attrs.get(i, {}).get("verdict") == verdict)]

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                record = {"id": i, "name": name, "start": start, "end": end,
                          "parent": parent, "op": op}
                record.update(self.attrs.get(i, {}))
                fh.write(json.dumps(record) + "\n")


# span names reported as "<name>.ms": self time per timed op
SELF_MS = [
    "model.encode", "model.encode_backward", "model.parameterize",
    "model.parameterize_backward", "model.reconstruct_latent",
    "model.reconstruct_latent_backward", "model.decode", "model.decode_backward",
    "model.loss_and_grads",
    "numerics.conv1d.fwd", "numerics.conv1d.bwd", "numerics.batchnorm.fwd",
    "numerics.batchnorm.bwd", "numerics.adam.step", "numerics.rfft",
    "numerics.rfft_backward", "numerics.elu", "numerics.elu_backward",
    "dynamics.anchored_gate_loss", "dynamics.encode_state", "dynamics.decode_state_frame",
    "signals.normalization_apply", "stats.quantile_midpoint",
]
# span names reported as "<name>.self_ms": self time per timed op of a caller
# whose own work (sampling, gathering, buffering) sits between traced calls
SELF_MS_CALLERS = ["training.train", "dynamics.gate_step", "dynamics.runner_step",
                   "dynamics.calibrate_threshold"]
# span names reported as "<name>.ms": self time in the run's one set-up
SETUP_MS = ["checkpoint.save", "checkpoint.load", "checkpoint.build_model",
            "signals.generate_synthetic", "signals.fit_normalization"]
VERDICTS = ("accepted", "rejected", "no_input")

PER_LAYER_UNITS = {
    **{f"{n}.ms": "ms" for n in SELF_MS},
    **{f"{n}.self_ms": "ms" for n in SELF_MS_CALLERS},
    **{f"{n}.ms": "ms" for n in SETUP_MS},
    "checkpoint.build_model.op_ms": "ms",
    "numerics.conv1d.fwd.calls": "count",
    "numerics.conv1d.fwd.gmac": "GMAC",
    "model.decode.segments": "count",
    "dynamics.anchored_gate_loss.calls": "count",
    "model.cache_mb": "MB",
    **{f"dynamics.frame_ms.{v}": "ms" for v in VERDICTS},
    "dynamics.frame_ms.p95": "ms",
    **{f"dynamics.verdict.{v}": "count" for v in VERDICTS},
    "traced.items_per_ref_s": "1/s",
    "traced.op_ref_ms_p50": "ms",
    "traced.items_per_cpu_s": "1/s",
    "reference.speed": "ratio",
}


def _median_ms(seconds: list[float]) -> float:
    return float(np.median(seconds)) * 1e3 if seconds else 0.0


def layer_metrics(tracer: Tracer, n_ops: int, extras: dict) -> dict:
    """Every per-layer metric; a layer the workload does not reach reads 0."""
    summary = tracer.summary()
    timed, setup = summary["timed"], summary["setup"]  # missing names read [0, 0.0]
    per_op_ms = 1e3 / max(n_ops, 1)
    values = {f"{n}.ms": timed[n][1] * per_op_ms for n in SELF_MS}
    values.update({f"{n}.self_ms": timed[n][1] * per_op_ms for n in SELF_MS_CALLERS})
    values.update({f"{n}.ms": setup[n][1] * 1e3 for n in SETUP_MS})
    # calibrate_threshold rebuilds the model on every call
    values["checkpoint.build_model.op_ms"] = timed["checkpoint.build_model"][1] * per_op_ms
    macs = tracer.timed_attr("numerics.conv1d.fwd", "mac")
    values["numerics.conv1d.fwd.calls"] = len(macs) / max(n_ops, 1)
    values["numerics.conv1d.fwd.gmac"] = sum(macs) * 1e-9 / max(n_ops, 1)
    values["model.decode.segments"] = (sum(tracer.timed_attr("model.decode", "segments"))
                                       / max(n_ops, 1))
    values["dynamics.anchored_gate_loss.calls"] = (timed["dynamics.anchored_gate_loss"][0]
                                                   / max(n_ops, 1))
    cache = tracer.timed_attr("model.loss_and_grads", "cache_bytes")
    values["model.cache_mb"] = float(np.mean(cache)) / 2 ** 20 if cache else 0.0
    for v in VERDICTS:
        values[f"dynamics.frame_ms.{v}"] = _median_ms(
            tracer.timed_durations("dynamics.runner_step", v))
        values[f"dynamics.verdict.{v}"] = 0
    steps = tracer.timed_durations("dynamics.runner_step")
    values["dynamics.frame_ms.p95"] = float(np.percentile(steps, 95)) * 1e3 if steps else 0.0
    values.update(extras)
    return values
