import json
import re
import struct
import zlib

import numpy as np
import pytest

from fld.checkpoint import (
    ModelCheckpoint,
    build_fld_model,
    build_model,
    checkpoint_from_model,
    load_checkpoint,
    save_checkpoint,
)
from fld.model import FFBaseline, FFConfig, FLDConfig, FLDModel, VAEBaseline, VAEConfig
from fld.numerics import Adam
from fld.signals import NormalizationStats


def make_checkpoint(seed=0, **overrides):
    cfg = FLDConfig(dims=3, channels=2, window=9, horizon=2, hidden=4, **overrides)
    model = FLDModel(cfg, np.random.default_rng(seed))
    stats = NormalizationStats(np.arange(3.0), np.ones(3) * 2.0)
    return checkpoint_from_model(model, "fld", stats, seed=seed, iteration=7), model


def test_round_trip_bit_exact(tmp_path):
    ckpt, _ = make_checkpoint()
    path = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, path)
    loaded = load_checkpoint(path)
    assert loaded.model_kind == "fld"
    assert loaded.seed == 0 and loaded.iteration == 7
    assert loaded.config == ckpt.config
    assert np.array_equal(loaded.normalization.mean, ckpt.normalization.mean)
    assert list(loaded.arrays) == list(ckpt.arrays)
    for name in ckpt.arrays:
        assert np.array_equal(loaded.arrays[name], ckpt.arrays[name]), name


def test_numpy_integer_seed_round_trips_as_int(tmp_path):
    ckpt, model = make_checkpoint()
    ckpt = checkpoint_from_model(model, "fld", ckpt.normalization,
                                 seed=np.int64(3), iteration=np.int32(5))
    assert type(ckpt.seed) is int and type(ckpt.iteration) is int
    save_checkpoint(ckpt, tmp_path / "m.ckpt")
    loaded = load_checkpoint(tmp_path / "m.ckpt")
    assert (loaded.seed, loaded.iteration) == (3, 5)
    assert type(loaded.seed) is int and type(loaded.iteration) is int


def test_build_model_reproduces_forward(tmp_path):
    ckpt, model = make_checkpoint(seed=3)
    path = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, path)
    rebuilt = build_model(load_checkpoint(path))
    x = np.random.default_rng(1).normal(size=(2, 3, 9))
    a = model.predict(x, [0, 1])
    b = rebuilt.predict(x, [0, 1])
    assert np.array_equal(a, b)


def test_final_activation_output_block_round_trips(tmp_path):
    ckpt, model = make_checkpoint(seed=4, final_activation=True)
    assert "dec.conv2.weight" in ckpt.arrays and "dec.conv2.bias" not in ckpt.arrays
    assert {"dec.bn2.gamma", "dec.bn2.beta", "dec.bn2.running_mean",
            "dec.bn2.running_var"} <= set(ckpt.arrays)
    # one train-mode pass moves the running statistics off their defaults
    rng = np.random.default_rng(2)
    model.loss_and_grads(rng.normal(size=(3, 3, 3, 9)), mode="train")
    assert not np.array_equal(model.state_arrays()["dec.bn2.running_var"], np.ones(3))
    model.state_arrays()["dec.bn2.gamma"][...] = 50.0  # outputs well below -1 before ELU
    path = tmp_path / "m.ckpt"
    save_checkpoint(checkpoint_from_model(model, "fld", ckpt.normalization, 4, 1), path)
    rebuilt = build_model(load_checkpoint(path))
    x = rng.normal(size=(2, 3, 9))
    out = model.predict(x, [0, 2])
    assert np.array_equal(out, rebuilt.predict(x, [0, 2]))
    assert -1.0 < out.min() < -0.5  # the output block ends in ELU


def moved_checkpoint(final_activation: bool) -> ModelCheckpoint:
    """A checkpoint whose batch-norm running statistics left their defaults."""
    ckpt, model = make_checkpoint(seed=5, final_activation=final_activation)
    model.loss_and_grads(np.random.default_rng(6).normal(size=(4, 3, 3, 9)), mode="train")
    moved = checkpoint_from_model(model, "fld", ckpt.normalization, 5, 1)
    assert not np.array_equal(moved.arrays["enc.bn0.running_var"], np.ones(4))
    return moved


def assert_close(got, want, rtol=1e-12):
    assert np.max(np.abs(np.subtract(got, want))) <= rtol * np.max(np.abs(want))


@pytest.mark.parametrize("final_activation", [False, True])
def test_frozen_model_agrees_with_build_model(final_activation):
    ckpt = moved_checkpoint(final_activation)
    plain, frozen = build_model(ckpt), build_fld_model(ckpt, "a test")
    items = np.random.default_rng(7).normal(size=(3, 3, 3, 9))
    want, got = plain.analyze(items[:, 0]), frozen.analyze(items[:, 0])
    for g, w in zip(got[:4], want[:4]):
        assert_close(g, w)
    assert_close(frozen.render(*got[:4], [0, 1, 2])[0], plain.render(*want[:4], [0, 1, 2])[0])
    (got_total, got_h), (want_total, want_h) = (frozen.propagation_loss(got, items),
                                                plain.propagation_loss(want, items))
    assert_close(got_total, want_total)
    assert_close(got_h, want_h)


@pytest.mark.parametrize("final_activation", [False, True])
def test_frozen_model_folds_batch_norm_into_the_convs(final_activation):
    frozen = build_fld_model(moved_checkpoint(final_activation), "a test")
    names = set(frozen.state_arrays())
    assert {n for n in names if ".bn" in n} == {
        "phase.bn.gamma", "phase.bn.beta", "phase.bn.running_mean", "phase.bn.running_var"}
    assert all(bn is None for _, bn, _ in frozen.encoder + frozen.decoder)
    convs = [f"enc.conv{i}" for i in range(3)] + [f"dec.conv{i}" for i in range(3)]
    assert {f"{c}.bias" for c in convs} <= names


def test_frozen_model_is_immutable_and_refuses_training():
    frozen = build_fld_model(moved_checkpoint(False), "a test")
    for name, arr in frozen.state_arrays().items():
        assert isinstance(arr.base, bytes) and not arr.flags.writeable, name
    items = np.random.default_rng(8).normal(size=(3, 3, 3, 9))
    # the phase head cannot move its running statistics
    with pytest.raises(ValueError, match="read-only"):
        frozen.analyze(items[:, 0], mode="train")
    # eval mode is forward-only, and no optimizer can move the weights
    with pytest.raises(ValueError, match="forward-only"):
        frozen.loss_and_grads(items, mode="eval")
    with pytest.raises(ValueError, match="read-only"):
        Adam(frozen.parameters(), lr=1e-3).step()


def test_truncated_file_rejected(tmp_path):
    ckpt, _ = make_checkpoint()
    path = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-1])
    with pytest.raises(ValueError, match="checksum|truncated"):
        load_checkpoint(path)


def test_corrupted_byte_rejected(tmp_path):
    ckpt, _ = make_checkpoint()
    path = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, path)
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="checksum"):
        load_checkpoint(path)


def test_version_mismatch_rejected(tmp_path, monkeypatch):
    import fld.checkpoint as cp
    ckpt, _ = make_checkpoint()
    path = tmp_path / "m.ckpt"
    monkeypatch.setattr(cp, "VERSION", 2)
    save_checkpoint(ckpt, path)
    monkeypatch.setattr(cp, "VERSION", 1)
    with pytest.raises(ValueError, match="version 2"):
        load_checkpoint(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\0" * 64)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(path)


def test_unknown_array_names_rejected():
    ckpt, _ = make_checkpoint()
    ckpt.arrays["enc.conv9.weight"] = np.zeros(3)
    with pytest.raises(ValueError, match="unknown arrays"):
        build_model(ckpt)


def test_missing_array_names_rejected():
    ckpt, _ = make_checkpoint()
    del ckpt.arrays["enc.conv0.weight"]
    with pytest.raises(ValueError, match="missing arrays"):
        build_model(ckpt)


def test_invalid_kind_rejected():
    with pytest.raises(ValueError, match="model kind"):
        ModelCheckpoint("gru", {}, NormalizationStats(np.zeros(1), np.ones(1)), 0, 0, {})


BAD_NORMALIZATION = {
    "2-D": (np.zeros((1, 3)), np.ones((1, 3)), "1-D of one shape"),
    "shape mismatch": (np.zeros(3), np.ones(2), "1-D of one shape"),
    "nan mean": (np.array([0.0, np.nan, 0.0]), np.ones(3), "non-finite"),
    "inf std": (np.zeros(3), np.array([1.0, np.inf, 1.0]), "non-finite"),
    "zero std": (np.zeros(3), np.array([1.0, 0.0, 1.0]), "std must be positive"),
    "negative std": (np.zeros(3), np.array([1.0, 1.0, -2.0]), "std must be positive"),
}


@pytest.mark.parametrize("case", BAD_NORMALIZATION)
def test_bad_normalization_rejected_when_built(case):
    mean, std, message = BAD_NORMALIZATION[case]
    with pytest.raises(ValueError, match=message):
        NormalizationStats(mean, std)


@pytest.mark.parametrize("case", BAD_NORMALIZATION)
def test_bad_normalization_rejected_when_loaded(tmp_path, case):
    mean, std, message = BAD_NORMALIZATION[case]
    ckpt, _ = make_checkpoint()
    ckpt.normalization.mean, ckpt.normalization.std = mean, std  # skips the check
    save_checkpoint(ckpt, tmp_path / "m.ckpt")
    with pytest.raises(ValueError, match=message):
        load_checkpoint(tmp_path / "m.ckpt")


def test_normalization_of_other_dims_rejected_when_built():
    ckpt, _ = make_checkpoint()
    with pytest.raises(ValueError, match="normalization has 1 dims, model config 3"):
        ModelCheckpoint("fld", ckpt.config, NormalizationStats(np.zeros(1), np.ones(1)),
                        0, 0, ckpt.arrays)


def test_normalization_of_other_dims_rejected_when_loaded(tmp_path):
    ckpt, _ = make_checkpoint()
    ckpt.normalization = NormalizationStats(np.zeros(1), np.ones(1))  # skips the check
    save_checkpoint(ckpt, tmp_path / "m.ckpt")
    with pytest.raises(ValueError, match="normalization has 1 dims, model config 3"):
        load_checkpoint(tmp_path / "m.ckpt")


def _edit(*keys, value=None):
    """A header edit that sets the item at ``keys`` to ``value``, or
    deletes it when ``value`` is None."""
    def edit(header):
        target = header
        for key in keys[:-1]:
            target = target[key]
        if value is None:
            del target[keys[-1]]
        else:
            target[keys[-1]] = value
        return header
    return edit


def _repeat_first_array(header):
    header["arrays"].append(dict(header["arrays"][0]))
    return header


def _no_dims(header):
    """Config dims 0 with a 0-dim normalization, so that the two agree."""
    header["config"]["dims"] = 0
    header["normalization"] = {"mean": [], "std": []}
    return header


def baseline_checkpoint(kind):
    stats = NormalizationStats(np.zeros(3), np.ones(3))
    if kind == "vae":
        model = VAEBaseline(VAEConfig(dims=3, window=9, latent=2, hidden=(4,)),
                            np.random.default_rng(0))
    else:
        model = FFBaseline(FFConfig(dims=3, window=9, hidden=(4,)), np.random.default_rng(0))
    return checkpoint_from_model(model, kind, stats, seed=0, iteration=7)


# header edits of an fld, vae or ff checkpoint, each written back under a
# valid checksum; a repeated array name gets its own payload record, so only
# the directory is at fault
MALFORMED_HEADERS = {
    "no seed": ("fld", _edit("seed")),
    "no arrays": ("fld", _edit("arrays")),
    "config without dims": ("fld", _edit("config", "dims")),
    "list header": ("fld", lambda header: [header]),
    "float in a shape": ("fld", _edit("arrays", 0, "shape", 0, value=2.0)),
    "unknown config key": ("fld", _edit("config", "depth", value=3)),
    "dims 0": ("fld", _edit("config", "dims", value=0)),
    "hidden 0": ("fld", _edit("config", "hidden", value=0)),
    "repeated array name": ("fld", _repeat_first_array),
    "float seed": ("fld", _edit("seed", value=2.7)),
    "string seed": ("fld", _edit("seed", value="4")),
    "boolean iteration": ("fld", _edit("iteration", value=True)),
    "vae dims 0": ("vae", _no_dims),
    "vae window 0": ("vae", _edit("config", "window", value=0)),
    "vae latent 0": ("vae", _edit("config", "latent", value=0)),
    "vae hidden width 0": ("vae", _edit("config", "hidden", value=[4, 0])),
    "vae negative beta": ("vae", _edit("config", "beta", value=-1.0)),
    "vae dt 0": ("vae", _edit("config", "dt", value=0.0)),
    "ff dims 0": ("ff", _no_dims),
    "ff window 0": ("ff", _edit("config", "window", value=0)),
    "ff hidden width 0": ("ff", _edit("config", "hidden", value=[0])),
    "ff negative dt": ("ff", _edit("config", "dt", value=-1.0)),
    "fld NaN dt": ("fld", _edit("config", "dt", value=float("nan"))),
    "vae NaN beta": ("vae", _edit("config", "beta", value=float("nan"))),
    "vae NaN latent": ("vae", _edit("config", "latent", value=float("nan"))),
}


@pytest.mark.parametrize("case", MALFORMED_HEADERS)
def test_malformed_header_rejected_naming_the_file(tmp_path, case):
    kind, edit = MALFORMED_HEADERS[case]
    ckpt = make_checkpoint()[0] if kind == "fld" else baseline_checkpoint(kind)
    path = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, path)
    raw = path.read_bytes()
    start = 8 + 4 + 8  # magic, version, header length
    end = start + struct.unpack_from("<Q", raw, 12)[0]
    header = edit(json.loads(raw[start:end]))
    payload = raw[end:-4]
    if case == "repeated array name":
        payload += ckpt.arrays[next(iter(ckpt.arrays))].astype("<f8").tobytes()
    text = json.dumps(header).encode("utf-8")
    blob = raw[:12] + struct.pack("<Q", len(text)) + text + payload
    path.write_bytes(blob + struct.pack("<I", zlib.crc32(blob)))
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_checkpoint(path)
