import numpy as np
import pytest

from fld.checkpoint import (
    ModelCheckpoint,
    build_model,
    checkpoint_from_model,
    load_checkpoint,
    save_checkpoint,
)
from fld.model import FLDConfig, FLDModel
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
