from __future__ import annotations

import hashlib
import json
import os
import re
import struct
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tddn import layers, model as model_module
from tddn.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from tddn.model import DegradationNetwork, ModelConfig, conv_channels_for_depth
from tddn.preprocess import COLUMN_NAMES, LabelPolicy, fit_scaler, select_columns
from tddn.training import Adam
from _synth import make_bundle


# a format-1 file written at commit ae5bc37 from _save's model, scaler and label cap
V1_FILE = Path(__file__).with_name("checkpoint_v1.ckpt")


def _save(directory):
    bundle = make_bundle(n_train=3, seed=50)
    selection = select_columns("FD001")
    scaler = fit_scaler(bundle.train, selection)
    config = ModelConfig(window=8, n_features=15, conv_channels=(4, 8))
    model = DegradationNetwork(config, np.random.default_rng(1))
    path = directory / "model.ckpt"
    save_checkpoint(path, model, scaler, selection, LabelPolicy(r_max=110), "FD001")
    return path, model, scaler, selection


@pytest.fixture()
def saved(tmp_path):
    return _save(tmp_path)


class TestRoundTrip:
    def test_model_and_context_survive(self, saved):
        path, model, scaler, selection = saved
        loaded = load_checkpoint(path)
        assert loaded.selection.subset_id == "FD001"
        assert loaded.policy == LabelPolicy(r_max=110)
        assert loaded.selection.columns == selection.columns
        np.testing.assert_array_equal(loaded.scaler.col_min, scaler.col_min)
        np.testing.assert_array_equal(loaded.scaler.col_max, scaler.col_max)
        assert loaded.model.config == model.config
        for pa, pb in zip(loaded.model.params(), model.params()):
            assert pa.name == pb.name
            np.testing.assert_array_equal(pa.value, pb.value)

    def test_forward_is_bit_identical(self, saved):
        path, model, _, _ = saved
        loaded = load_checkpoint(path)
        x = np.random.default_rng(2).normal(size=(4, 8, 15))
        np.testing.assert_array_equal(loaded.model.forward(x), model.forward(x))

    def test_save_is_deterministic(self, saved, tmp_path):
        path, model, scaler, selection = saved
        again = tmp_path / "again.ckpt"
        save_checkpoint(again, model, scaler, selection, LabelPolicy(r_max=110), "FD001")
        assert again.read_bytes() == path.read_bytes()

    def test_float_r_max_is_refused_on_save(self, saved, tmp_path):
        # the loader refuses a float r_max, so save must not write one
        _, model, scaler, selection = saved
        path = tmp_path / "float.ckpt"
        with pytest.raises(TypeError, match="r_max must be an integer, got 125.0"):
            save_checkpoint(path, model, scaler, selection, LabelPolicy(r_max=125.0), "FD001")
        assert not path.exists()

    def test_column_count_mismatch_is_refused_on_save(self, saved, tmp_path):
        # the loader refuses a file whose columns are not the model's features
        _, model, scaler, selection = saved
        fd004 = select_columns("FD004")
        fd004_scaler = fit_scaler(make_bundle(n_train=3, seed=50).train, fd004)
        assert model.config.n_features == 15 and fd004.n_columns == 24
        path = tmp_path / "mismatch.ckpt"
        for sel, sc in ((fd004, fd004_scaler), (selection, fd004_scaler), (fd004, scaler)):
            with pytest.raises(ValueError, match="for 15 model features"):
                save_checkpoint(path, model, sc, sel, LabelPolicy(), "FD004")
            assert not path.exists()

    def test_subset_other_than_the_selection_is_refused_on_save(self, saved, tmp_path):
        # such a file would load, and evaluate would score FD003 with an FD001 scaler
        _, model, scaler, selection = saved
        path = tmp_path / "other.ckpt"
        for subset_id in ("FD003", "fd003", "FD009", 1):
            with pytest.raises(ValueError):
                save_checkpoint(path, model, scaler, selection, LabelPolicy(), subset_id)
            assert not path.exists()
        with pytest.raises(ValueError, match="subset 'FD003' is not the selection's 'FD001'"):
            save_checkpoint(path, model, scaler, selection, LabelPolicy(), "FD003")
        save_checkpoint(path, model, scaler, selection, LabelPolicy(), "fd001")
        assert load_checkpoint(path).selection.subset_id == "FD001"

    def test_header_is_compact_sorted_json(self, saved):
        path, _, _, _ = saved
        blob = path.read_bytes()
        (header_len,) = struct.unpack("<I", blob[8:12])
        header = json.loads(blob[12 : 12 + header_len])
        assert header["format_version"] == FORMAT_VERSION
        assert list(header.keys()) == sorted(header.keys())


def reference_checkpoint(model, scaler, selection, policy, subset_id) -> bytes:
    """A checkpoint written array by array: each param's bytes in ``params()``
    order, then the scaler bounds, each named with its shape in the header."""
    arrays = [(p.name, p.value) for p in model.params()]
    arrays += [("scaler.min", scaler.col_min), ("scaler.max", scaler.col_max)]
    payload = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for _, a in arrays)
    c = model.config
    header = {
        "format_version": FORMAT_VERSION,
        "subset_id": subset_id,
        "columns": list(selection.columns),
        "r_max": policy.r_max,
        "config": {
            "window": c.window,
            "n_features": c.n_features,
            "conv_channels": list(c.conv_channels),
            "kernel": c.kernel,
            "attention_hidden": c.attention_hidden,
            "regressor_hidden": c.regressor_hidden,
        },
        "arrays": [{"name": name, "shape": list(a.shape)} for name, a in arrays],
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return MAGIC + struct.pack("<I", len(header_bytes)) + header_bytes + payload


def _payload(blob: bytes) -> bytes:
    (header_len,) = struct.unpack("<I", blob[8:12])
    return blob[12 + header_len :]


class TestArenaBytes:
    def test_file_equals_the_array_by_array_writer(self, saved, tmp_path):
        _, model, scaler, selection = saved
        # step the model so its buffer no longer holds the initial draws
        opt = Adam(model.params())
        rng = np.random.default_rng(3)
        for _ in range(3):
            model.grad[...] = rng.normal(size=model.grad.size)
            opt.step(lr=0.05)
        path = tmp_path / "stepped.ckpt"
        policy = LabelPolicy(r_max=110)
        save_checkpoint(path, model, scaler, selection, policy, "FD001")
        reference = reference_checkpoint(model, scaler, selection, policy, "FD001")
        blob = path.read_bytes()
        assert _payload(blob) == _payload(reference)
        assert blob == reference

    def test_load_fills_the_buffer(self, saved):
        path, model, scaler, _ = saved
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.model.value, model.value)
        assert loaded.model.value.tobytes() == model.value.tobytes()
        assert loaded.scaler.col_min.flags.writeable and loaded.scaler.col_max.flags.writeable

    def test_load_draws_no_weights(self, saved, monkeypatch):
        path, model, _, _ = saved
        rngs = []
        draw = layers.glorot_uniform

        def spy(rng, *args):
            rngs.append(rng)
            return draw(rng, *args)

        for module in (layers, model_module):
            monkeypatch.setattr(module, "glorot_uniform", spy)
        loaded = load_checkpoint(path)
        assert rngs and all(rng is None for rng in rngs)
        assert loaded.model.value.tobytes() == model.value.tobytes()


class TestLoader:
    def test_peak_memory_holds_no_second_copy_of_the_payload(self, tmp_path):
        # the FD004 shape: 1.6M parameters, a 12.8 MB payload
        selection = select_columns("FD004")
        scaler = fit_scaler(make_bundle(n_train=2, seed=51).train, selection)
        config = ModelConfig(n_features=selection.n_columns)
        path = tmp_path / "fd004.ckpt"
        model = DegradationNetwork(config, np.random.default_rng(4))
        save_checkpoint(path, model, scaler, selection, LabelPolicy(), "FD004")
        del model

        def peak(fn) -> int:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = fn()
            used = tracemalloc.get_traced_memory()[1] - before
            del result
            return used

        tracemalloc.start()
        try:
            build = peak(lambda: DegradationNetwork(config, rng=None))
            load = peak(lambda: load_checkpoint(path))
        finally:
            tracemalloc.stop()
        scaler_bytes = scaler.col_min.nbytes + scaler.col_max.nbytes
        assert load <= build + scaler_bytes + (1 << 20)

    def test_loaded_model_reads_zero_gradients_and_trains(self, saved):
        path, model, _, _ = saved
        loaded = load_checkpoint(path).model
        assert not loaded.grad.any()
        x = np.random.default_rng(5).normal(size=(6, 8, 15))
        pred = loaded.forward(x)
        np.testing.assert_array_equal(pred, model.forward(x))
        gin = loaded.backward(np.ones_like(pred))
        assert gin.shape == x.shape
        model.backward(np.ones_like(pred))
        assert loaded.grad.tobytes() == model.grad.tobytes()

    @pytest.mark.parametrize("edit", [lambda b: b[:-1], lambda b: b + b"\0"], ids=["short", "long"])
    def test_payload_off_by_one_byte_names_the_file(self, saved, edit):
        path, *_ = saved
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(CheckpointError, match=re.escape(str(path))):
            load_checkpoint(path)

    def test_short_read_names_the_file(self, saved, monkeypatch):
        # the file shrinks after its size is taken
        path, *_ = saved
        blob = path.read_bytes()
        size = len(blob)
        path.write_bytes(blob[:-8])
        real_fstat = os.fstat

        def fstat(fd):
            fields = list(real_fstat(fd))
            fields[6] = size  # st_size
            return os.stat_result(fields)

        monkeypatch.setattr(os, "fstat", fstat)
        with pytest.raises(CheckpointError, match=re.escape(f"{path}: payload ends early")):
            load_checkpoint(path)

    @pytest.mark.skipif(sys.byteorder != "little", reason="fakes a big-endian host")
    def test_big_endian_host_swaps_after_hashing(self, saved, monkeypatch):
        path, model, scaler, _ = saved
        monkeypatch.setattr(sys, "byteorder", "big")
        loaded = load_checkpoint(path)
        # on a little-endian host the swap is what a big-endian one undoes
        assert loaded.model.value.tobytes() == model.value.byteswap().tobytes()
        assert loaded.scaler.col_max.tobytes() == scaler.col_max.byteswap().tobytes()

    @pytest.mark.parametrize("window, depth", [(8, 2), (16, 1), (64, 3)])
    def test_load_then_save_gives_the_same_file(self, tmp_path, window, depth):
        bundle = make_bundle(n_train=3, seed=52)
        selection = select_columns("FD001")
        scaler = fit_scaler(bundle.train, selection)
        config = ModelConfig(window=window, n_features=15, conv_channels=conv_channels_for_depth(depth))
        model = DegradationNetwork(config, np.random.default_rng(window + depth))
        first, second = tmp_path / "first.ckpt", tmp_path / "second.ckpt"
        save_checkpoint(first, model, scaler, selection, LabelPolicy(r_max=125), "FD001")
        loaded = load_checkpoint(first)
        save_checkpoint(
            second, loaded.model, loaded.scaler, loaded.selection, loaded.policy,
            loaded.selection.subset_id,
        )
        assert second.read_bytes() == first.read_bytes()


class TestV1File:
    def test_loads_and_saves_to_the_same_bytes(self, tmp_path):
        loaded = load_checkpoint(V1_FILE)
        assert loaded.model.config == ModelConfig(window=8, n_features=15, conv_channels=(4, 8))
        assert loaded.selection == select_columns("FD001")
        assert loaded.policy == LabelPolicy(r_max=110)
        again = tmp_path / "again.ckpt"
        save_checkpoint(
            again, loaded.model, loaded.scaler, loaded.selection, loaded.policy,
            loaded.selection.subset_id,
        )
        assert again.read_bytes() == V1_FILE.read_bytes()


class TestCorruption:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="missing checkpoint"):
            load_checkpoint(tmp_path / "nope.ckpt")

    def test_bad_magic(self, saved):
        path, *_ = saved
        blob = bytearray(path.read_bytes())
        blob[:8] = b"NOTAFILE"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="bad magic"):
            load_checkpoint(path)

    def test_truncated_file(self, saved):
        path, *_ = saved
        path.write_bytes(path.read_bytes()[:6])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_truncated_payload(self, saved):
        path, *_ = saved
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_flipped_payload_byte(self, saved):
        path, *_ = saved
        blob = bytearray(path.read_bytes())
        blob[-5] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_garbage_header(self, saved):
        path, *_ = saved
        blob = path.read_bytes()
        (header_len,) = struct.unpack("<I", blob[8:12])
        payload = blob[12 + header_len :]
        garbage = b"{not json" + b"\x00" * (header_len - 9)
        path.write_bytes(MAGIC + struct.pack("<I", header_len) + garbage + payload)
        with pytest.raises(CheckpointError, match="unreadable header"):
            load_checkpoint(path)

    def test_unsupported_version(self, saved):
        path, *_ = saved
        blob = path.read_bytes()
        (header_len,) = struct.unpack("<I", blob[8:12])
        header = json.loads(blob[12 : 12 + header_len])
        header["format_version"] = 99
        new_header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        path.write_bytes(
            MAGIC + struct.pack("<I", len(new_header)) + new_header + blob[12 + header_len :]
        )
        with pytest.raises(CheckpointError, match="format version"):
            load_checkpoint(path)

    def test_feature_count_mismatch_detected(self, saved):
        path, *_ = saved
        blob = path.read_bytes()
        (header_len,) = struct.unpack("<I", blob[8:12])
        header = json.loads(blob[12 : 12 + header_len])
        header["columns"] = header["columns"][:-1]
        new_header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        path.write_bytes(
            MAGIC + struct.pack("<I", len(new_header)) + new_header + blob[12 + header_len :]
        )
        with pytest.raises(CheckpointError, match="columns"):
            load_checkpoint(path)


def _rewrite_header(path, edit) -> None:
    """Replace the header with ``edit(header)``, keeping the payload and its hash."""
    blob = path.read_bytes()
    (header_len,) = struct.unpack("<I", blob[8:12])
    header = edit(json.loads(blob[12 : 12 + header_len]))
    new_header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(
        MAGIC + struct.pack("<I", len(new_header)) + new_header + blob[12 + header_len :]
    )


def _with_first_shape(shape):
    def edit(header):
        header["arrays"][0]["shape"] = shape
        return header

    return edit


def _with_first_name(name):
    def edit(header):
        header["arrays"][0]["name"] = name
        return header

    return edit


def _with_field(key, value):
    def edit(header):
        header[key] = value
        return header

    return edit


def _with_config(**fields):
    def edit(header):
        header["config"].update(fields)
        return header

    return edit


def _with_arrays(edit_arrays):
    def edit(header):
        edit_arrays(header["arrays"])
        return header

    return edit


def _swap_first_two(arrays):
    arrays[0], arrays[1] = arrays[1], arrays[0]


class TestMalformedHeader:
    """A header that parses as JSON but breaks the format is a CheckpointError."""

    def test_header_not_an_object(self, saved):
        path, *_ = saved
        _rewrite_header(path, lambda header: [header])
        with pytest.raises(CheckpointError, match=r"model\.ckpt: header is not a JSON object"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "shape", [[-2, 4], [-1, -3], [2**62, 4]], ids=["negative", "two-negative", "huge"]
    )
    def test_bad_array_shape(self, saved, shape):
        path, *_ = saved
        _rewrite_header(path, _with_first_shape(shape))
        message = r'model\.ckpt: header arrays is not \[\{"name": "conv1\.weight", "shape": \[2'
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit",
        [
            _with_field("r_max", None),
            _with_field("r_max", float("inf")),
            _with_field("columns", 5),
            _with_first_shape([float("inf")]),
            _with_field("config", {"window": float("inf")}),
            _with_field("subset_id", 5),
            _with_field("subset_id", "FD009"),
            _with_field("subset_id", ["FD001"]),
            _with_field("r_max", 1.5),
            _with_field("r_max", 110.0),
            _with_field("r_max", True),
            _with_field("r_max", "110"),
            _with_field("r_max", 2**53),
            _with_config(window=8.0),
            _with_config(kernel=True),
            _with_config(regressor_hidden="8"),
            _with_config(conv_channels="48"),
            _with_config(conv_channels=[4, 8.0]),
            _with_first_shape([2.0, 15, 4]),
            _with_first_shape(["2", 15, 4]),
            _with_field("format_version", True),
            _with_field("columns", [["sensor_2"]]),
            _with_first_name(["conv1.weight"]),
        ],
        ids=[
            "r_max-null", "r_max-inf", "columns-int", "shape-inf", "config-inf",
            "subset_id-int", "subset_id-unknown", "subset_id-list",
            "r_max-fraction", "r_max-float", "r_max-bool", "r_max-string", "r_max-2**53",
            "config-float", "config-bool", "config-string",
            "conv_channels-string", "conv_channels-float",
            "shape-float", "shape-string", "format_version-bool", "columns-nested",
            "name-list",
        ],
    )
    def test_bad_field_type(self, saved, edit):
        path, *_ = saved
        _rewrite_header(path, edit)
        with pytest.raises(CheckpointError, match=r"model\.ckpt: "):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit",
        [
            _with_arrays(lambda arrays: arrays.pop(4)),
            _with_arrays(lambda arrays: arrays.append({"name": "bogus", "shape": [1]})),
            _with_first_name("conv9.weight"),
            _with_arrays(_swap_first_two),
            _with_arrays(lambda arrays: arrays[5].update(shape=[5])),
            _with_arrays(lambda arrays: arrays[-1].update(shape=[14])),
            _with_arrays(lambda arrays: arrays[0].update(dtype="<f4")),
            _with_field("arrays", {}),
        ],
        ids=[
            "missing", "extra", "renamed", "reordered", "wrong-shape", "scaler-shape",
            "extra-key", "not-a-list",
        ],
    )
    def test_arrays_table_must_match(self, saved, edit):
        path, *_ = saved
        _rewrite_header(path, edit)
        with pytest.raises(CheckpointError, match=r'model\.ckpt: header arrays is not \[\{"name'):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit",
        [
            _with_config(dropout=0.5),
            _with_config(kernel_size=7),
            _with_config(kernel=3),
            _with_config(attention_hidden=4),
            _with_config(regressor_hidden=16),
            _with_field("config", {"window": 8, "n_features": 15, "conv_channels": [4, 8]}),
        ],
        ids=[
            "unknown-key", "unknown-kernel_size", "kernel", "attention_hidden",
            "regressor_hidden", "fixed-keys-missing",
        ],
    )
    def test_config_table_must_match(self, saved, edit):
        path, *_ = saved
        _rewrite_header(path, edit)
        message = r'model\.ckpt: header config is not \{"attention_hidden": 8, '
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [None, 1, "FD001"])
    def test_unknown_top_level_key(self, saved, value):
        path, *_ = saved
        _rewrite_header(path, _with_field("dropout", value))
        with pytest.raises(CheckpointError, match=r"model\.ckpt: unknown header key 'dropout'"):
            load_checkpoint(path)

    def test_payload_size_is_checked_before_building(self, saved):
        # a 2.4e14-parameter model is refused without allocating it; the
        # attention's hidden size is the window, so both keys are edited
        path, *_ = saved
        _rewrite_header(path, _with_config(window=10**6, attention_hidden=10**6))
        with pytest.raises(CheckpointError, match=r"model\.ckpt: payload of 23192 bytes"):
            load_checkpoint(path)

    def test_subset_id_is_normalized(self, saved):
        # a config file's "fd001" reaches save_checkpoint as written
        path, *_ = saved
        _rewrite_header(path, _with_field("subset_id", "fd001"))
        assert load_checkpoint(path).selection.subset_id == "FD001"


# any JSON value, plus values close to the real ones so that some edits still load
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=12), inner, max_size=4),
    max_leaves=8,
)
_NEAR = st.one_of(
    st.integers(-1, 20),
    st.lists(st.integers(0, 20), max_size=4),
    st.sampled_from(COLUMN_NAMES),
    st.lists(st.sampled_from(COLUMN_NAMES), min_size=15, max_size=15, unique=True),
    st.fixed_dictionaries(
        {
            "name": st.sampled_from(["conv1.weight", "expand.bias", "scaler.min"]),
            "shape": st.lists(st.integers(0, 20), max_size=3),
        }
    ),
)


@pytest.fixture(scope="module")
def fuzz_target(tmp_path_factory):
    path, model, scaler, _ = _save(tmp_path_factory.mktemp("fuzz"))
    x = np.random.default_rng(2).normal(size=(4, 8, 15))
    return path, path.read_bytes(), scaler, x, model.forward(x)


class TestHeaderFuzz:
    @given(data=st.data())
    def test_loads_the_same_model_or_raises_checkpoint_error(self, fuzz_target, data):
        path, blob, scaler, x, predictions = fuzz_target
        (header_len,) = struct.unpack("<I", blob[8:12])
        header = json.loads(blob[12 : 12 + header_len])
        for _ in range(data.draw(st.integers(1, 3))):
            section = data.draw(st.sampled_from(["arrays", "config", "columns"]))
            value = data.draw(_JSON | _NEAR)
            part = header[section]
            if isinstance(part, dict) and part:
                part[data.draw(st.sampled_from(sorted(part)))] = value
            elif isinstance(part, list) and part and data.draw(st.booleans()):
                i = data.draw(st.integers(0, len(part) - 1))
                if isinstance(part[i], dict) and data.draw(st.booleans()):
                    part[i][data.draw(st.sampled_from(["name", "shape"]))] = value
                else:
                    part[i] = value
            else:
                header[section] = value
        new_header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        path.write_bytes(
            MAGIC + struct.pack("<I", len(new_header)) + new_header + blob[12 + header_len :]
        )
        try:
            loaded = load_checkpoint(path)
        except CheckpointError:
            return
        np.testing.assert_array_equal(loaded.model.forward(x), predictions)
        np.testing.assert_array_equal(loaded.scaler.col_min, scaler.col_min)
        np.testing.assert_array_equal(loaded.scaler.col_max, scaler.col_max)
