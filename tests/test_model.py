from __future__ import annotations

import dataclasses
import gc
import math
import re
import weakref

import numpy as np
import pytest

from tddn import model as model_module
from tddn.checkpoint import load_checkpoint, save_checkpoint
from tddn.model import (
    DegradationNetwork,
    INFER_BLOCK_BYTES,
    FeatureAttention,
    ModelConfig,
    conv_channels_for_depth,
    pooled_length,
)
from tddn.preprocess import LabelPolicy, Scaler, SensorSelection
from gradcheck import TOL, check_module_gradients

TINY = ModelConfig(window=8, n_features=3, conv_channels=(4, 8, 16))


class TestModelConfig:
    def test_defaults(self):
        config = ModelConfig()
        assert config.window == 64
        assert config.n_features == 15
        assert config.conv_channels == (32, 64, 128)
        assert config.kernel == 2
        assert config.attention_hidden == 64
        assert config.regressor_hidden == 8
        assert config.depth == 3

    def test_attention_hidden_defaults_to_window(self):
        assert ModelConfig(window=16).attention_hidden == 16

    def test_settable_fields(self):
        assert [f.name for f in dataclasses.fields(ModelConfig)] == [
            "window", "n_features", "conv_channels",
        ]

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="window"):
            ModelConfig(window=3)
        with pytest.raises(ValueError, match="n_features"):
            ModelConfig(n_features=0)
        with pytest.raises(ValueError, match="conv channels"):
            ModelConfig(conv_channels=())
        with pytest.raises(ValueError, match="pool stage"):
            ModelConfig(window=4, conv_channels=(4, 8, 16))

    def test_channel_ladder(self):
        assert conv_channels_for_depth(1) == (32,)
        assert conv_channels_for_depth(4) == (32, 64, 128, 256)
        with pytest.raises(ValueError, match="depth"):
            conv_channels_for_depth(0)
        with pytest.raises(ValueError, match="depth"):
            conv_channels_for_depth(5)

    @pytest.mark.parametrize(
        "config",
        [
            TINY,
            ModelConfig(),
            ModelConfig(window=16, conv_channels=(32,)),
            ModelConfig(window=33, n_features=24, conv_channels=(5, 6, 7, 9)),
            ModelConfig(window=9, n_features=2),
        ],
        ids=["tiny", "default", "w16", "deep", "narrow"],
    )
    def test_n_parameters_counts_without_building(self, config):
        net = DegradationNetwork(config, np.random.default_rng(0))
        assert config.n_parameters == sum(p.value.size for p in net.params())


class TestPooledLength:
    def test_matches_stage_by_stage_loop(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            window = int(rng.integers(1, 100))
            stages = int(rng.integers(0, 4))
            length = window
            feasible = True
            for _ in range(stages):
                if length < 2:
                    feasible = False
                    break
                length = length // 2
            if feasible:
                assert pooled_length(window, stages) == length
            else:
                with pytest.raises(ValueError, match="pool stage"):
                    pooled_length(window, stages)

    def test_known_values(self):
        assert pooled_length(64, 3) == 8
        assert pooled_length(48, 3) == 6
        assert pooled_length(8, 3) == 1


def _attention_oracle(att: FeatureAttention, h: np.ndarray):
    """Row-by-row direct evaluation of the attention definition."""
    batch, w, m = h.shape
    pooled = np.zeros((batch, m))
    weights = np.zeros((batch, w))
    for b in range(batch):
        first = h[b, 0]
        scores = np.zeros(w)
        for i in range(w):
            f = np.concatenate([h[b, i], first, h[b, i] - first, h[b, i] * first])
            hidden = np.tanh(f @ att.weight.value + att.bias.value)
            scores[i] = hidden @ att.context.value
        e = np.exp(scores - scores.max())
        lam = e / e.sum()
        weights[b] = lam
        for i in range(w):
            pooled[b] += lam[i] * h[b, i]
    return pooled, weights


def _network(window: int, n_features: int, rng) -> DegradationNetwork:
    """A one-stage network, so its attention sees ``window`` abstract rows."""
    config = ModelConfig(window=window, n_features=n_features, conv_channels=(4,))
    return DegradationNetwork(config, rng)


class TestFeatureAttention:
    def test_matches_row_by_row_oracle(self):
        rng = np.random.default_rng(1)
        net = _network(5, 4, rng)
        trace = net.trace(rng.normal(size=(3, 5, 4)))
        expected_pooled, expected_weights = _attention_oracle(net.attention, trace.abstract)
        pooled = net.attention.forward(trace.abstract)[0]
        np.testing.assert_allclose(pooled, expected_pooled, atol=1e-12)
        np.testing.assert_allclose(trace.attention, expected_weights, atol=1e-12)

    def test_weights_form_a_distribution(self):
        rng = np.random.default_rng(2)
        trace = _network(9, 3, rng).trace(rng.normal(size=(6, 9, 3)))
        np.testing.assert_allclose(trace.attention.sum(axis=1), 1.0, atol=1e-12)
        assert (trace.attention > 0.0).all()

    def test_identical_rows_get_uniform_weights(self):
        rng = np.random.default_rng(3)
        net = _network(7, 3, rng)
        # a zero expand weight makes every abstract row the (positive) bias row
        row = rng.uniform(0.5, 1.5, size=3)
        net.expand.weight.value[...] = 0.0
        net.expand.bias.value[...] = np.tile(row, 7)
        trace = net.trace(rng.normal(size=(2, 7, 3)))
        np.testing.assert_array_equal(trace.abstract, np.tile(row, (2, 7, 1)))
        np.testing.assert_allclose(trace.attention, 1.0 / 7.0, atol=1e-12)
        pooled = net.attention.forward(trace.abstract)[0]
        np.testing.assert_allclose(pooled, np.tile(row, (2, 1)), atol=1e-12)

    def test_gradcheck_covers_first_row_coupling(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            att = FeatureAttention(n_features=3, hidden=5, rng=rng)
            h = rng.normal(size=(2, 4, 3))
            assert check_module_gradients(att, h, rng) < TOL

    def test_rejects_wrong_width(self):
        rng = np.random.default_rng(5)
        att = FeatureAttention(n_features=3, hidden=4, rng=rng)
        with pytest.raises(ValueError, match="features"):
            att.forward(np.zeros((1, 4, 5)))


class TestDegradationNetwork:
    def test_output_and_trace_shapes(self):
        rng = np.random.default_rng(6)
        net = DegradationNetwork(TINY, rng)
        x = rng.normal(size=(5, 8, 3))
        trace = net.trace(x)
        assert trace.prediction.shape == (5,)
        assert trace.temporal.shape == (5, 1, 16)
        assert trace.abstract.shape == (5, 8, 3)
        assert trace.attention.shape == (5, 8)
        np.testing.assert_allclose(trace.attention.sum(axis=1), 1.0, atol=1e-12)

    def test_rejects_wrong_input_shape(self):
        net = DegradationNetwork(TINY, np.random.default_rng(7))
        with pytest.raises(ValueError, match="expected input"):
            net.forward(np.zeros((2, 9, 3)))
        with pytest.raises(ValueError, match="expected input"):
            net.forward(np.zeros((8, 3)))

    def test_init_is_deterministic(self):
        a = DegradationNetwork(TINY, np.random.default_rng(42))
        b = DegradationNetwork(TINY, np.random.default_rng(42))
        for pa, pb in zip(a.params(), b.params()):
            assert pa.name == pb.name
            np.testing.assert_array_equal(pa.value, pb.value)

    def test_param_names_unique_and_counted(self):
        net = DegradationNetwork(TINY, np.random.default_rng(8))
        names = [p.name for p in net.params()]
        assert len(names) == len(set(names))
        assert net.n_parameters() == sum(p.value.size for p in net.params())

    def test_backward_returns_input_gradient(self):
        rng = np.random.default_rng(9)
        net = DegradationNetwork(TINY, rng)
        x = rng.normal(size=(4, 8, 3))
        net.forward(x)
        net.zero_grad()
        gx = net.backward(np.ones(4))
        assert gx.shape == x.shape
        assert np.isfinite(gx).all()

    def test_failed_forward_leaves_no_tape(self):
        net = DegradationNetwork(TINY, np.random.default_rng(15))
        net.forward(np.ones((2, 8, 3)))
        with pytest.raises(ValueError, match="expected input"):
            net.forward(np.ones((5, 9, 3)))
        # the tape of the batch of two is gone with the failed forward
        with pytest.raises(RuntimeError, match="without a pending forward"):
            net.backward(np.ones(2))

    def test_backward_names_a_wrong_gradient_shape(self):
        net = DegradationNetwork(TINY, np.random.default_rng(16))
        x = np.random.default_rng(17).normal(size=(2, 8, 3))
        net.forward(x)
        for gout in (np.ones(5), np.ones((2, 1))):
            with pytest.raises(ValueError, match=rf"{re.escape(str(gout.shape))}.*\(2,\)"):
                net.backward(gout)
        # the tape is kept: the right gradient still gets the batch's input gradient
        assert net.backward(np.ones(2)).shape == x.shape

    def test_full_model_gradcheck_tiny_config(self):
        rng = np.random.default_rng(10)
        for _ in range(2):
            net = DegradationNetwork(TINY, rng)
            x = rng.normal(size=(2, 8, 3))
            assert check_module_gradients(net, x, rng) < TOL


def assert_views_the_buffers(net: DegradationNetwork) -> None:
    """Each param's value and grad are its slice of ``net.value``/``net.grad``."""
    offset = 0
    for p in net.params():
        end = offset + p.value.size
        for array, buffer in ((p.value, net.value), (p.grad, net.grad)):
            assert array.base is buffer, p.name
            assert array.ctypes.data == buffer[offset:].ctypes.data, p.name
            assert array.flags.c_contiguous and array.shape == p.value.shape, p.name
            # a write through the buffer shows in the param
            buffer[offset:end] = -7.0
            assert (array == -7.0).all(), p.name
        offset = end
    assert offset == net.value.size == net.grad.size == net.n_parameters()


class TestArena:
    def test_params_view_the_buffers_from_construction(self):
        net = DegradationNetwork(TINY, np.random.default_rng(11))
        assert net.value.dtype == net.grad.dtype == np.float64
        assert net.value.flags.owndata and net.grad.flags.owndata
        assert_views_the_buffers(net)

    def test_packing_keeps_the_initial_values(self, monkeypatch):
        net = DegradationNetwork(TINY, np.random.default_rng(12))
        np.testing.assert_array_equal(net.grad, 0.0)
        # the same draws, left in the arrays the layers made
        monkeypatch.setattr(model_module, "pack", lambda params: (None, None))
        unpacked = DegradationNetwork(TINY, np.random.default_rng(12))
        np.testing.assert_array_equal(
            net.value, np.concatenate([p.value.ravel() for p in unpacked.params()])
        )

    def test_loaded_model_views_its_buffers(self, tmp_path):
        net = DegradationNetwork(TINY, np.random.default_rng(13))
        columns = ("sensor_2", "sensor_3", "sensor_4")
        selection = SensorSelection(subset_id="FD001", columns=columns)
        scaler = Scaler(columns=selection.columns, col_min=np.zeros(3), col_max=np.ones(3))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, net, scaler, selection, LabelPolicy(), "FD001")
        loaded = load_checkpoint(path).model
        np.testing.assert_array_equal(loaded.value, net.value)
        assert_views_the_buffers(loaded)

    @pytest.mark.parametrize("source", ["built", "loaded"])
    def test_dropped_model_frees_its_buffers_without_the_cycle_collector(
        self, source, tmp_path
    ):
        # a param's layout holds its buffers, never the other params: a cycle
        # would keep a dropped model's arena alive until the collector ran
        net = DegradationNetwork(TINY, np.random.default_rng(16))
        if source == "loaded":
            columns = ("sensor_2", "sensor_3", "sensor_4")
            selection = SensorSelection(subset_id="FD001", columns=columns)
            scaler = Scaler(columns=columns, col_min=np.zeros(3), col_max=np.ones(3))
            path = tmp_path / "model.ckpt"
            save_checkpoint(path, net, scaler, selection, LabelPolicy(), "FD001")
            net = load_checkpoint(path).model
        value, grad = weakref.ref(net.value), weakref.ref(net.grad)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del net
            assert value() is None and grad() is None
        finally:
            if enabled:
                gc.enable()

    def test_round_trip(self):
        # copying one buffer into another model copies the model
        rng = np.random.default_rng(14)
        source = DegradationNetwork(TINY, rng)
        target = DegradationNetwork(TINY, np.random.default_rng(99))
        target.value[...] = source.value
        x = rng.normal(size=(3, 8, 3))
        np.testing.assert_array_equal(target.forward(x), source.forward(x))


def unblocked_walk(net: DegradationNetwork, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each layer's ``forward`` on the whole batch: the trace fields, in order."""
    h = x
    for layer in net.conv_stack.children:
        h = layer.forward(h)[0]
    temporal = h
    h = net.expand_act.forward(net.expand.forward(temporal.reshape(len(x), -1))[0])[0]
    abstract = h.reshape(x.shape)
    h, cache = net.attention.forward(abstract)
    for layer in net.regressor.children:
        h = layer.forward(h)[0]
    return temporal, abstract, cache[-1], h.reshape(len(x))


def block_windows(config: ModelConfig) -> int:
    """The most windows one block of the inference walk holds: attention's two
    (w, 4m) and (w, w) float64 arrays per window, within ``INFER_BLOCK_BYTES``."""
    w, m = config.window, config.n_features
    return INFER_BLOCK_BYTES // (8 * w * (4 * m + w))


@pytest.fixture
def attention_batches(monkeypatch) -> list[int]:
    """The batch size of every ``FeatureAttention.forward`` call, in order."""
    sizes: list[int] = []
    forward = FeatureAttention.forward

    def spy(self, h):
        sizes.append(len(h))
        return forward(self, h)

    monkeypatch.setattr(FeatureAttention, "forward", spy)
    return sizes


BLOCKED_SHAPES = [
    ModelConfig(window=64, n_features=14, conv_channels=conv_channels_for_depth(3)),
    ModelConfig(window=64, n_features=24, conv_channels=conv_channels_for_depth(3)),
    ModelConfig(window=6, n_features=14, conv_channels=conv_channels_for_depth(1)),
    ModelConfig(window=13, n_features=14, conv_channels=conv_channels_for_depth(2)),
]


class TestBlockedInference:
    @pytest.mark.parametrize(
        "config", BLOCKED_SHAPES, ids=["w64-m14-d3", "w64-m24-d3", "w6-m14-d1", "w13-m14-d2"]
    )
    def test_predict_and_trace_match_the_unblocked_walk(self, config):
        net = DegradationNetwork(config, np.random.default_rng(20))
        block = block_windows(config)
        rng = np.random.default_rng(21)
        for n in sorted({1, block - 1, block, block + 1, 2 * block + 1, 256}):
            x = 3.0 * rng.normal(size=(n, config.window, config.n_features))
            want = unblocked_walk(net, x)
            trace = net.trace(x)
            got = (trace.temporal, trace.abstract, trace.attention, trace.prediction)
            for field, a, b in zip(("temporal", "abstract", "attention", "prediction"), got, want):
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), (n, field)
            assert net.predict(x).tobytes() == want[-1].tobytes(), n

    def test_a_batch_within_the_budget_is_one_block(self, attention_batches):
        config = BLOCKED_SHAPES[0]
        net = DegradationNetwork(config, np.random.default_rng(22))
        block = block_windows(config)
        for n in (1, block - 1, block):
            attention_batches.clear()
            net.predict(np.ones((n, config.window, config.n_features)))
            assert attention_batches == [n]
        # a window-16 chunk of the longest inference batch fits the budget
        w16 = ModelConfig(window=16, n_features=14, conv_channels=(32,))
        attention_batches.clear()
        DegradationNetwork(w16, np.random.default_rng(23)).predict(np.ones((256, 16, 14)))
        assert attention_batches == [256]

    @pytest.mark.parametrize("config", BLOCKED_SHAPES[:2], ids=["w64-m14-d3", "w64-m24-d3"])
    def test_blocks_are_balanced_and_as_many_as_the_budget_fills(self, config, attention_batches):
        net = DegradationNetwork(config, np.random.default_rng(24))
        block = block_windows(config)
        per_window = 8 * config.window * (4 * config.n_features + config.window)
        for n in (block + 1, 2 * block - 1, 2 * block + 1, 100, 255, 256):
            attention_batches.clear()
            net.trace(np.ones((n, config.window, config.n_features)))
            assert len(attention_batches) == math.ceil(n * per_window / INFER_BLOCK_BYTES) > 1
            assert sum(attention_batches) == n
            assert min(attention_batches) >= 1
            assert max(attention_batches) - min(attention_batches) <= 1

    def test_a_window_over_the_budget_is_a_block_of_its_own(self, monkeypatch, attention_batches):
        monkeypatch.setattr(model_module, "INFER_BLOCK_BYTES", 1000)
        net = DegradationNetwork(TINY, np.random.default_rng(25))
        x = np.random.default_rng(26).normal(size=(3, 8, 3))
        prediction = net.predict(x)
        assert attention_batches == [1, 1, 1]
        assert prediction.tobytes() == unblocked_walk(net, x)[-1].tobytes()

    def test_forward_with_a_tape_is_one_block(self, attention_batches):
        config = BLOCKED_SHAPES[0]
        net = DegradationNetwork(config, np.random.default_rng(27))
        x = np.random.default_rng(28).normal(size=(256, config.window, config.n_features))
        prediction = net.forward(x)
        assert attention_batches == [256]
        assert prediction.tobytes() == unblocked_walk(net, x)[-1].tobytes()
        assert net.backward(np.ones(256)).shape == x.shape
