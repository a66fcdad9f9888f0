from __future__ import annotations

import math
import threading
import tracemalloc

import numpy as np
import pytest

from tddn import cli, layers
from tddn.checkpoint import load_checkpoint, save_checkpoint
from tddn.layers import (
    Conv1d,
    Linear,
    MaxPool1d,
    Module,
    ReLU,
    Sequential,
    glorot_uniform,
    mse_loss,
    softmax,
    softmax_backward,
)
from tddn.model import DegradationNetwork, FeatureAttention, ModelConfig, conv_channels_for_depth
from tddn.preprocess import LabelPolicy, fit_scaler, select_columns
from tddn.training import INFER_BATCH, build_window_bank, predict_windows
from _lanes import lane_workers
from _synth import make_bundle, write_bundle
from gradcheck import TOL, check_module_gradients, forward_backward, max_rel_error, numeric_gradient


# The formulations ReLU and MaxPool1d used before their branch-free
# kernels, kept as oracles: forward outputs must match them byte for byte
# and backward gradients by value. Conv1d's general-width formulation, run
# at width 2, must match its fixed-width one byte for byte both ways.
def reference_relu(x: np.ndarray, gout: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mask = x > 0.0
    return np.where(mask, x, 0.0), np.where(mask, gout, 0.0)


def reference_pool(x: np.ndarray, gout: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    batch, n_time, channels = x.shape
    n_out = n_time // 2
    windows = x[:, : n_out * 2].reshape(batch, n_out, 2, channels)
    idx = windows.argmax(axis=2)
    out = np.take_along_axis(windows, idx[:, :, None], axis=2).squeeze(axis=2)
    taps = np.arange(2)[:, None]
    gwindows = np.where(taps == idx[:, :, None], gout[:, :, None], 0.0)
    gin = np.zeros(x.shape)
    gin[:, : n_out * 2] = gwindows.reshape(batch, n_out * 2, channels)
    return out, gin


def reference_conv(layer: Conv1d, x: np.ndarray, gout: np.ndarray) -> tuple[np.ndarray, ...]:
    """Output, input gradient, weight and bias gradients, by the tap loops of any width."""
    k, (batch, n_time, c_in) = layer.weight.value.shape[0], x.shape
    padded = np.concatenate([np.zeros((batch, k - 1, c_in)), x], axis=1)
    patches = np.stack([padded[:, tap : tap + n_time] for tap in range(k)], axis=2)
    patches = patches.reshape(batch, n_time, k * c_in)
    flat_w = layer.weight.value.reshape(k * c_in, -1)
    out = patches @ flat_w
    out += layer.bias.value
    flat_g = gout.reshape(batch * n_time, -1)
    gweight = (patches.reshape(batch * n_time, -1).T @ flat_g).reshape(layer.weight.value.shape)
    gpatches = (flat_g @ flat_w.T).reshape(batch, n_time, k, c_in)
    gpadded = np.zeros((batch, n_time + k - 1, c_in))
    for tap in range(k):
        gpadded[:, tap : tap + n_time] += gpatches[:, :, tap]
    return out, gpadded[:, k - 1 :], gweight, flat_g.sum(axis=0)


SPECIALS = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan])


def tie_heavy_inputs(rng: np.random.Generator, shape: tuple[int, ...]) -> list[np.ndarray]:
    """Small integers, post-ReLU zeros, and both salted with -0.0, +-inf and NaN."""
    ints = rng.integers(-3, 4, size=shape).astype(np.float64)
    relu_out = np.maximum(rng.normal(size=shape), 0.0)
    salted = []
    for base in (ints, relu_out):
        x = base.copy()
        hit = rng.random(shape) < 0.2
        x[hit] = rng.choice(SPECIALS, size=int(hit.sum()))
        salted.append(x)
    return [ints, relu_out, *salted]


class TestLinear:
    def test_forward_matches_loops(self):
        rng = np.random.default_rng(42)
        layer = Linear(4, 3, rng)
        x = rng.normal(size=(5, 4))
        out = layer.forward(x)[0]
        for b in range(5):
            for j in range(3):
                expected = layer.bias.value[j] + sum(
                    x[b, i] * layer.weight.value[i, j] for i in range(4)
                )
                assert abs(out[b, j] - expected) < 1e-12

    def test_gradcheck(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            layer = Linear(4, 3, rng)
            x = rng.normal(size=(3, 4))
            assert check_module_gradients(layer, x, rng) < TOL

    def test_closed_form_mse_gradient(self):
        # single linear layer under MSE: dL/dW = 2 xᵀ(Wx+b-y)/B
        rng = np.random.default_rng(2)
        layer = Linear(3, 2, rng)
        x = rng.normal(size=(6, 3))
        y = rng.normal(size=(6, 2))
        pred, cache = layer.forward(x)
        _, gpred = mse_loss(pred, y)
        layer.backward(cache, gpred)
        expected_w = 2.0 * x.T @ (pred - y) / pred.size
        expected_b = 2.0 * (pred - y).sum(axis=0) / pred.size
        np.testing.assert_allclose(layer.weight.grad, expected_w, atol=1e-14)
        np.testing.assert_allclose(layer.bias.grad, expected_b, atol=1e-14)


class TestActivations:
    def test_relu_forward(self):
        layer = ReLU()
        x = np.array([[-2.0, 0.0, 3.5]])
        np.testing.assert_array_equal(layer.forward(x)[0], [[0.0, 0.0, 3.5]])

    def test_relu_subgradient_zero_at_zero(self):
        layer = ReLU()
        _, mask = layer.forward(np.array([[0.0]]))
        np.testing.assert_array_equal(layer.backward(mask, np.array([[5.0]])), [[0.0]])

    def test_activation_gradchecks(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            x = rng.normal(size=(3, 6))
            assert check_module_gradients(ReLU(), x, rng) < TOL


class TestConv1d:
    def test_known_filter_sums_adjacent_steps(self):
        rng = np.random.default_rng(5)
        conv = Conv1d(1, 1, rng=rng)
        conv.weight.value[:] = np.ones((2, 1, 1))
        conv.bias.value[:] = 0.0
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4, 1)
        out = conv.forward(x)[0]
        np.testing.assert_allclose(out[0, :, 0], [1.0, 3.0, 5.0, 7.0])

    def test_identity_filter_reproduces_input(self):
        rng = np.random.default_rng(6)
        conv = Conv1d(1, 1, rng=rng)
        conv.weight.value[:] = np.array([0.0, 1.0]).reshape(2, 1, 1)
        conv.bias.value[:] = 0.0
        x = rng.normal(size=(2, 7, 1))
        np.testing.assert_allclose(conv.forward(x)[0], x)

    def test_forward_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            c_in = int(rng.integers(1, 4))
            c_out = int(rng.integers(1, 4))
            t = int(rng.integers(1, 9))
            conv = Conv1d(c_in, c_out, rng=rng)
            x = rng.normal(size=(2, t, c_in))
            out = conv.forward(x)[0]
            assert out.shape == (2, t, c_out)
            padded = np.concatenate([np.zeros((2, 1, c_in)), x], axis=1)
            for b in range(2):
                for step in range(t):
                    for o in range(c_out):
                        acc = conv.bias.value[o]
                        for tap in range(2):
                            for i in range(c_in):
                                acc += (
                                    padded[b, step + tap, i]
                                    * conv.weight.value[tap, i, o]
                                )
                        assert abs(out[b, step, o] - acc) < 1e-12

    def test_gradcheck(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            conv = Conv1d(2, 3, rng=rng)
            x = rng.normal(size=(2, 5, 2))
            assert check_module_gradients(conv, x, rng) < TOL

    def test_rejects_wrong_channels(self):
        conv = Conv1d(2, 3, rng=np.random.default_rng(9))
        with pytest.raises(ValueError, match="input channels"):
            conv.forward(np.zeros((1, 4, 5)))


class TestMaxPool1d:
    def test_forward_matches_brute_force(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            t = int(rng.integers(2, 12))
            c = int(rng.integers(1, 4))
            x = rng.normal(size=(2, t, c))
            pool = MaxPool1d()
            out = pool.forward(x)[0]
            assert out.shape == (2, t // 2, c)
            for b in range(2):
                for j in range(t // 2):
                    for ch in range(c):
                        assert out[b, j, ch] == max(x[b, 2 * j, ch], x[b, 2 * j + 1, ch])

    def test_odd_tail_dropped(self):
        x = np.arange(7, dtype=np.float64).reshape(1, 7, 1)
        out = MaxPool1d().forward(x)[0]
        np.testing.assert_array_equal(out[0, :, 0], [1.0, 3.0, 5.0])

    def test_tie_routes_gradient_to_earliest(self):
        pool = MaxPool1d()
        x = np.array([[[3.0], [3.0]]])
        _, cache = pool.forward(x)
        gin = pool.backward(cache, np.array([[[1.0]]]))
        np.testing.assert_array_equal(gin, [[[1.0], [0.0]]])

    def test_backward_scatters_to_argmax(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(3, 8, 2))
        pool = MaxPool1d()
        out, cache = pool.forward(x)
        g = rng.normal(size=out.shape)
        gin = pool.backward(cache, g)
        assert gin.shape == x.shape
        for b in range(3):
            for j in range(4):
                for ch in range(2):
                    pair = x[b, 2 * j : 2 * j + 2, ch]
                    winner = 2 * j + int(np.argmax(pair))
                    loser = 2 * j + 1 - int(np.argmax(pair))
                    assert gin[b, winner, ch] == g[b, j, ch]
                    assert gin[b, loser, ch] == 0.0

    def test_gradcheck(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            x = rng.normal(size=(2, 6, 3))
            assert check_module_gradients(MaxPool1d(), x, rng) < TOL

    def test_too_short_input_rejected(self):
        with pytest.raises(ValueError, match="time axis 1 shorter than pool window 2"):
            MaxPool1d().forward(np.zeros((1, 1, 1)))


class TestKernelOracles:
    @pytest.mark.parametrize("batch", [1, 32, 256])
    def test_relu_matches_reference(self, batch):
        rng = np.random.default_rng(batch)
        for x in tie_heavy_inputs(rng, (batch, 9, 5)):
            gout = rng.normal(size=x.shape)
            want_out, want_gin = reference_relu(x, gout)
            layer = ReLU()
            out, mask = layer.forward(x)
            assert out.tobytes() == want_out.tobytes()
            assert np.array_equal(layer.backward(mask, gout), want_gin)

    @pytest.mark.parametrize("batch", [1, 32, 256])
    def test_pool_matches_reference(self, batch):
        rng = np.random.default_rng([2, batch])
        # whole pairs, and an odd last step that is dropped
        for n_time in (8, 9):
            for x in tie_heavy_inputs(rng, (batch, n_time, 4)):
                gout = rng.normal(size=(batch, n_time // 2, 4))
                layer = MaxPool1d()
                assert layer.forward(x)[0].tobytes() == reference_pool(x, gout)[0].tobytes()
                # a NaN routes by the strict-greater rule, not argmax's NaN-is-largest
                # one (see TestNonFiniteContract), so routing is compared without NaN
                x = np.where(np.isnan(x), 0.0, x)
                cache = layer.forward(x)[1]
                assert np.array_equal(layer.backward(cache, gout), reference_pool(x, gout)[1])

    @pytest.mark.parametrize("batch", [1, 32, 256])
    def test_conv_matches_reference(self, batch):
        rng = np.random.default_rng([3, batch])
        layer = Conv1d(3, 4, rng)
        for n_time in (1, 2, 9):
            shape = (batch, n_time, 3)
            # a salted upstream gradient, and one of -0.0 only
            gouts = [tie_heavy_inputs(rng, shape[:2] + (4,))[2], np.full(shape[:2] + (4,), -0.0)]
            for x in tie_heavy_inputs(rng, shape):
                for gout in gouts:
                    with np.errstate(invalid="ignore"):
                        out, cache = layer.forward(x)
                        gin = layer.backward(cache, gout)
                        want = reference_conv(layer, x, gout)
                    got = (out, gin, layer.weight.grad, layer.bias.grad)
                    for name, a, b in zip(("out", "gin", "weight", "bias"), got, want):
                        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


class TestNonFiniteContract:
    def test_relu(self):
        layer = ReLU()
        out, mask = layer.forward(np.array([[np.nan, -0.0, np.inf, -np.inf, 2.0]]))
        assert out.tobytes() == np.array([[0.0, 0.0, np.inf, 0.0, 2.0]]).tobytes()
        with np.errstate(invalid="ignore"):
            gin = layer.backward(mask, np.array([[np.inf, -np.inf, np.inf, np.nan, 3.0]]))
        # inf * 0 at the masked-out positions surfaces as NaN
        np.testing.assert_array_equal(gin, [[np.nan, np.nan, np.inf, np.nan, 3.0]])

    def test_pool_propagates_nan_and_routes_before_it(self):
        x = np.array([1.0, np.nan, np.nan, 5.0, 1.0, 3.0]).reshape(1, 6, 1)
        layer = MaxPool1d()
        out, cache = layer.forward(x)
        np.testing.assert_array_equal(out[0, :, 0], [np.nan, np.nan, 3.0])
        gin = layer.backward(cache, np.array([[[1.0], [2.0], [4.0]]]))
        # a pair holding a NaN routes its gradient to the earlier step
        np.testing.assert_array_equal(gin[0, :, 0], [1.0, 0.0, 2.0, 0.0, 0.0, 4.0])

        # which of two NaNs with different bits comes out is not fixed
        payloads = np.array([0x7FF8000000000000, 0xFFF8000000000000], dtype=np.uint64)
        assert np.isnan(MaxPool1d().forward(payloads.view(np.float64).reshape(1, 2, 1))[0])

    def test_pool_backward_nonfinite_gradient_at_loser(self):
        layer = MaxPool1d()
        _, cache = layer.forward(np.array([[[1.0], [2.0]]]))
        with np.errstate(invalid="ignore"):
            gin = layer.backward(cache, np.array([[[np.inf]]]))
        np.testing.assert_array_equal(gin[0, :, 0], [np.nan, np.inf])


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(15)
        y = softmax(rng.normal(scale=5.0, size=(20, 9)))
        np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)
        assert (y > 0.0).all()

    def test_shift_invariance(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(4, 6))
        np.testing.assert_allclose(softmax(x), softmax(x + 123.0), atol=1e-12)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(3, 5))
        y = softmax(x)
        for i in range(3):
            denom = math.fsum(math.exp(v) for v in x[i])
            for j in range(5):
                assert abs(y[i, j] - math.exp(x[i, j]) / denom) < 1e-12

    def test_extreme_values_stay_finite(self):
        y = softmax(np.array([[1000.0, 0.0, -1000.0]]))
        assert np.isfinite(y).all()
        assert abs(y.sum() - 1.0) < 1e-12

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(18)
        for _ in range(5):
            x = rng.normal(size=(3, 6))
            probe = rng.normal(size=(3, 6))
            analytic = softmax_backward(softmax(x), probe)

            def loss() -> float:
                return float(np.sum(softmax(x) * probe))

            assert max_rel_error(analytic, numeric_gradient(loss, x)) < TOL


class TestMseLoss:
    def test_hand_computed_case(self):
        # diffs {1, -1} across a batch of two
        loss, grad = mse_loss(np.array([2.0, 1.0]), np.array([1.0, 2.0]))
        assert loss == 1.0
        np.testing.assert_array_equal(grad, [1.0, -1.0])

    def test_gradient_closed_form(self):
        rng = np.random.default_rng(19)
        pred = rng.normal(size=8)
        target = rng.normal(size=8)
        loss, grad = mse_loss(pred, target)
        assert abs(loss - np.mean((pred - target) ** 2)) < 1e-14
        np.testing.assert_allclose(grad, 2.0 * (pred - target) / 8.0, atol=1e-15)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(20)
        pred = rng.normal(size=6)
        target = rng.normal(size=6)
        _, grad = mse_loss(pred, target)

        def loss() -> float:
            return mse_loss(pred, target)[0]

        assert max_rel_error(grad, numeric_gradient(loss, pred)) < TOL

    def test_rejects_bad_batches(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            mse_loss(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError, match="empty batch"):
            mse_loss(np.zeros(0), np.zeros(0))


TINY = ModelConfig(window=8, n_features=3, conv_channels=(4, 8))


class TestModuleDiscipline:
    def test_backward_before_forward_raises(self):
        net = DegradationNetwork(TINY, np.random.default_rng(21))
        with pytest.raises(RuntimeError, match="without a pending forward"):
            net.backward(np.zeros(1))

    def test_double_backward_raises(self):
        net = DegradationNetwork(TINY, np.random.default_rng(22))
        net.forward(np.zeros((1, 8, 3)))
        net.backward(np.zeros(1))
        with pytest.raises(RuntimeError, match="without a pending forward"):
            net.backward(np.zeros(1))

    def test_backward_writes_every_gradient(self):
        # NaN left in a gradient before backward must not survive it: every
        # param is written, so a training step needs no zero_grad
        rng = np.random.default_rng(23)
        cases = [
            (Linear(5, 3, rng), rng.normal(size=(4, 5))),
            (Conv1d(3, 4, rng), rng.normal(size=(4, 6, 3))),
            (FeatureAttention(3, 5, rng), rng.normal(size=(4, 6, 3))),
        ]
        for depth in (1, 3):
            config = ModelConfig(
                window=16, n_features=3, conv_channels=conv_channels_for_depth(depth)
            )
            cases.append((DegradationNetwork(config, rng), rng.normal(size=(4, 16, 3))))
        for module, x in cases:
            runs = {}
            for fill in (0.0, np.nan):
                for p in module.params():
                    p.grad[...] = fill
                out, backward = forward_backward(module, x)
                gin = backward(np.random.default_rng(1).normal(size=out.shape))
                runs[fill] = [gin.tobytes()] + [p.grad.tobytes() for p in module.params()]
            assert runs[np.nan] == runs[0.0], type(module).__name__

    def test_sequential_lists_children_and_params(self):
        rng = np.random.default_rng(24)
        a = Linear(3, 4, rng)
        relu = ReLU()
        b = Linear(4, 2, rng)
        stack = Sequential(a, relu, b)
        assert stack.children == [a, relu, b]
        assert stack.params() == [a.weight, a.bias, b.weight, b.bias]

    def test_layers_write_no_attribute(self):
        rng = np.random.default_rng(25)
        x = rng.normal(size=(3, 8, 4))
        layers = [
            (Conv1d(4, 5, rng), x), (ReLU(), x), (MaxPool1d(), x),
            (Linear(4, 2, rng), x[:, 0]), (FeatureAttention(4, 5, rng), x),
        ]
        for layer, inp in layers:
            name = type(layer).__name__
            state = dict(vars(layer))
            arrays = [(p.value, p.grad) for p in layer.params()]
            out, cache = layer.forward(inp)
            assert vars(layer) == state and cache is not None, name
            layer.backward(cache, np.ones_like(out))
            assert vars(layer) == state, name
            # gradients are written into the arrays, which stay bound
            assert [(p.value, p.grad) for p in layer.params()] == arrays, name

    def test_base_module_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Module().forward(np.zeros(1))
        with pytest.raises(NotImplementedError):
            Module().backward(None, np.zeros(1))


def all_layers(model: DegradationNetwork) -> list[Module]:
    """Every layer of the network, in the order the walk runs them."""
    return [
        *model.conv_stack.children, model.expand, model.expand_act, model.attention,
        *model.regressor.children,
    ]


def wrap_layers(model: DegradationNetwork, seen: list) -> None:
    """Instance wrappers, like a tracer's, on every layer's forward and backward.

    Each call appends (layer position, method name, thread) to ``seen``.
    """
    for i, layer in enumerate(all_layers(model)):
        for attr in ("forward", "backward"):
            def wrapper(*args, _fn=getattr(layer, attr), _key=(i, attr)):
                seen.append((*_key, threading.current_thread()))
                return _fn(*args)

            setattr(layer, attr, wrapper)


class TestTwoLaneLinearBackward:
    CONFIG = ModelConfig(window=16, conv_channels=(8, 16))

    @pytest.fixture
    def split_all(self, monkeypatch):
        """Two lanes, and every layer backward splits, however small."""
        monkeypatch.setattr("tddn.lanes.cpu_lanes", lambda: 2)
        monkeypatch.setattr(layers, "BACKWARD_TWO_LANE_MIN", 0)

    def test_lane_decision(self, monkeypatch, executors):
        # at batch 32 nothing of the window-16 depth-1 model splits; of the
        # default model, conv2, conv3, expand and the attention split, and
        # share the one worker of its backward
        monkeypatch.setattr("tddn.lanes.cpu_lanes", lambda: 2)
        split_rows: list[int] = []
        split = layers.split_backward

        def spy(rows, weight, write_grads, input_grad):
            if rows * weight.value.size >= layers.BACKWARD_TWO_LANE_MIN:
                split_rows.append(rows)
            return split(rows, weight, write_grads, input_grad)

        monkeypatch.setattr(layers, "split_backward", spy)
        monkeypatch.setattr("tddn.model.split_backward", spy)
        rng = np.random.default_rng(30)
        w16 = ModelConfig(window=16, conv_channels=conv_channels_for_depth(1))
        # rows of each layer that splits, in the order backward reaches them
        for config, rows in ((w16, []), (ModelConfig(), [32 * 64, 32, 32 * 16, 32 * 32])):
            model = DegradationNetwork(config, rng)
            pred = model.forward(rng.normal(size=(32, config.window, config.n_features)))
            del executors[:], split_rows[:]
            model.backward(np.ones_like(pred))
            assert split_rows == rows
            assert len(executors) == bool(rows)
            assert not lane_workers()
        monkeypatch.setattr("tddn.lanes.cpu_lanes", lambda: 1)
        model.forward(rng.normal(size=(32, 64, 15)))
        model.backward(np.ones(32))
        assert len(executors) == 1

    def test_one_and_two_lanes_give_the_same_bits(self, split_all, monkeypatch, executors):
        model = DegradationNetwork(self.CONFIG, np.random.default_rng(31))
        rng = np.random.default_rng(32)
        x = rng.normal(size=(8, 16, 15))
        gout = rng.normal(size=8)
        runs = {}
        for lanes in (1, 2):
            monkeypatch.setattr("tddn.lanes.cpu_lanes", lambda n=lanes: n)
            del executors[:]
            model.forward(x)
            gin = model.backward(gout)
            runs[lanes] = (gin.tobytes(), model.grad.tobytes())
            # one worker for the whole backward, none left running
            assert len(executors) == (1 if lanes == 2 else 0)
            assert not lane_workers()
        assert runs[1] == runs[2]

    def test_worker_error_reaches_the_caller(self, split_all, executors):
        layer = Linear(4, 3, np.random.default_rng(33))
        # the worker writes the weight gradient, so only its lane can fail here
        layer.weight.grad = np.zeros((4, 3))
        layer.weight.grad.flags.writeable = False
        _, cache = layer.forward(np.ones((2, 4)))
        with pytest.raises(ValueError, match="read-only"):
            layer.backward(cache, np.ones((2, 3)))
        assert len(executors) == 1
        assert not lane_workers()

    def test_layer_calls_stay_on_the_calling_thread(self, split_all, executors):
        # a training step calls every layer's forward and backward through the
        # instance, once each, on the calling thread, while every conv, the
        # attention and the three Linear layers split on one worker
        model = DegradationNetwork(self.CONFIG, np.random.default_rng(34))
        seen: list[tuple[int, str, threading.Thread]] = []
        wrap_layers(model, seen)
        model.forward(np.ones((4, 16, 15)))
        model.backward(np.ones(4))
        assert len(executors) == 1
        n = len(all_layers(model))
        assert sorted((i, attr) for i, attr, _ in seen) == sorted(
            (i, attr) for i in range(n) for attr in ("forward", "backward")
        )
        assert {thread for *_, thread in seen} == {threading.current_thread()}

    def test_inference_calls_no_layer_wrapper(self, monkeypatch, executors, tmp_path):
        # inference may run on a worker, so it looks each layer's forward up on
        # the class: instance wrappers, which assume one thread, never run
        monkeypatch.setattr("tddn.lanes.cpu_lanes", lambda: 2)
        bundle = make_bundle(n_train=2, n_test=1, min_len=300, max_len=400, seed=37)
        data = write_bundle(bundle, tmp_path / "data")
        selection = select_columns("FD001")
        scaler = fit_scaler(bundle.train, selection)
        policy = LabelPolicy()
        model = DegradationNetwork(self.CONFIG, np.random.default_rng(38))
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, model, scaler, selection, policy, "FD001")
        bank = build_window_bank(bundle.train, scaler, selection, policy, self.CONFIG.window)
        assert bank.n_windows > 2 * INFER_BATCH
        seen: list[tuple[int, str, threading.Thread]] = []
        models = [model]

        def load_wrapped(path):
            loaded = load_checkpoint(path)
            wrap_layers(loaded.model, seen)
            models.append(loaded.model)
            return loaded

        wrap_layers(model, seen)
        monkeypatch.setattr(cli, "load_checkpoint", load_wrapped)
        predict_windows(model, bank)
        assert cli.main([
            "export-features", "--checkpoint", str(ckpt), "--data", str(data),
            "--out", str(tmp_path / "features"), "--engine", "1", "--split", "train",
        ]) == 0
        assert len(executors) == 2 and len(models) == 2
        assert seen == []
        # the wrappers are in place: a training forward calls them
        for m in models:
            m.forward(np.ones((1, 16, 15)))
        assert len(seen) == 2 * len(all_layers(model))

    def test_expand_backward_allocates_no_weight_sized_array(self, monkeypatch, executors):
        monkeypatch.setattr("tddn.lanes.cpu_lanes", lambda: 2)
        expand = DegradationNetwork(ModelConfig(), np.random.default_rng(35)).expand
        rng = np.random.default_rng(36)
        _, cache = expand.forward(rng.normal(size=(32, expand.weight.value.shape[0])))
        gout = rng.normal(size=(32, 64 * 15))
        tracemalloc.start()
        try:
            expand.backward(cache, gout)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(executors) == 1
        assert peak < expand.weight.grad.nbytes


class TestTwoLaneConvAndAttentionBackward:
    # each layer kind, built from a generator, and the shape of its input
    LAYERS = {
        "conv": (lambda rng: Conv1d(5, 7, rng), (6, 9, 5)),
        "attention": (lambda rng: FeatureAttention(5, 9, rng), (6, 9, 5)),
    }

    @pytest.fixture
    def split_all(self, monkeypatch):
        """Two lanes, and every layer backward splits, however small."""
        monkeypatch.setattr("tddn.lanes.cpu_lanes", lambda: 2)
        monkeypatch.setattr(layers, "BACKWARD_TWO_LANE_MIN", 0)

    @classmethod
    def layer_and_grads(cls, kind: str, seed: int):
        make, shape = cls.LAYERS[kind]
        rng = np.random.default_rng(seed)
        layer = make(rng)
        out, cache = layer.forward(rng.normal(size=shape))
        return layer, cache, rng.normal(size=out.shape)

    @pytest.mark.parametrize("kind", LAYERS)
    def test_serial_one_and_two_lanes_give_the_same_bits(
        self, kind, split_all, monkeypatch, executors
    ):
        layer, cache, gout = self.layer_and_grads(kind, 40)
        runs = {}
        # below the rule (no map_chunks call), then split on one lane and on two
        for mode, rule, lanes in (("serial", 1 << 62, 2), ("one-lane", 0, 1), ("two-lane", 0, 2)):
            monkeypatch.setattr(layers, "BACKWARD_TWO_LANE_MIN", rule)
            monkeypatch.setattr("tddn.lanes.cpu_lanes", lambda n=lanes: n)
            for p in layer.params():
                p.grad[...] = np.nan
            del executors[:]
            gin = layer.backward(cache, gout)
            runs[mode] = [gin.tobytes(), *(p.grad.tobytes() for p in layer.params())]
            assert len(executors) == (mode == "two-lane")
            assert not lane_workers()
        assert runs["serial"] == runs["one-lane"] == runs["two-lane"]

    @pytest.mark.parametrize("kind", LAYERS)
    def test_worker_error_reaches_the_caller(self, kind, split_all, executors):
        layer, cache, gout = self.layer_and_grads(kind, 41)
        # the worker writes the weight gradient, so only its lane can fail here
        layer.weight.grad = np.zeros(layer.weight.value.shape)
        layer.weight.grad.flags.writeable = False
        with pytest.raises(ValueError, match="read-only"):
            layer.backward(cache, gout)
        assert len(executors) == 1
        assert not lane_workers()

    def test_worker_error_ends_the_network_backward(self, split_all, executors):
        model = DegradationNetwork(
            ModelConfig(window=16, conv_channels=(8, 16)), np.random.default_rng(42)
        )
        # the attention splits before any conv: its worker task fails
        model.attention.weight.grad.flags.writeable = False
        pred = model.forward(np.random.default_rng(43).normal(size=(4, 16, 15)))
        with pytest.raises(ValueError, match="read-only"):
            model.backward(np.ones_like(pred))
        assert len(executors) == 1
        assert not lane_workers()


class TestInit:
    def test_glorot_bounds_and_determinism(self):
        a = glorot_uniform(np.random.default_rng(42), 10, 20, (10, 20))
        b = glorot_uniform(np.random.default_rng(42), 10, 20, (10, 20))
        np.testing.assert_array_equal(a, b)
        limit = np.sqrt(6.0 / 30.0)
        assert np.abs(a).max() <= limit
