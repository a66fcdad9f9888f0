"""Degradation network: causal conv encoder, feature attention, regressor.

A (window, features) input passes through a stack of width-2 causal
convolutions with ReLU and 2/2 max pooling, is expanded back to a
(window, features) grid of abstract features by a dense layer, reduced
to a single feature row by attention against the first (healthiest) row,
and regressed to a scalar remaining-useful-life estimate.

The layers are stateless, and the network walks them in one method,
``_walk``. ``forward`` walks with a tape, which keeps every layer's cache
for ``backward`` to pop in reverse; ``trace`` and ``predict`` walk
without one, so each cache is dropped as its layer returns and nothing is
written to the model. Without a tape, the conv stack and the attention run
over blocks of windows sized by ``INFER_BLOCK_BYTES``, while the dense layers
run over the whole batch, so the bits are those of one block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from .layers import (
    Conv1d,
    Linear,
    MaxPool1d,
    Module,
    Param,
    ReLU,
    Sequential,
    glorot_uniform,
    pack,
    softmax,
    softmax_backward,
    split_backward,
)

CONV_CHANNEL_LADDER = (32, 64, 128, 256)

# bytes of attention's two per-window arrays (``8 * w * (4m + w)``: the
# augmented rows and the tanh hidden rows) that one block of the inference
# walk fills. On a 2-core host with 2 MiB of L2 per core and one BLAS thread,
# predicting 4,408 windows of width 14 in ``map_windows``' chunks took, in 30
# alternating rounds: at window 64, 393 ms unblocked, 311 ms at 3 MiB, 307 at
# 2 MiB and 321 at 1 MiB; at window 16, 30.7 ms unblocked and 31.4 at 3 MiB,
# which keeps its 256-window chunks (2.4 MB) whole, but 33.3 at 2 MiB
INFER_BLOCK_BYTES = 3 << 20


def conv_channels_for_depth(depth: int) -> tuple[int, ...]:
    """Channel progression for a stack of ``depth`` conv/pool stages."""
    if not 1 <= depth <= len(CONV_CHANNEL_LADDER):
        raise ValueError(f"depth must be in 1..{len(CONV_CHANNEL_LADDER)}, got {depth}")
    return CONV_CHANNEL_LADDER[:depth]


def pooled_length(window: int, n_stages: int) -> int:
    """Time-axis length after ``n_stages`` 2/2 pool layers, floor semantics."""
    length = window
    for stage in range(1, n_stages + 1):
        if length < 2:
            raise ValueError(
                f"window {window} leaves only {length} steps at pool stage {stage}"
            )
        length //= 2
    return length


@dataclass(frozen=True)
class ModelConfig:
    """Shape hyperparameters of the network.

    The fields are the values a run sets. The architecture fixes the rest,
    as class constants: width-2 causal convolutions (``kernel``) and an
    8-unit regressor (``regressor_hidden``). The attention's hidden size,
    ``attention_hidden``, is the window length.
    """

    kernel: ClassVar[int] = 2
    regressor_hidden: ClassVar[int] = 8

    window: int = 64
    n_features: int = 15
    conv_channels: tuple[int, ...] = CONV_CHANNEL_LADDER[:3]

    def __post_init__(self) -> None:
        if self.window < 4:
            raise ValueError(f"window must be >= 4, got {self.window}")
        if self.n_features < 1:
            raise ValueError(f"n_features must be >= 1, got {self.n_features}")
        if not self.conv_channels or any(c < 1 for c in self.conv_channels):
            raise ValueError(f"bad conv channels {self.conv_channels}")
        # raises when the window is too short for the conv/pool stack
        pooled_length(self.window, len(self.conv_channels))

    @property
    def attention_hidden(self) -> int:
        return self.window

    @property
    def depth(self) -> int:
        return len(self.conv_channels)

    @property
    def n_parameters(self) -> int:
        """Parameter count of the network this config describes, without building it."""
        w, m, h, r = self.window, self.n_features, self.attention_hidden, self.regressor_hidden
        c = (m,) + self.conv_channels
        conv = sum((self.kernel * c_in + 1) * c_out for c_in, c_out in zip(c, c[1:]))
        n_flat = pooled_length(w, self.depth) * c[-1]
        return conv + (n_flat + 1) * w * m + (4 * m + 2) * h + (m + 1) * r + r + 1


@dataclass(frozen=True, eq=False)
class ModelTrace:
    """Intermediate activations of one forward pass, for inspection."""

    temporal: np.ndarray
    abstract: np.ndarray
    attention: np.ndarray
    prediction: np.ndarray


class FeatureAttention(Module):
    """Pools (B, w, m) feature rows into (B, m) by attention.

    Each row is compared against the first row through the augmented
    vector [row, first, row - first, row * first], scored by a shared
    one-hidden-layer tanh MLP against a trainable context vector, and
    the softmax-weighted sum of the original rows is returned. The
    weights are the last item of the cache ``forward`` returns.
    """

    def __init__(self, n_features: int, hidden: int, rng: np.random.Generator | None):
        self.n_features = n_features
        self.hidden = hidden
        self.weight = Param(
            "attention.weight",
            glorot_uniform(rng, 4 * n_features, hidden, (4 * n_features, hidden)),
        )
        self.bias = Param("attention.bias", np.zeros(hidden))
        self.context = Param(
            "attention.context", glorot_uniform(rng, hidden, 1, (hidden,))
        )

    def params(self) -> list[Param]:
        return [self.weight, self.bias, self.context]

    def forward(self, h: np.ndarray) -> tuple[np.ndarray, object]:
        m = h.shape[2]
        if m != self.n_features:
            raise ValueError(f"expected {self.n_features} features, got {m}")
        first = h[:, :1, :]
        augmented = np.empty(h.shape[:2] + (4 * m,))
        augmented[:, :, :m] = h
        augmented[:, :, m : 2 * m] = first
        np.subtract(h, first, out=augmented[:, :, 2 * m : 3 * m])
        np.multiply(h, first, out=augmented[:, :, 3 * m :])
        # in place: these (B, w, hidden) arrays are the largest of a forward
        hidden = augmented @ self.weight.value
        hidden += self.bias.value
        np.tanh(hidden, out=hidden)
        scores = hidden @ self.context.value
        weights = softmax(scores)
        pooled = np.einsum("bw,bwm->bm", weights, h)
        return pooled, (h, augmented, hidden, weights)

    def backward(self, cache: tuple[np.ndarray, ...], gout: np.ndarray) -> np.ndarray:
        h, augmented, hidden, weights = cache
        batch, n_rows, m = h.shape
        gweights = np.einsum("bm,bwm->bw", gout, h)
        gscores = softmax_backward(weights, gweights)
        gpre = gscores[:, :, None] * self.context.value * (1.0 - hidden * hidden)
        flat_gpre = gpre.reshape(batch * n_rows, self.hidden)

        def write_grads() -> None:
            np.einsum("bwd,bw->d", hidden, gscores, out=self.context.grad)
            flat_aug = augmented.reshape(batch * n_rows, 4 * m)
            np.matmul(flat_aug.T, flat_gpre, out=self.weight.grad)
            np.sum(flat_gpre, axis=0, out=self.bias.grad)

        def input_grad() -> np.ndarray:
            gaug = (flat_gpre @ self.weight.value.T).reshape(batch, n_rows, 4 * m)
            g_row, g_first, g_diff, g_prod = np.split(gaug, 4, axis=2)
            first = h[:, :1, :]
            gh = weights[:, :, None] * gout[:, None, :]
            gh += g_row + g_diff + g_prod * first
            # everything routed through the broadcast first row lands on row 0
            gh[:, 0, :] += (g_first - g_diff + g_prod * h).sum(axis=1)
            return gh

        return split_backward(batch * n_rows, self.weight, write_grads, input_grad)


class DegradationNetwork:
    """Full network: windows (B, w, m) in, RUL estimates (B,) out.

    Every param is a view into ``value`` and ``grad``, two flat buffers in
    ``params()`` order that the network lays out when it is built (``pack``).
    Weights are drawn from ``rng``; with ``rng`` None they start at zero, for
    a caller that fills ``value`` itself, as ``load_checkpoint`` does.
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator | None):
        self.config = config
        w, m = config.window, config.n_features
        stages: list[Module] = []
        c_in = m
        for i, c_out in enumerate(config.conv_channels, start=1):
            stages.append(Conv1d(c_in, c_out, rng, name=f"conv{i}"))
            stages.append(ReLU())
            stages.append(MaxPool1d())
            c_in = c_out
        self.conv_stack = Sequential(*stages)
        n_flat = pooled_length(w, config.depth) * config.conv_channels[-1]
        self.expand = Linear(n_flat, w * m, rng, name="expand")
        self.expand_act = ReLU()
        self.attention = FeatureAttention(m, config.attention_hidden, rng)
        self.regressor = Sequential(
            Linear(m, config.regressor_hidden, rng, name="regress1"),
            ReLU(),
            Linear(config.regressor_hidden, 1, rng, name="regress2"),
        )
        self.value, self.grad = pack(self.params())
        # the pending forward's prediction shape and its (layer, cache) entries
        self._tape: tuple[tuple[int, ...], list] | None = None

    def params(self) -> list[Param]:
        return (
            self.conv_stack.params()
            + self.expand.params()
            + self.attention.params()
            + self.regressor.params()
        )

    def n_parameters(self) -> int:
        return self.value.size

    def zero_grad(self) -> None:
        """Set every gradient to zero; not needed between steps, as ``backward`` writes them all."""
        self.grad[...] = 0.0

    def _check_input(self, x: np.ndarray) -> None:
        if x.ndim != 3 or x.shape[1:] != (self.config.window, self.config.n_features):
            raise ValueError(
                f"expected input (B, {self.config.window}, {self.config.n_features}), "
                f"got {x.shape}"
            )

    def _blocks(self, n: int) -> list[slice]:
        """``range(n)`` cut into ``ceil(n * per_window / INFER_BLOCK_BYTES)`` balanced, non-empty blocks.

        ``per_window`` is the bytes of attention's two arrays for one window.
        """
        w, m = self.config.window, self.config.n_features
        k = max(1, min(n, -(-n * 8 * w * (4 * m + w) // INFER_BLOCK_BYTES)))
        return [slice(i * n // k, (i + 1) * n // k) for i in range(k)]

    def _walk(self, x: np.ndarray, tape: list | None) -> ModelTrace:
        """Every layer in turn; with a ``tape``, each layer and its cache are appended to it.

        A reshape tapes ``None`` and its input's shape. Without a tape, each
        cache is dropped as its layer returns, and each layer's ``forward``
        is looked up on its class, so that a wrapper put on an instance
        (which a single-threaded tracer does) never runs on a thread that
        shares the model. Also without a tape, the conv stack and the
        attention, which treat each window on its own, run over ``_blocks``
        that keep their arrays in cache; the dense layers, whose matmuls
        may round a row by where it sits in the batch, run over all of
        ``x``. So the bits are those of the one-block walk a tape gets.
        """
        self._check_input(x)
        blocks = [slice(0, len(x))] if tape is not None else self._blocks(len(x))

        def run(layer: Module, h: np.ndarray) -> tuple[np.ndarray, object]:
            if tape is None:
                return type(layer).forward(layer, h)
            out, cache = layer.forward(h)
            tape.append((layer, cache))
            return out, cache

        def reshape(h: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
            if tape is not None:
                tape.append((None, h.shape))
            return h.reshape(shape)

        def blockwise(fn: Callable[[np.ndarray], tuple[np.ndarray, ...]], h: np.ndarray):
            parts = [fn(h[b]) for b in blocks]
            return parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))

        def conv_stack(h: np.ndarray) -> tuple[np.ndarray]:
            for layer in self.conv_stack.children:
                h = run(layer, h)[0]
            return (h,)

        def attention(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            pooled, cache = run(self.attention, h)
            return pooled, cache[-1]

        (temporal,) = blockwise(conv_stack, x)
        h = run(self.expand_act, run(self.expand, reshape(temporal, (len(x), -1)))[0])[0]
        abstract = reshape(h, x.shape)
        h, weights = blockwise(attention, abstract)
        for layer in self.regressor.children:
            h = run(layer, h)[0]
        return ModelTrace(
            temporal=temporal, abstract=abstract, attention=weights,
            prediction=reshape(h, (len(x),)),
        )

    def trace(self, x: np.ndarray) -> ModelTrace:
        """The walk without a tape: nothing is written to the model, so threads may share it."""
        return self._walk(x, None)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """The RUL estimates of ``forward``, bit for bit, by the walk without a tape."""
        return self._walk(x, None).prediction

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Predictions, with every layer's cache kept on the tape for ``backward``."""
        # cleared first, so a walk that raises leaves no tape of an earlier batch
        self._tape = None
        tape: list = []
        prediction = self._walk(x, tape).prediction
        self._tape = (prediction.shape, tape)
        return prediction

    def backward(self, gout: np.ndarray) -> np.ndarray:
        """The input gradient for ``gout``; pops the tape of the last ``forward`` in reverse.

        Every parameter gradient is written; a layer whose backward splits
        (``layers.split_backward``) is done with the calling thread's lane
        worker before it returns or raises. With no pending forward (none
        yet, or its tape already taken) this raises ``RuntimeError``; with
        ``gout`` not shaped like the predictions, ``ValueError``, and the
        tape is kept.
        """
        if self._tape is None:
            raise RuntimeError("DegradationNetwork.backward called without a pending forward")
        shape, tape = self._tape
        if gout.shape != shape:
            raise ValueError(f"gradient of shape {gout.shape} for predictions of shape {shape}")
        self._tape = None
        g = gout
        while tape:
            layer, cache = tape.pop()
            g = g.reshape(cache) if layer is None else layer.backward(cache, g)
        return g
