"""Degradation network: causal conv encoder, feature attention, regressor.

A (window, features) input passes through a stack of width-2 causal
convolutions with ReLU and 2/2 max pooling, is expanded back to a
(window, features) grid of abstract features by a dense layer, reduced
to a single feature row by attention against the first (healthiest) row,
and regressed to a scalar remaining-useful-life estimate.

The layers are stateless, and the network walks them in one of two ways,
chosen by the input. Stacked (B, window, features) windows go through
``_walk``: ``forward`` walks with a tape, which keeps every layer's cache
for ``backward`` to pop in reverse; ``trace`` and ``predict`` walk
without one, so each cache is dropped as its layer returns and nothing is
written to the model. Without a tape, the conv stack and the attention run
over blocks of windows sized by ``INFER_BLOCK_BYTES``, while the dense layers
run over the whole batch, so the bits are those of one block. A row matrix
and window start rows, such as a ``WindowBank``'s, go through
``trace_rows``, which runs each conv stage once per row, so overlapping
windows share it, and then the same walk as ``trace`` from ``expand`` on.
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
# walk fills; ``trace`` also runs its conv stack over these blocks, and
# ``trace_rows`` only its attention. On a 2-core host with 2 MiB of L2 per
# core and one BLAS thread, ``predict_windows`` over 4,408 windows of width
# 14 (``trace_rows`` in ``map_windows``' chunks) took, in medians of 10
# alternating rounds: at window 64, 202.6 ms unblocked, 193.6 at 3 MiB, 192.6
# at 2 MiB and 197.4 at 1 MiB; at window 16, 21.0 ms unblocked, 20.9 at 3 MiB
# (whole 256-window chunks, 2.4 MB), 21.5 at 2 MiB and 22.1 at 1 MiB. No size
# beat 3 MiB in more than 5 of the 10 rounds
INFER_BLOCK_BYTES = 3 << 20

# rows that each matmul of ``trace_rows``' conv stack is zero-padded to a
# multiple of, so that no row it keeps falls in a BLAS kernel's tail, which
# may round it another way (16 is the most any OpenBLAS kernel measured
# needed: Nehalem's). Padded, the conv bytes equalled the per-window walk's
# at all 22,680 ladder shapes tried (windows 4-70, 1-30 features, each depth)
# natively and under the Haswell, Zen, Sandybridge, SkylakeX, Cooperlake and
# SapphireRapids kernels; unpadded, 25 of 120 shapes differed under Haswell.
# Nehalem's per-window matmul rounds its own tail rows apart, so there the
# walks differ where a stage's length is not a multiple of 4
ROW_TILE = 16


def _tiled(n: int) -> int:
    """``n`` rounded up to a multiple of ``ROW_TILE``."""
    return -(-n // ROW_TILE) * ROW_TILE


def _run(layer: Module, h: np.ndarray, tape: list | None) -> tuple[np.ndarray, object]:
    """``layer.forward(h)``: found on the class without a ``tape``, else taped with its cache."""
    if tape is None:
        return type(layer).forward(layer, h)
    out, cache = layer.forward(h)
    tape.append((layer, cache))
    return out, cache


def _reshape(h: np.ndarray, shape: tuple[int, ...], tape: list | None) -> np.ndarray:
    """``h.reshape(shape)``; a tape gets ``None`` and ``h``'s shape, for the backward's reshape."""
    if tape is not None:
        tape.append((None, h.shape))
    return h.reshape(shape)


def _blockwise(
    fn: Callable[[np.ndarray], tuple[np.ndarray, ...]], h: np.ndarray, blocks: list[slice]
):
    """``fn`` of each block of ``h``, its outputs joined block after block."""
    parts = [fn(h[b]) for b in blocks]
    return parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))


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

        def conv_stack(h: np.ndarray) -> tuple[np.ndarray]:
            for layer in self.conv_stack.children:
                h = _run(layer, h, tape)[0]
            return (h,)

        (temporal,) = _blockwise(conv_stack, x, blocks)
        return self._head(temporal, tape, blocks)

    def _head(self, temporal: np.ndarray, tape: list | None, blocks: list[slice]) -> ModelTrace:
        """The walk after the conv stack: ``expand``, attention over ``blocks``, the regressor."""
        n, shape = len(temporal), (len(temporal), self.config.window, self.config.n_features)
        h = _run(self.expand, _reshape(temporal, (n, -1), tape), tape)[0]
        abstract = _reshape(_run(self.expand_act, h, tape)[0], shape, tape)

        def attention(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            pooled, cache = _run(self.attention, h, tape)
            return pooled, cache[-1]

        h, weights = _blockwise(attention, abstract, blocks)
        for layer in self.regressor.children:
            h = _run(layer, h, tape)[0]
        return ModelTrace(
            temporal=temporal, abstract=abstract, attention=weights,
            prediction=_reshape(h, (n,), tape),
        )

    def _conv_rows(self, rows: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """The conv stack's output for the windows of ``rows`` at ``starts``, one stage row by row.

        At stage ``L`` a window's position ``k`` sits on row ``s + d * k`` of
        the stage's rows ``h`` (dilation ``d = 2 ** (L - 1)``), and only
        positions 0 and 1 of a conv read the window's zero pad. So one matmul
        over the patch rows ``[h[t - d], h[t]]`` serves every window, with two
        edge rows per window, ``[0, first]`` and ``[first, h[s + d]]``, where
        ``first`` is its position-0 value, stacked below them. The ops are the
        layers' own, in their operand order, over one matrix per stage padded
        to a multiple of ``ROW_TILE`` rows.
        """
        n_win = len(starts)
        h, first, d = rows, rows[starts], 1
        for conv in self.conv_stack.children[::3]:
            n, c_in = h.shape
            e = n + n_win  # the patch rows, then each window's two edge rows
            patches = np.zeros((_tiled(e + n_win), 2 * c_in))
            patches[d:n, :c_in] = h[: n - d]
            patches[:n, c_in:] = h
            patches[n:e, c_in:] = first
            patches[e : e + n_win, :c_in] = first
            patches[e : e + n_win, c_in:] = h[starts + d]
            # ReLU.forward's fmax, then MaxPool1d.forward's maximum(second, first)
            out = conv.affine(patches)
            np.fmax(out, 0.0, out=out)
            h = np.maximum(out[d:n], out[: n - d])
            first = np.maximum(out[e : e + n_win], out[n:e])
            d *= 2
        n_time = pooled_length(self.config.window, self.config.depth)
        temporal = np.empty((n_win, n_time, h.shape[1]))
        temporal[:, 0] = first
        temporal[:, 1:] = h[starts[:, None] + d * np.arange(1, n_time)]
        return temporal

    def trace_rows(self, rows: np.ndarray, starts: np.ndarray) -> ModelTrace:
        """``trace`` of the windows ``rows[s : s + window]`` for ``s`` in ``starts``.

        ``rows`` is an (N, n_features) row matrix, such as a ``WindowBank``'s,
        and ``starts`` a non-empty 1-D integer array. Each conv stage runs once
        over the rows from the lowest start to the end of the highest window
        (``_conv_rows``), so overlapping windows share it; from ``expand`` on
        this is ``trace``'s walk. The bytes are ``trace``'s of the stacked
        windows wherever that walk's conv matmuls round no row in a BLAS
        kernel's tail (see ``ROW_TILE``). Nothing is written to the model.
        """
        w, m = self.config.window, self.config.n_features
        starts = np.asarray(starts)
        if rows.ndim != 2 or rows.shape[1] != m:
            raise ValueError(f"expected rows (N, {m}), got {rows.shape}")
        if starts.ndim != 1 or starts.size == 0 or starts.dtype.kind not in "iu":
            raise ValueError(f"expected a non-empty 1-D integer array of starts, got {starts!r}")
        lo, hi = int(starts.min()), int(starts.max())
        if lo < 0 or hi + w > len(rows):
            raise ValueError(f"starts {lo}..{hi} leave a {w}-row window outside {len(rows)} rows")
        temporal = self._conv_rows(rows[lo : hi + w], starts - lo)
        return self._head(temporal, None, self._blocks(len(starts)))

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
