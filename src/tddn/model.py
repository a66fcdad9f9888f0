"""Degradation network: causal conv encoder, feature attention, regressor.

A (window, features) input passes through a stack of width-2 causal
convolutions with ReLU and 2/2 max pooling, is expanded back to a
(window, features) grid of abstract features by a dense layer, reduced
to a single feature row by attention against the first (healthiest) row,
and regressed to a scalar remaining-useful-life estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import (
    Conv1d,
    Flatten,
    Linear,
    MaxPool1d,
    Module,
    Param,
    ReLU,
    Reshape,
    Sequential,
    glorot_uniform,
    pack,
    softmax,
    softmax_backward,
)

CONV_CHANNEL_LADDER = (32, 64, 128, 256)


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

    ``attention_hidden`` defaults to the window length when omitted.
    """

    window: int = 64
    n_features: int = 15
    conv_channels: tuple[int, ...] = (32, 64, 128)
    kernel: int = 2
    attention_hidden: int | None = None
    regressor_hidden: int = 8

    def __post_init__(self) -> None:
        if self.window < 4:
            raise ValueError(f"window must be >= 4, got {self.window}")
        if self.n_features < 1:
            raise ValueError(f"n_features must be >= 1, got {self.n_features}")
        if not self.conv_channels or any(c < 1 for c in self.conv_channels):
            raise ValueError(f"bad conv channels {self.conv_channels}")
        if self.kernel < 1:
            raise ValueError(f"kernel must be >= 1, got {self.kernel}")
        if self.regressor_hidden < 1:
            raise ValueError(f"regressor_hidden must be >= 1, got {self.regressor_hidden}")
        if self.attention_hidden is None:
            object.__setattr__(self, "attention_hidden", self.window)
        if self.attention_hidden < 1:
            raise ValueError(f"attention_hidden must be >= 1, got {self.attention_hidden}")
        # raises when the window is too short for the conv/pool stack
        pooled_length(self.window, len(self.conv_channels))

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
    weights are the last item of the cache ``apply`` returns.
    """

    def __init__(self, n_features: int, hidden: int, rng: np.random.Generator):
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

    def apply(self, h: np.ndarray) -> tuple[np.ndarray, object]:
        m = h.shape[2]
        if m != self.n_features:
            raise ValueError(f"expected {self.n_features} features, got {m}")
        first = np.broadcast_to(h[:, :1, :], h.shape)
        augmented = np.concatenate([h, first, h - first, h * first], axis=2)
        # in place: these (B, w, hidden) arrays are the largest of a forward
        hidden = augmented @ self.weight.value
        hidden += self.bias.value
        np.tanh(hidden, out=hidden)
        scores = hidden @ self.context.value
        weights = softmax(scores, axis=1)
        pooled = np.einsum("bw,bwm->bm", weights, h)
        return pooled, (h, augmented, hidden, weights)

    def backward(self, gout: np.ndarray) -> np.ndarray:
        h, augmented, hidden, weights = self._take_cache()
        batch, n_rows, m = h.shape
        gweights = np.einsum("bm,bwm->bw", gout, h)
        gh = weights[:, :, None] * gout[:, None, :]
        gscores = softmax_backward(weights, gweights, axis=1)
        np.einsum("bwd,bw->d", hidden, gscores, out=self.context.grad)
        gpre = gscores[:, :, None] * self.context.value * (1.0 - hidden * hidden)
        flat_aug = augmented.reshape(batch * n_rows, 4 * m)
        flat_gpre = gpre.reshape(batch * n_rows, self.hidden)
        np.matmul(flat_aug.T, flat_gpre, out=self.weight.grad)
        np.sum(flat_gpre, axis=0, out=self.bias.grad)
        gaug = (flat_gpre @ self.weight.value.T).reshape(batch, n_rows, 4 * m)
        g_row, g_first, g_diff, g_prod = np.split(gaug, 4, axis=2)
        first = h[:, :1, :]
        gh += g_row + g_diff + g_prod * first
        # everything routed through the broadcast first row lands on row 0
        gh[:, 0, :] += (g_first - g_diff + g_prod * h).sum(axis=1)
        return gh


def _outputs(layers, x: np.ndarray) -> np.ndarray:
    """``x`` through each layer's ``apply`` in turn; every cache is dropped at once."""
    for layer in layers:
        x = layer.apply(x)[0]
    return x


class DegradationNetwork(Module):
    """Full network: windows (B, w, m) in, RUL estimates (B,) out.

    Every param is a view into ``value`` and ``grad``, two flat buffers in
    ``params()`` order that the network lays out when it is built (``pack``).
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        self.config = config
        w, m = config.window, config.n_features
        stages: list[Module] = []
        c_in = m
        for i, c_out in enumerate(config.conv_channels, start=1):
            stages.append(Conv1d(c_in, c_out, config.kernel, rng, name=f"conv{i}"))
            stages.append(ReLU())
            stages.append(MaxPool1d(pool=2))
            c_in = c_out
        self.conv_stack = Sequential(*stages)
        n_flat = pooled_length(w, config.depth) * config.conv_channels[-1]
        self.flatten = Flatten()
        self.expand = Linear(n_flat, w * m, rng, name="expand")
        self.expand_act = ReLU()
        self.reshape = Reshape(w, m)
        self.attention = FeatureAttention(m, config.attention_hidden, rng)
        self.regressor = Sequential(
            Linear(m, config.regressor_hidden, rng, name="regress1"),
            ReLU(),
            Linear(config.regressor_hidden, 1, rng, name="regress2"),
        )
        self.value, self.grad = pack(self.params())

    def params(self) -> list[Param]:
        return (
            self.conv_stack.params()
            + self.expand.params()
            + self.attention.params()
            + self.regressor.params()
        )

    def n_parameters(self) -> int:
        return self.value.size

    def _check_input(self, x: np.ndarray) -> None:
        if x.ndim != 3 or x.shape[1:] != (self.config.window, self.config.n_features):
            raise ValueError(
                f"expected input (B, {self.config.window}, {self.config.n_features}), "
                f"got {x.shape}"
            )

    def trace(self, x: np.ndarray) -> ModelTrace:
        """The inference walk: every layer's ``apply``, each cache dropped as it returns.

        Nothing is written to the model, so threads may share it, and a
        following ``backward`` raises as if no forward had run.
        """
        self._check_input(x)
        temporal = _outputs(self.conv_stack.children, x)
        abstract = _outputs((self.flatten, self.expand, self.expand_act, self.reshape), temporal)
        pooled, cache = self.attention.apply(abstract)
        weights = cache[-1]
        del cache
        prediction = _outputs(self.regressor.children, pooled)[:, 0]
        return ModelTrace(
            temporal=temporal, abstract=abstract, attention=weights, prediction=prediction
        )

    def predict(self, x: np.ndarray) -> np.ndarray:
        """The RUL estimates of ``forward``, bit for bit, by the inference walk."""
        return self.trace(x).prediction

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Predictions, with every layer's cache kept for ``backward``."""
        self._check_input(x)
        h = self.conv_stack.forward(x)
        h = self.expand_act.forward(self.expand.forward(self.flatten.forward(h)))
        return self.regressor.forward(self.attention.forward(self.reshape.forward(h)))[:, 0]

    def backward(self, gout: np.ndarray) -> np.ndarray:
        g = self.regressor.backward(gout[:, None])
        g = self.attention.backward(g)
        g = self.flatten.backward(self.expand.backward(self.expand_act.backward(self.reshape.backward(g))))
        return self.conv_stack.backward(g)
