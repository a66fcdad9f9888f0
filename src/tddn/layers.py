"""Minimal float64 layers with explicit forward and backward passes.

Layers are stateless. ``forward(x) -> (out, cache)`` writes nothing to
the layer, and ``backward(cache, gout) -> gin`` takes that cache back and
writes (does not accumulate) every parameter gradient into Param.grad, so
nothing needs zeroing between steps. Keeping the cache is the caller's
business (``DegradationNetwork`` keeps one tape), so one layer can serve
several threads. Batched inputs use the (batch, time, channels) layout.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .lanes import map_chunks


class Param:
    """A trainable array and its gradient, which each ``backward`` overwrites.

    ``pack``, which every ``DegradationNetwork`` runs when it is built,
    rebinds ``value`` and ``grad`` to views into two flat buffers. After
    that, update both in place (``p.value[...] = x``) and do not rebind
    them: ``training.Adam`` steps the buffers and raises on a rebound param.
    """

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    def __repr__(self) -> str:
        return f"Param({self.name!r}, shape={self.value.shape})"


def _require_params(params: Sequence[Param]) -> None:
    if not params:
        raise ValueError("empty param list: there are no buffers to pack")


def pack(params: Sequence[Param]) -> tuple[np.ndarray, np.ndarray]:
    """Lay ``params`` out, in order, in one flat value and one flat grad buffer.

    Each param's arrays are copied in, and ``value``/``grad`` are rebound to
    views into the returned buffers. A param listed twice, or none at all, is
    a ``ValueError``.
    """
    _require_params(params)
    for i, p in enumerate(params):
        if any(p is q for q in params[:i]):
            raise ValueError(f"param {p.name!r} is listed twice")
    value = np.concatenate([p.value.ravel() for p in params])
    grad = np.concatenate([p.grad.ravel() for p in params])
    offset = 0
    for p in params:
        end, shape = offset + p.value.size, p.value.shape
        p.value, p.grad = value[offset:end].reshape(shape), grad[offset:end].reshape(shape)
        offset = end
    return value, grad


def packed(params: Sequence[Param]) -> tuple[np.ndarray, np.ndarray]:
    """The flat value and grad buffers that ``pack`` laid ``params`` out in.

    A ``ValueError`` names the first param that is not viewed at its offset
    in them (never packed, listed out of order or twice, or rebound since),
    or the last one when the list leaves packed params out.
    """
    _require_params(params)
    value, grad = params[0].value.base, params[0].grad.base
    offset = 0
    for p in params:
        end = offset + p.value.size
        if value is grad or not all(
            isinstance(b, np.ndarray) and b.ndim == 1 and end <= b.size
            and a.__array_interface__ == b[offset:end].reshape(p.value.shape).__array_interface__
            for a, b in ((p.value, value), (p.grad, grad))
        ):
            raise ValueError(f"param {p.name!r} is not at offset {offset} of packed buffers")
        offset = end
    if offset != value.size:
        raise ValueError(f"param {params[-1].name!r} is not the last param packed with it")
    return value, grad


def glorot_uniform(
    rng: np.random.Generator, fan_in: int, fan_out: int, shape: tuple[int, ...]
) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Module:
    """Base for layers: ``forward`` returns the output and a cache, ``backward`` takes the cache."""

    def params(self) -> list[Param]:
        return []

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, object]:
        """The output for ``x`` and what ``backward`` needs of it; the layer is not written."""
        raise NotImplementedError

    def backward(self, cache: object, gout: np.ndarray) -> np.ndarray:
        """The input gradient for ``gout``; every parameter gradient is written."""
        raise NotImplementedError


class Sequential:
    """A run of layers, in the order the network walks them, and their params."""

    def __init__(self, *children: Module):
        self.children = list(children)

    def params(self) -> list[Param]:
        out: list[Param] = []
        for child in self.children:
            out.extend(child.params())
        return out


# multiply-adds of the weight gradient (batch * n_in * n_out) from which
# Linear.backward writes it on a second lane while the caller computes the
# input gradient. Timed alone on a 2-core host with one BLAS thread, two lanes
# won 11-15 of 15 rounds from 7.9M up (-11% to -44%), were mixed at 3.9M and
# lost below 2M, where starting the worker costs more than it saves. The
# window-16 model's expand at batch 32 (2.0M) stays serial; the default
# model's (31.5M) splits
LINEAR_TWO_LANE_MIN = 1 << 22


class Linear(Module):
    """Affine map (B, n_in) -> (B, n_out)."""

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator, name: str = "linear"):
        self.weight = Param(f"{name}.weight", glorot_uniform(rng, n_in, n_out, (n_in, n_out)))
        self.bias = Param(f"{name}.bias", np.zeros(n_out))

    def params(self) -> list[Param]:
        return [self.weight, self.bias]

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, object]:
        out = x @ self.weight.value
        out += self.bias.value
        return out, x

    def backward(self, x: np.ndarray, gout: np.ndarray) -> np.ndarray:
        def write_grads() -> None:
            # the worker's task makes NumPy calls only: wrappers that tracers put
            # on a layer's forward or backward assume a single thread
            np.matmul(x.T, gout, out=self.weight.grad)
            np.sum(gout, axis=0, out=self.bias.grad)

        tasks = (lambda: gout @ self.weight.value.T, write_grads)
        # size 2 is one chunk, which the caller runs; size 1 gives each task a lane
        size = 1 if x.shape[0] * self.weight.value.size >= LINEAR_TWO_LANE_MIN else 2
        return map_chunks(lambda s: [task() for task in tasks[s]], 2, size)[0][0]


class ReLU(Module):
    """Elementwise max(x, 0) with the subgradient 0 at x == 0.

    Non-finite values: NaN maps to 0 and -0.0 to 0.0 in forward. In
    backward, a masked-out position gives ``gout * 0``, so an infinite or
    NaN upstream gradient there comes out NaN instead of 0.
    """

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, object]:
        # fmax returns the non-NaN operand: bit for bit where(x > 0, x, 0.0)
        return np.fmax(x, 0.0), x > 0.0

    def backward(self, mask: np.ndarray, gout: np.ndarray) -> np.ndarray:
        return gout * mask


class Conv1d(Module):
    """Causal 1-D convolution over time, output length equal to input.

    Zeros are prepended on the past side, so tap k-1 of the kernel reads
    the current step and earlier taps reach back in time. Input
    (B, T, c_in) maps to (B, T, c_out); the kernel is applied as one
    matmul over unrolled patches.
    """

    def __init__(
        self,
        c_in: int,
        c_out: int,
        kernel: int,
        rng: np.random.Generator,
        name: str = "conv",
    ):
        if kernel < 1:
            raise ValueError(f"kernel width must be >= 1, got {kernel}")
        self.c_in = c_in
        self.c_out = c_out
        self.kernel = kernel
        self.weight = Param(
            f"{name}.weight",
            glorot_uniform(rng, kernel * c_in, kernel * c_out, (kernel, c_in, c_out)),
        )
        self.bias = Param(f"{name}.bias", np.zeros(c_out))

    def params(self) -> list[Param]:
        return [self.weight, self.bias]

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, object]:
        batch, n_time, c_in = x.shape
        if c_in != self.c_in:
            raise ValueError(f"expected {self.c_in} input channels, got {c_in}")
        k = self.kernel
        padded = np.concatenate([np.zeros((batch, k - 1, c_in)), x], axis=1)
        # patches[b, t, tap, c] = padded[b, t + tap, c]
        patches = np.stack([padded[:, tap : tap + n_time] for tap in range(k)], axis=2)
        patches = patches.reshape(batch, n_time, k * c_in)
        flat_w = self.weight.value.reshape(k * c_in, self.c_out)
        out = patches @ flat_w
        out += self.bias.value
        return out, patches

    def backward(self, patches: np.ndarray, gout: np.ndarray) -> np.ndarray:
        batch, n_time, _ = gout.shape
        k, c_in = self.kernel, self.c_in
        flat_patches = patches.reshape(batch * n_time, k * c_in)
        flat_g = gout.reshape(batch * n_time, self.c_out)
        np.matmul(flat_patches.T, flat_g, out=self.weight.grad.reshape(k * c_in, self.c_out))
        np.sum(flat_g, axis=0, out=self.bias.grad)
        flat_w = self.weight.value.reshape(k * c_in, self.c_out)
        gpatches = (flat_g @ flat_w.T).reshape(batch, n_time, k, c_in)
        gpadded = np.zeros((batch, n_time + k - 1, c_in))
        for tap in range(k):
            gpadded[:, tap : tap + n_time] += gpatches[:, :, tap]
        return gpadded[:, k - 1 :]


class MaxPool1d(Module):
    """2/2 max pooling over time: each disjoint pair of steps gives its larger
    value. An odd last step is dropped, and a tie goes to the earlier step.

    Non-finite values: a pair holding a NaN gives NaN (which NaN, when it
    holds two with different bits, is not fixed), and +-inf pools like any
    other value. The gradient goes to the later step only when it is
    strictly greater, so a pair holding a NaN routes it to the earlier one.
    In backward, the step that lost its pair gets ``gout * 0``, so an
    infinite or NaN upstream gradient there comes out NaN instead of 0.
    """

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, object]:
        batch, n_time, channels = x.shape
        if n_time < 2:
            raise ValueError(f"time axis {n_time} shorter than pool window 2")
        pairs = x[:, : n_time // 2 * 2].reshape(batch, n_time // 2, 2, channels)
        first, second = pairs[:, :, 0], pairs[:, :, 1]
        # maximum returns its second operand on a +-0 tie: the earlier step
        return np.maximum(second, first), (second > first, x.shape)

    def backward(self, cache: tuple[np.ndarray, tuple[int, ...]], gout: np.ndarray) -> np.ndarray:
        second_wins, in_shape = cache
        batch, n_out, channels = gout.shape
        gin = np.zeros(in_shape)
        # splitting the time axis keeps the reshape a view into gin
        pairs = gin[:, : 2 * n_out].reshape(batch, n_out, 2, channels)
        np.multiply(gout, ~second_wins, out=pairs[:, :, 0])
        np.multiply(gout, second_wins, out=pairs[:, :, 1])
        return gin


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable softmax; the max is subtracted before exponentiation."""
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_backward(y: np.ndarray, gout: np.ndarray, axis: int = -1) -> np.ndarray:
    """Pull a gradient back through y = softmax(x)."""
    dot = (gout * y).sum(axis=axis, keepdims=True)
    return y * (gout - dot)


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error and its gradient with respect to pred."""
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape}, target {target.shape}")
    if pred.size == 0:
        raise ValueError("mse_loss of an empty batch is undefined")
    diff = pred - target
    loss = float(np.mean(diff * diff))
    return loss, (2.0 / diff.size) * diff
