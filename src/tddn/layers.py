"""Minimal float64 layers with explicit forward and backward passes.

Layers are stateless. ``forward(x) -> (out, cache)`` writes nothing to
the layer, and ``backward(cache, gout) -> gin`` takes that cache back and
writes (does not accumulate) every parameter gradient into Param.grad, so
nothing needs zeroing between steps. Keeping the cache is the caller's
business (``DegradationNetwork`` keeps one tape), so one layer can serve
several threads. Batched inputs use the (batch, time, channels) layout.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .lanes import map_chunks


class Param:
    """A trainable array and its gradient, which each ``backward`` overwrites.

    The gradient starts as ``np.zeros``, whose pages the OS maps only when
    written. ``pack``, which every ``DegradationNetwork`` runs when it is
    built, rebinds ``value`` and ``grad`` to views into two flat buffers,
    carries only the value over, and records ``layout``: those buffers and
    the param's offset in them. From then on, update both in place
    (``p.value[...] = x``, ``p.value -= x``): rebinding either to another
    array is a ``ValueError`` naming the param and the attribute.
    """

    __slots__ = ("name", "layout", "value", "grad")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.layout: tuple[np.ndarray, np.ndarray, int] | None = None
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros(self.value.shape)

    def __setattr__(self, attr: str, new: object) -> None:
        # an augmented assignment sets back the array it updated in place
        if attr in ("value", "grad") and self.layout is not None:
            old = getattr(self, attr)
            if new is not old:
                raise ValueError(
                    f"param {self.name!r}: .{attr} (shape {old.shape}) views a packed "
                    f"buffer; update it in place instead of rebinding it (to shape "
                    f"{np.shape(new)})"
                )
        object.__setattr__(self, attr, new)

    def __repr__(self) -> str:
        return f"Param({self.name!r}, shape={self.value.shape})"


def pack(params: Sequence[Param]) -> tuple[np.ndarray, np.ndarray]:
    """Lay ``params`` out, in order, in one flat value and one flat grad buffer.

    Both buffers are ``np.zeros``, each param's value is copied in,
    ``value``/``grad`` are rebound to views into them, and each param's
    ``layout`` records the two buffers and its offset. A gradient is not
    carried over: the grad buffer reads zero, and the OS maps its pages
    only when a ``backward`` first writes them, so a model that only
    predicts never does. A param packed before or listed twice, or no param
    at all, is a ``ValueError`` raised before any param is rebound.
    """
    if not params:
        raise ValueError("empty param list: there are no buffers to pack")
    for i, p in enumerate(params):
        if p.layout is not None:
            raise ValueError(f"param {p.name!r} is already packed")
        if any(p is q for q in params[:i]):
            raise ValueError(f"param {p.name!r} is listed twice")
    size = sum(p.value.size for p in params)
    value, grad = np.zeros(size), np.zeros(size)
    offset = 0
    for p in params:
        end, shape = offset + p.value.size, p.value.shape
        view = value[offset:end].reshape(shape)
        view[...] = p.value
        p.value, p.grad = view, grad[offset:end].reshape(shape)
        p.layout = (value, grad, offset)
        offset = end
    return value, grad


def glorot_uniform(
    rng: np.random.Generator | None, fan_in: int, fan_out: int, shape: tuple[int, ...]
) -> np.ndarray:
    """Uniform in +-sqrt(6 / (fan_in + fan_out)); zeros, with no draw, when ``rng`` is None."""
    if rng is None:
        return np.zeros(shape)
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


# multiply-adds of a layer's weight gradient (rows * weight size) from which
# its backward writes the weight and bias gradients on a second lane while the
# caller computes the input gradient (``split_backward``). Timed alone on a
# 2-core host with one BLAS thread, on a worker already running, a split won
# 7-9 of 9 rounds from about 1M up for the convs and the 1024-wide Linear
# (-13% to -44%) and from 2M for the window-64 attention (-13% to -43%), was
# mixed for the 256-wide Linear up to 3.9M, and lost for the window-16
# attention up to 1M. The rule stays above the window-16 model's largest
# layer, its expand (2.0M at batch 32, 3.9M at 64), so its backward runs on
# one thread and never starts a lane worker. At batch 32 the default
# model splits conv2 (4.2M), conv3 (8.4M), expand (31.5M) and the attention
# (7.9M), and not conv1 (2.0M)
BACKWARD_TWO_LANE_MIN = 1 << 22


def split_backward(
    rows: int,
    weight: Param,
    write_grads: Callable[[], None],
    input_grad: Callable[[], np.ndarray],
) -> np.ndarray:
    """``write_grads()``, then the input gradient ``input_grad()`` returns.

    From ``BACKWARD_TWO_LANE_MIN`` multiply-adds of the weight gradient
    (``rows * weight.value.size``) up, both go to ``map_chunks`` as one task
    per lane: the caller computes the input gradient while its lane worker
    writes the parameter gradients, so every split in a backward, and in
    every later one on that thread, uses one worker. Below that, they run
    on the caller with no ``map_chunks`` call. ``write_grads`` makes NumPy calls only, never a
    layer method: wrappers that tracers put on a layer's forward or backward
    assume a single thread. The two tasks write different arrays, and each
    makes the NumPy calls of the serial path, so the bits do not change.
    """
    if rows * weight.value.size < BACKWARD_TWO_LANE_MIN:
        write_grads()
        return input_grad()
    tasks = (input_grad, write_grads)
    return map_chunks(lambda s: tasks[s.start](), 2, 1)[0]


class Linear(Module):
    """Affine map (B, n_in) -> (B, n_out)."""

    def __init__(
        self, n_in: int, n_out: int, rng: np.random.Generator | None, name: str = "linear"
    ):
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
            np.matmul(x.T, gout, out=self.weight.grad)
            np.sum(gout, axis=0, out=self.bias.grad)

        return split_backward(
            x.shape[0], self.weight, write_grads, lambda: gout @ self.weight.value.T
        )


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
    """Causal width-2 convolution over time, output length equal to input.

    Step t reads steps t-1 and t, with zeros before the first step:
    ``weight[0]`` applies to the previous step and ``weight[1]`` to the
    current one. Input (B, T, c_in) maps to (B, T, c_out) by one matmul
    over the (B, T, 2 * c_in) patches, each the previous step beside the
    current one.
    """

    def __init__(
        self, c_in: int, c_out: int, rng: np.random.Generator | None, name: str = "conv"
    ):
        self.c_in = c_in
        self.c_out = c_out
        self.weight = Param(
            f"{name}.weight", glorot_uniform(rng, 2 * c_in, 2 * c_out, (2, c_in, c_out))
        )
        self.bias = Param(f"{name}.bias", np.zeros(c_out))

    def params(self) -> list[Param]:
        return [self.weight, self.bias]

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, object]:
        batch, n_time, c_in = x.shape
        if c_in != self.c_in:
            raise ValueError(f"expected {self.c_in} input channels, got {c_in}")
        patches = np.empty((batch, n_time, 2 * c_in))
        patches[:, 0, :c_in] = 0.0
        patches[:, 1:, :c_in] = x[:, :-1]
        patches[:, :, c_in:] = x
        return self.affine(patches), patches

    def affine(self, patches: np.ndarray) -> np.ndarray:
        """``forward``'s one matmul and bias add, over (..., 2 * c_in) patches a caller built."""
        out = patches @ self.weight.value.reshape(2 * self.c_in, self.c_out)
        out += self.bias.value
        return out

    def backward(self, patches: np.ndarray, gout: np.ndarray) -> np.ndarray:
        batch, n_time, _ = gout.shape
        c_in = self.c_in
        flat_g = gout.reshape(batch * n_time, self.c_out)

        def write_grads() -> None:
            flat_patches = patches.reshape(batch * n_time, 2 * c_in)
            np.matmul(flat_patches.T, flat_g, out=self.weight.grad.reshape(2 * c_in, self.c_out))
            np.sum(flat_g, axis=0, out=self.bias.grad)

        def input_grad() -> np.ndarray:
            flat_w = self.weight.value.reshape(2 * c_in, self.c_out)
            gpatches = (flat_g @ flat_w.T).reshape(batch, n_time, 2 * c_in)
            # added onto zeros, previous-step tap first, so -0.0 comes out as +0.0
            gin = np.zeros((batch, n_time, c_in))
            gin[:, :-1] += gpatches[:, 1:, :c_in]
            gin += gpatches[:, :, c_in:]
            return gin

        return split_backward(batch * n_time, self.weight, write_grads, input_grad)


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


def softmax(x: np.ndarray) -> np.ndarray:
    """Stable softmax over the last axis; the max is subtracted before exponentiation."""
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_backward(y: np.ndarray, gout: np.ndarray) -> np.ndarray:
    """Pull a gradient back through y = softmax(x), taken over the last axis."""
    dot = (gout * y).sum(axis=-1, keepdims=True)
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
