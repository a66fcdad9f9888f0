"""Central finite-difference gradient oracle.

The probe loss is a fixed random projection of the output, so scalar
gradients exist for arbitrary output shapes. Relative error uses
|analytic - numeric| / max(1, |analytic|), which turns into absolute
error for small gradients.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

EPS = 1e-6
TOL = 1e-4


def numeric_gradient(f: Callable[[], float], x: np.ndarray, eps: float = EPS) -> np.ndarray:
    """d f / d x by central differences, perturbing x in place."""
    grad = np.zeros_like(x)
    flat_x = x.ravel()
    flat_g = grad.ravel()
    for i in range(flat_x.size):
        original = flat_x[i]
        flat_x[i] = original + eps
        f_plus = f()
        flat_x[i] = original - eps
        f_minus = f()
        flat_x[i] = original
        flat_g[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    err = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
    return float(err.max()) if err.size else 0.0


def forward_backward(module, x: np.ndarray) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """The output for ``x`` and the ``backward(gout)`` that goes with it.

    A layer's ``forward`` returns ``(out, cache)`` and its ``backward``
    takes the cache back; the network keeps its tape itself.
    """
    out = module.forward(x)
    if isinstance(out, tuple):
        out, cache = out
        return out, lambda gout: module.backward(cache, gout)
    return out, module.backward


def check_module_gradients(module, x: np.ndarray, rng: np.random.Generator) -> float:
    """Gradcheck one layer or the network: input gradient and every parameter gradient.

    Returns the worst relative error seen. The module is forwarded once
    per perturbation.
    """

    out, backward = forward_backward(module, x)
    probe = rng.normal(size=out.shape)
    gin = backward(probe)

    def loss() -> float:
        return float(np.sum(forward_backward(module, x)[0] * probe))

    worst = max_rel_error(gin, numeric_gradient(loss, x))
    for p in module.params():
        worst = max(worst, max_rel_error(p.grad, numeric_gradient(loss, p.value)))
    return worst
