"""Finite-difference gradient checks shared by the gradient tests."""

from __future__ import annotations

from typing import Callable

import numpy as np

Array = np.ndarray


def finite_diff_grad(
    loss_fn: Callable[[], float],
    params: list[Array],
    step: float = 1e-5,
) -> list[Array]:
    """Central-difference gradient of ``loss_fn`` w.r.t. every array entry.

    ``loss_fn`` takes no arguments and must be deterministic; it is re-evaluated
    with each parameter entry perturbed in place and restored afterwards.
    """
    grads = []
    for p in params:
        flat = p.reshape(-1)
        g = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = loss_fn()
            flat[i] = orig - step
            down = loss_fn()
            flat[i] = orig
            g[i] = (up - down) / (2.0 * step)
        grads.append(g.reshape(p.shape))
    return grads


def max_relative_error(analytic: list[Array], numeric: list[Array], floor: float = 1e-4) -> float:
    """max |a-n| / max(|a|, |n|, floor) over all entries of all arrays.

    The floor turns the comparison absolute for near-zero components, where
    finite-difference noise would otherwise dominate the quotient.
    """
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst
