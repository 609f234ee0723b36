"""Adam as one loop over the parameter arrays, allocating per array: the
reference that the blocked ``numkit.adam_step`` must match bit for bit."""

from __future__ import annotations

import numpy as np

Array = np.ndarray


def reference_adam_step(
    params: list[Array],
    grads: list[Array],
    m: list[Array],
    v: list[Array],
    t: int,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """Bias-corrected Adam update number ``t``, in place on ``params`` and on
    the per-array moments ``m`` and ``v``."""
    b1, b2 = beta1, beta2
    for p, g, mi, vi in zip(params, grads, m, v):
        mi *= b1
        mi += (1.0 - b1) * g
        vi *= b2
        vi += (1.0 - b2) * (g * g)
        m_hat = mi / (1.0 - b1**t)
        v_hat = vi / (1.0 - b2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)
