"""Dense neural-net kernel: linear layers and two-layer perceptrons with
manual backward passes, and Adam.

All arrays are float64. Forward functions accept a single vector ``(n_in,)``
or a batch ``(N, n_in)`` and return matching shapes. Backward passes consume
the cache produced by the matching forward call; a cache must not be reused
after the parameters it was computed with have been mutated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

Array = np.ndarray


class ShapeError(ValueError):
    """Input dimensions incompatible with the layer parameters."""


class NonFiniteGradient(FloatingPointError):
    """A gradient contained NaN or infinity; the run cannot continue."""


# ---------------------------------------------------------------------------
# Seeding
# ---------------------------------------------------------------------------

# One master seed feeds every module through fixed spawn keys, so streams are
# independent of each other but reproducible run to run.
_STREAM_IDS = {
    "synth": 0,
    "init": 1,
    "stage1": 2,
    "stage2": 3,
    "gamma": 5,
}


def rng_stream(seed: int, label: str) -> np.random.Generator:
    """Derive the named substream of the master seed."""
    try:
        key = _STREAM_IDS[label]
    except KeyError:
        raise ValueError(f"unknown rng stream label {label!r}") from None
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))


# ---------------------------------------------------------------------------
# Scalar numerics
# ---------------------------------------------------------------------------


def sigmoid(x: Array | float) -> Array | float:
    """Numerically stable logistic function."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out if out.ndim else float(out)


def log_sigmoid(x: Array | float) -> Array | float:
    """log(sigmoid(x)) without overflow for large negative x."""
    x = np.asarray(x, dtype=np.float64)
    out = -np.logaddexp(0.0, -x)
    return out if out.ndim else float(out)


def normalize_rows(w: Array) -> tuple[Array, Array]:
    """Rows scaled to unit L2 norm; returns (normalized, original norms).

    A row of exact zeros cannot be normalized and raises.
    """
    norms = np.linalg.norm(w, axis=-1, keepdims=True)
    if np.any(norms == 0.0):
        raise FloatingPointError("cannot normalize a zero-norm row")
    return w / norms, norms


# ---------------------------------------------------------------------------
# Linear layer
# ---------------------------------------------------------------------------


@dataclass
class Linear:
    """Affine map y = x @ w.T + b. Weight is (n_out, n_in); bias optional."""

    w: Array
    b: Array | None = None

    @property
    def n_in(self) -> int:
        return self.w.shape[1]

    @property
    def n_out(self) -> int:
        return self.w.shape[0]


def glorot_uniform(rng: np.random.Generator, n_out: int, n_in: int) -> Array:
    limit = np.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-limit, limit, size=(n_out, n_in))


def linear_init(rng: np.random.Generator, n_in: int, n_out: int) -> Linear:
    """Glorot-uniform weights, zero bias."""
    return Linear(glorot_uniform(rng, n_out, n_in), np.zeros(n_out))


def linear_forward(lin: Linear, x: Array) -> tuple[Array, tuple]:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != lin.n_in:
        raise ShapeError(f"input dim {x.shape[-1]} != layer dim {lin.n_in}")
    y = x @ lin.w.T
    if lin.b is not None:
        y = y + lin.b
    return y, (x,)


def linear_backward(lin: Linear, cache: tuple, grad_out: Array) -> tuple[Linear, Array]:
    """Gradients of the forward map: returns (parameter grads, input grad)."""
    (x,) = cache
    g2 = np.atleast_2d(grad_out)
    x2 = np.atleast_2d(x)
    gw = g2.T @ x2
    gb = None if lin.b is None else g2.sum(axis=0)
    gx = grad_out @ lin.w
    return Linear(gw, gb), gx


# ---------------------------------------------------------------------------
# Two-layer perceptron
# ---------------------------------------------------------------------------


@dataclass
class Mlp:
    """Two affine layers with ReLU between them.

    Inverted dropout is applied to the hidden activation during training:
    kept units are scaled by 1/(1-rate) so eval mode needs no rescaling.
    """

    first: Linear
    second: Linear
    dropout: float = 0.0

    @property
    def n_in(self) -> int:
        return self.first.n_in

    @property
    def n_out(self) -> int:
        return self.second.n_out


def mlp_init(
    rng: np.random.Generator,
    n_in: int,
    n_hidden: int,
    n_out: int,
    dropout: float = 0.0,
) -> Mlp:
    if not 0.0 <= dropout < 1.0:
        raise ValueError(f"dropout rate {dropout} outside [0, 1)")
    return Mlp(linear_init(rng, n_in, n_hidden), linear_init(rng, n_hidden, n_out), dropout)


def mlp_forward(
    mlp: Mlp,
    x: Array,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[Array, tuple]:
    """y = second(dropout(relu(first(x)))). Dropout only when training."""
    z1, c1 = linear_forward(mlp.first, x)
    h = np.maximum(z1, 0.0)
    if training and mlp.dropout > 0.0:
        if rng is None:
            raise ValueError("training with dropout requires an rng")
        keep = 1.0 - mlp.dropout
        mask = (rng.random(h.shape) < keep) / keep
        hd = h * mask
    else:
        mask = None
        hd = h
    y, c2 = linear_forward(mlp.second, hd)
    return y, (c1, z1, mask, c2)


def mlp_backward(mlp: Mlp, cache: tuple, grad_out: Array) -> tuple[Mlp, Array]:
    c1, z1, mask, c2 = cache
    g2, ghd = linear_backward(mlp.second, c2, grad_out)
    gh = ghd if mask is None else ghd * mask
    gz1 = gh * (z1 > 0.0)
    g1, gx = linear_backward(mlp.first, c1, gz1)
    return Mlp(g1, g2, mlp.dropout), gx


def layer_params(prefix: str, obj: Linear | Mlp) -> Iterator[tuple[str, Array]]:
    """Named parameter arrays of a layer in fixed traversal order."""
    if isinstance(obj, Linear):
        yield f"{prefix}.w", obj.w
        if obj.b is not None:
            yield f"{prefix}.b", obj.b
    elif isinstance(obj, Mlp):
        yield from layer_params(f"{prefix}.first", obj.first)
        yield from layer_params(f"{prefix}.second", obj.second)
    else:  # pragma: no cover - defensive
        raise TypeError(f"not a layer: {type(obj)!r}")


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    """Per-parameter moment accumulators for one fixed list of parameters."""

    lr: float
    beta1: float
    beta2: float
    eps: float
    step: int = 0
    m: list[Array] = field(default_factory=list)
    v: list[Array] = field(default_factory=list)


def adam_init(
    params: list[Array],
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> AdamState:
    state = AdamState(lr=lr, beta1=beta1, beta2=beta2, eps=eps)
    state.m = [np.zeros_like(p) for p in params]
    state.v = [np.zeros_like(p) for p in params]
    return state


def adam_step(state: AdamState, params: list[Array], grads: list[Array]) -> None:
    """One bias-corrected Adam update, in place on ``params``."""
    if len(params) != len(state.m) or len(grads) != len(state.m):
        raise ShapeError("parameter/gradient list length does not match Adam state")
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if g.shape != p.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient(f"non-finite gradient entries: {np.argwhere(~np.isfinite(g))[:4]}")
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        p -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
