"""Dense neural-net kernel: linear layers and two-layer perceptrons with
manual backward passes, and Adam.

All arrays are float64. Forward functions accept a single vector ``(n_in,)``
or a batch ``(N, n_in)`` and return matching shapes; they add biases and
apply ReLU in place on arrays they allocated, so an MLP's cache holds its
post-ReLU activation and no pre-activation. Backward passes consume the
cache produced by the matching forward call; a cache must not be reused
after the parameters it was computed with have been mutated. A caller that
has no use for the gradient wrt a layer's input asks for the parameter
gradients alone (``linear_param_grads``, ``mlp_backward(need_input=False)``)
and that product is never computed.

Adam keeps its moments as flat arrays in parameter order and updates them
in fixed-size blocks with in-place ufuncs, so a step allocates nothing the
size of a parameter. It checks every gradient's shape and finiteness before
it changes anything: a rejected step leaves parameters, moments and the
step count as they were.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """Rows scaled to unit L2 norm; returns (normalized, original norms). A row
    of zero or non-finite norm raises, with no numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(w, axis=-1, keepdims=True)
    if not np.all(np.isfinite(norms) & (norms != 0.0)):
        raise FloatingPointError("cannot normalize a row of zero or non-finite norm")
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
    y = x @ lin.w.T  # always a fresh array
    if lin.b is not None:
        y += lin.b
    return y, (x,)


def linear_param_grads(lin: Linear, cache: tuple, grad_out: Array) -> Linear:
    """Parameter gradients of the forward map, without the input gradient."""
    (x,) = cache
    g2 = np.atleast_2d(grad_out)
    x2 = np.atleast_2d(x)
    gw = g2.T @ x2
    gb = None if lin.b is None else g2.sum(axis=0)
    return Linear(gw, gb)


def linear_backward(lin: Linear, cache: tuple, grad_out: Array) -> tuple[Linear, Array]:
    """Gradients of the forward map: returns (parameter grads, input grad)."""
    return linear_param_grads(lin, cache, grad_out), grad_out @ lin.w


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
    """y = second(dropout(relu(first(x)))), dropout only when training. ReLU runs
    in place: the cache is (first cache, post-ReLU h, dropout mask or None, second cache)."""
    h, c1 = linear_forward(mlp.first, x)
    np.maximum(h, 0.0, out=h)
    if training and mlp.dropout > 0.0:
        if rng is None:
            raise ValueError("training with dropout requires an rng")
        keep = 1.0 - mlp.dropout
        mask = (rng.random(h.shape) < keep) / keep
        hd = h * mask
    else:
        mask, hd = None, h
    y, c2 = linear_forward(mlp.second, hd)
    return y, (c1, h, mask, c2)


def mlp_backward(mlp: Mlp, cache: tuple, grad_out: Array, need_input: bool = True) -> tuple[Mlp, Array | None]:
    """(parameter grads, input grad); the input grad is None, and not
    computed, unless ``need_input``."""
    c1, h, mask, c2 = cache
    g2, ghd = linear_backward(mlp.second, c2, grad_out)
    gh = ghd if mask is None else ghd * mask
    gz1 = gh * (h > 0.0)
    if need_input:
        g1, gx = linear_backward(mlp.first, c1, gz1)
    else:
        g1, gx = linear_param_grads(mlp.first, c1, gz1), None
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


# entries per in-place update block: the scratch size of one Adam state
ADAM_BLOCK = 16384


@dataclass
class AdamState:
    """Moment accumulators for one fixed list of parameters, flat in
    parameter order: parameter i owns ``offsets[i]:offsets[i + 1]``."""

    lr: float
    beta1: float
    beta2: float
    eps: float
    offsets: Array
    m: Array
    v: Array
    g: Array  # the step's gradients, then its updates
    scratch: tuple[Array, Array]
    step: int = 0


def adam_init(
    params: list[Array],
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> AdamState:
    offsets = np.cumsum([0, *(p.size for p in params)])
    total = int(offsets[-1])
    return AdamState(
        lr=lr, beta1=beta1, beta2=beta2, eps=eps, offsets=offsets,
        m=np.zeros(total), v=np.zeros(total), g=np.empty(total),
        scratch=(np.empty(ADAM_BLOCK), np.empty(ADAM_BLOCK)),
    )


def adam_step(state: AdamState, params: list[Array], grads: list[Array]) -> None:
    """One bias-corrected Adam update, in place on ``params``.

    Every gradient is checked before anything changes: each shape, then
    the finiteness of all entries at once in the flat gradient buffer. The
    update runs in blocks of ``ADAM_BLOCK`` entries over the flat moments,
    with the same float operations in the same order as the per-array form
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*(g*g)``,
    ``p -= lr*(m/c1) / (sqrt(v/c2) + eps)``.
    """
    sizes = np.diff(state.offsets)
    if len(params) != len(sizes) or len(grads) != len(sizes):
        raise ShapeError("parameter/gradient list length does not match Adam state")
    for p, g, size in zip(params, grads, sizes):
        if g.shape != p.shape or p.size != size:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape} (state holds {size})")
    if params:
        np.concatenate([g.reshape(-1) for g in grads], out=state.g)
    finite = np.isfinite(state.g)
    if not finite.all():
        flat = np.flatnonzero(~finite)[:4]
        which = np.searchsorted(state.offsets, flat, side="right") - 1
        entries = [(int(i), int(f - state.offsets[i])) for i, f in zip(which, flat)]
        raise NonFiniteGradient(f"non-finite gradient entries (parameter, flat index): {entries}")
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    c1, c2 = 1.0 - b1**t, 1.0 - b2**t
    for start in range(0, state.g.size, ADAM_BLOCK):
        block = slice(start, start + ADAM_BLOCK)
        m, v, g = state.m[block], state.v[block], state.g[block]
        s1, s2 = (a[: g.size] for a in state.scratch)
        m *= b1
        np.multiply(g, 1.0 - b1, out=s1)
        m += s1
        v *= b2
        np.multiply(g, g, out=s1)
        s1 *= 1.0 - b2
        v += s1
        np.divide(m, c1, out=s1)
        s1 *= state.lr
        np.divide(v, c2, out=s2)
        np.sqrt(s2, out=s2)
        s2 += state.eps
        np.divide(s1, s2, out=g)  # the block's update replaces its gradient
    for p, start, stop in zip(params, state.offsets[:-1], state.offsets[1:]):
        p -= state.g[start:stop].reshape(p.shape)
