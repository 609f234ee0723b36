"""Inputs consumed by the embedding branches.

Visual side: per candidate pair, a descriptor x = [P_s(a_s); P_o(a_o); M(r)]
where P_s, P_o are single linear projections of the two appearance vectors,
M is a two-layer net over the 8-dim box-geometry feature r, and a_s, a_o are
also kept raw for the subject/object appearance branches.

Language side: q_t = [e_s; e_p; e_o], the concatenated word vectors of the
triplet, with unused slots zeroed for unigram/bigram variants. Triplets
arrive as int64 codes (``data.triplet_codes``), decoded here where the word
tables are indexed. A masked label is the code of its triplet with 0 in
every masked slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LANGUAGE_MASKS, PairTable
from .numkit import (
    Array,
    Linear,
    Mlp,
    ShapeError,
    layer_params,
    linear_forward,
    linear_init,
    linear_param_grads,
    mlp_backward,
    mlp_forward,
    mlp_init,
)

# canonical branch order; also the parameter-block order in checkpoints
BRANCH_KINDS = tuple(LANGUAGE_MASKS)


# ---------------------------------------------------------------------------
# Spatial geometry
# ---------------------------------------------------------------------------


def spatial_features(coords: Array) -> Array:
    """Union-normalized box coordinates, one 8-vector per row of ``coords``
    (subject then object box, each (x_min, y_min, x_max, y_max)); each
    output row is subject then object (x_min, x_max, y_min, y_max).

    Coordinates are shifted to the union-box origin, then divided by the
    union area. Ties in the union keep the subject's value.
    """
    box = coords.reshape(-1, 2, 2, 2)  # row, subject/object, min/max corner, x/y
    sub, obj = box[:, 0], box[:, 1]
    origin = np.where(obj[:, 0] < sub[:, 0], obj[:, 0], sub[:, 0])
    size = np.where(obj[:, 1] > sub[:, 1], obj[:, 1], sub[:, 1]) - origin
    area = size[:, 0] * size[:, 1]
    out = (box - origin[:, None, None, :]) / area[:, None, None, None]
    return out.transpose(0, 1, 3, 2).reshape(-1, 8)


def pair_arrays(pairs: PairTable) -> tuple[Array, Array, Array]:
    """The appearance blocks and the geometry features of a pair table."""
    return pairs.a_s, pairs.a_o, spatial_features(pairs.coords)


# ---------------------------------------------------------------------------
# Visual descriptor
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class VisualInputParams:
    """Trainable front end producing the full pair descriptor."""

    sub_proj: Linear
    obj_proj: Linear
    spatial: Mlp

    @property
    def d_v(self) -> int:
        return self.sub_proj.n_out + self.obj_proj.n_out + self.spatial.n_out


def visual_init(
    rng: np.random.Generator, appearance_dim: int, app_out: int, spatial_hidden: int, spatial_out: int
) -> VisualInputParams:
    return VisualInputParams(
        linear_init(rng, appearance_dim, app_out),
        linear_init(rng, appearance_dim, app_out),
        mlp_init(rng, 8, spatial_hidden, spatial_out),
    )


def visual_forward(
    vip: VisualInputParams, a_s: Array, a_o: Array, r: Array
) -> tuple[Array, tuple]:
    """Descriptor x = [P_s(a_s); P_o(a_o); M(r)], each part written into x, M's in place."""
    if a_s.shape != a_o.shape or a_s.shape[:-1] != r.shape[:-1]:  # x's slices would broadcast
        raise ShapeError(f"pair input shapes differ: {a_s.shape}, {a_o.shape}, {r.shape}")
    n1, n2 = vip.sub_proj.n_out, vip.obj_proj.n_out
    x = np.empty(a_s.shape[:-1] + (vip.d_v,))
    x[..., :n1], c1 = linear_forward(vip.sub_proj, a_s)
    x[..., n1 : n1 + n2], c2 = linear_forward(vip.obj_proj, a_o)
    _, c3 = mlp_forward(vip.spatial, r, out=x[..., n1 + n2 :])
    return x, (c1, c2, c3)


def visual_backward(vip: VisualInputParams, cache: tuple, grad_x: Array) -> dict[str, Array]:
    """Parameter gradients of visual_forward, named as the registry names
    the front end. Its inputs are data, so no input gradient is computed."""
    c1, c2, c3 = cache
    n1, n2 = vip.sub_proj.n_out, vip.obj_proj.n_out
    gs, go, gr = np.split(grad_x, [n1, n1 + n2], axis=-1)
    g_sub = linear_param_grads(vip.sub_proj, c1, gs)
    g_obj = linear_param_grads(vip.obj_proj, c2, go)
    g_spa, _ = mlp_backward(vip.spatial, c3, gr, need_input=False)
    return dict(layer_params("visual", VisualInputParams(g_sub, g_obj, g_spa)))


# ---------------------------------------------------------------------------
# Language inputs
# ---------------------------------------------------------------------------


def language_matrix(codes, e_sub: Array, e_pre: Array, e_obj: Array, mask: str) -> Array:
    """Stacked language inputs for many triplets, one row per code; the
    codes are taken over the sizes of the three word tables."""
    ms, mp, mo = LANGUAGE_MASKS[mask]
    s, p, o = np.unravel_index(np.asarray(codes, np.int64), (len(e_sub), len(e_pre), len(e_obj)))
    return np.concatenate([e_sub[s] * ms, e_pre[p] * mp, e_obj[o] * mo], axis=1)
