"""The synthetic generator's emission one Python row at a time: each pair's
appearance and boxes drawn alone, its boxes built as ``BoundingBox``es, the
rows stacked into a table. The reference that the block emitter
``data._synth_pairs`` must match bit for bit, column by column."""

from __future__ import annotations

import numpy as np

from relembed.data import OFFSET_JITTER, PAIR_STYLE_SCALE, SIZE_JITTER, BoundingBox, PairTable, Triplet

from conftest import rows_table

Array = np.ndarray


def appearance(planted, t: Triplet | None, s: int, o: int, rng: np.random.Generator) -> tuple[Array, Array]:
    """Appearance features for one pair; t=None means non-interacting."""
    cfg = planted.cfg
    d_a = cfg.synth_appearance_dim
    a_s = planted.map_sub @ planted.sub_code(s, t.p if t else None)
    a_o = planted.map_obj @ planted.obj_code(o)
    if t is not None:
        a_o = a_o + planted.interaction[t.p, t.o]
        a_o = a_o + PAIR_STYLE_SCALE * planted.style_sign[t.p, t.o] * planted.style_dir
    a_s = a_s + cfg.synth_noise * rng.normal(size=d_a)
    a_o = a_o + cfg.synth_noise * rng.normal(size=d_a)
    return a_s, a_o


def boxes(planted, p: int | None, rng: np.random.Generator) -> tuple[BoundingBox, BoundingBox]:
    """Subject and object box of one pair; p=None means non-interacting."""
    cfg = planted.cfg
    cx, cy = 50.0 + cfg.synth_noise * 10.0 * rng.normal(size=2)
    half = max(2.0, 10.0 * (1.0 + cfg.synth_noise * 0.5 * rng.normal()))
    sub = BoundingBox(cx - half, cy - half, cx + half, cy + half)
    if p is not None:
        ox, oy = (cx, cy) + planted.pred_offset[p] + OFFSET_JITTER * rng.normal(size=2)
        w, h = planted.pred_obj_size[p] * (1.0 + SIZE_JITTER * rng.normal(size=2))
    else:
        ox, oy = (cx, cy) + rng.uniform(-60.0, 60.0, size=2)
        w, h = rng.uniform(8.0, 30.0, size=2)
    w, h = max(2.0, w), max(2.0, h)
    obj = BoundingBox(ox - w / 2.0, oy - h / 2.0, ox + w / 2.0, oy + h / 2.0)
    return sub, obj


def reference_pairs(planted, triplets: list[Triplet], n_pos: list[int], rng: np.random.Generator) -> PairTable:
    """``data._synth_pairs`` one row at a time: each triplet's positives,
    then its negatives; pair and image id = row."""
    cfg = planted.cfg

    def rows():
        for t, n in zip(triplets, n_pos):
            for preds in [(t.p,)] * n + [()] * round(cfg.synth_negative_ratio * n):
                a_s, a_o = appearance(planted, t if preds else None, t.s, t.o, rng)
                sub, obj = boxes(planted, t.p if preds else None, rng)
                yield sub, obj, t.s, t.o, a_s, a_o, preds

    return rows_table([(i, i, *row) for i, row in enumerate(rows())], cfg.synth_appearance_dim)
