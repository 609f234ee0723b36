from dataclasses import fields

import numpy as np
import pytest

from relembed.config import RunConfig, validate
from relembed.data import PairTable, Triplet, synth_generate, triplet_codes


def desk_config(**overrides) -> RunConfig:
    """Small-but-real configuration for fast end-to-end tests."""
    base = dict(
        embed_dim=16,
        branch_hidden=16,
        app_out=12,
        spatial_hidden=12,
        spatial_out=8,
        synth_subjects=4,
        synth_predicates=5,
        synth_objects=6,
        synth_cluster_size=3,
        synth_families=5,
        synth_train_pairs=11,
        synth_test_pairs=2,
        synth_heldout=3,
        synth_heldout_test_pairs=21,
        synth_appearance_dim=12,
    )
    base.update(overrides)
    return validate(RunConfig(**base))


def wide_config(**overrides) -> RunConfig:
    """The synthetic world of the benchmark's ``wide`` workload: 8,928
    train and 3,904 test pairs, 40 appearance features."""
    base = dict(
        synth_subjects=12,
        synth_predicates=20,
        synth_objects=24,
        synth_families=48,
        synth_heldout=40,
        synth_appearance_dim=40,
    )
    base.update(overrides)
    return validate(RunConfig(**base))


def row_triplets(table: PairTable) -> list[list[Triplet]]:
    """Each row's positive triplets in file order, read entry by entry."""
    offsets, preds = table.pos_offsets.tolist(), table.pos_preds.tolist()
    return [
        [Triplet(s, p, o) for p in preds[offsets[i] : offsets[i + 1]]]
        for i, (s, o) in enumerate(zip(table.scat.tolist(), table.ocat.tolist()))
    ]


def encode(dims, triplets) -> np.ndarray:
    """The codes over ``dims`` of a list of (s, p, o) triplets."""
    return triplet_codes(dims, np.array(triplets, np.int64).reshape(-1, 3).T)


def code(model, t) -> int:
    """The code of one triplet over the model's vocabulary sizes."""
    return int(encode(model.dims, [t])[0])


def decode(dims, codes) -> list[Triplet]:
    """The triplets of an array of codes over ``dims``."""
    return [Triplet(*t) for t in np.column_stack(np.unravel_index(codes, dims)).tolist()]


def triplet_counts(dataset) -> dict[Triplet, int]:
    """Positives per triplet of a dataset, from the codes of its positive entries."""
    codes, n = np.unique(dataset.pairs.positives(dataset.dims)[1], return_counts=True)
    return dict(zip(decode(dataset.dims, codes), n.tolist()))


def model_counts(model) -> dict[Triplet, int]:
    """A model's observed triplets and their positive counts."""
    return dict(zip(decode(model.dims, model.observed), model.counts.tolist()))


def box_table(rows) -> PairTable:
    """A pair table of (image_id, sub box, obj box) rows: pair ids 0, 1, ...,
    one zero appearance feature, no labels."""
    a = np.zeros(1)
    rows = [(i, img, sub, obj, 0, 0, a, a, ()) for i, (img, sub, obj) in enumerate(rows)]
    return rows_table(rows, 1)


def rows_table(rows, appearance_dim: int) -> PairTable:
    """The table of (pair_id, image_id, sub_box, obj_box, scat, ocat, a_s, a_o,
    predicates) rows, boxes ``BoundingBox``es, each whole column stacked at once."""
    n = len(rows)
    ids, images, subs, objs, scat, ocat, a_s, a_o, preds = zip(*rows) if rows else [()] * 9
    return PairTable(
        *(np.array(column, dtype=np.int64) for column in (ids, images, scat, ocat)),
        *(np.array(a, dtype=np.float64).reshape(n, appearance_dim) for a in (a_s, a_o)),
        np.array([s.coords() + o.coords() for s, o in zip(subs, objs)], np.float64).reshape(n, 8),
        np.cumsum([0, *map(len, preds)], dtype=np.int64),
        np.array([p for ps in preds for p in ps], dtype=np.int64),
    )


def assert_tables_equal(a, b: PairTable):
    """Every column of ``a``, a pair table or a ranking, has the same dtype,
    shape and bytes in the pair table ``b``."""
    for f in fields(a):
        column_a, column_b = getattr(a, f.name), getattr(b, f.name)
        assert column_a.dtype == column_b.dtype and column_a.shape == column_b.shape, f.name
        assert column_a.tobytes() == column_b.tobytes(), f.name


@pytest.fixture(scope="session")
def small_bench():
    """Shared read-only synthetic benchmark (train, test, words, heldout)."""
    cfg = desk_config()
    return cfg, synth_generate(cfg, seed=0)
