import numpy as np
import pytest

from relembed.data import BoundingBox, Triplet, triplet_codes
from relembed.features import (
    LANGUAGE_MASKS,
    VisualInputParams,
    language_matrix,
    spatial_features,
    visual_backward,
    visual_forward,
    visual_init,
)
from relembed.numkit import Linear, Mlp, ShapeError, linear_forward, mlp_forward

from conftest import decode, encode
from gradcheck import finite_diff_grad, max_relative_error


def box(x0, y0, x1, y1):
    return BoundingBox(float(x0), float(y0), float(x1), float(y1))


def spatial_row(sub, obj):
    """``spatial_features`` of one box pair."""
    return spatial_features(np.array([sub.coords() + obj.coords()]))[0]


def spatial_features_per_pair(sub, obj):
    """Oracle: the per-pair geometry that ``spatial_features`` vectorizes."""
    ux = min(sub.x_min, obj.x_min)
    uy = min(sub.y_min, obj.y_min)
    area = (max(sub.x_max, obj.x_max) - ux) * (max(sub.y_max, obj.y_max) - uy)
    return np.array(
        [
            (sub.x_min - ux) / area,
            (sub.x_max - ux) / area,
            (sub.y_min - uy) / area,
            (sub.y_max - uy) / area,
            (obj.x_min - ux) / area,
            (obj.x_max - ux) / area,
            (obj.y_min - uy) / area,
            (obj.y_max - uy) / area,
        ]
    )


def test_spatial_features_are_bit_equal_to_the_per_pair_oracle(small_bench):
    _, (train, test, _, _) = small_bench
    for table in (train.pairs, test.pairs):
        boxes = [(BoundingBox(*xy[:4]), BoundingBox(*xy[4:])) for xy in table.coords.tolist()]
        want = np.stack([spatial_features_per_pair(s, o) for s, o in boxes])
        assert spatial_features(table.coords).tobytes() == want.tobytes()
    # ties and signed zeros in the union box keep the subject's value
    pairs = [(box(-0.0, 0, 1, 1), box(0, -0.0, 1, 2)), (box(0, -0.0, 2, 1), box(-0.0, 0, 2, 1))]
    coords = np.array([s.coords() + o.coords() for s, o in pairs])
    want = np.stack([spatial_features_per_pair(s, o) for s, o in pairs])
    assert spatial_features(coords).tobytes() == want.tobytes()


def test_spatial_unit_union_box():
    b = box(0, 0, 1, 1)
    assert np.array_equal(spatial_row(b, b), [0, 1, 0, 1, 0, 1, 0, 1])


def test_spatial_hand_computed_side_by_side_case():
    got = spatial_row(box(0, 0, 10, 10), box(10, 0, 20, 10))
    expect = [0, 0.05, 0, 0.05, 0.05, 0.1, 0, 0.05]
    assert np.allclose(got, expect, rtol=0, atol=1e-15)


def test_spatial_translation_invariance():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x0, y0 = rng.uniform(0, 50, size=2)
        sub = box(x0, y0, x0 + rng.uniform(1, 30), y0 + rng.uniform(1, 30))
        x1, y1 = rng.uniform(0, 50, size=2)
        obj = box(x1, y1, x1 + rng.uniform(1, 30), y1 + rng.uniform(1, 30))
        moved = spatial_row(
            box(sub.x_min + 7, sub.y_min + 3, sub.x_max + 7, sub.y_max + 3),
            box(obj.x_min + 7, obj.y_min + 3, obj.x_max + 7, obj.y_max + 3),
        )
        assert np.allclose(spatial_row(sub, obj), moved, rtol=0, atol=1e-12)


def test_spatial_swap_permutes_blocks():
    sub, obj = box(0, 0, 10, 10), box(5, 5, 30, 20)
    fwd = spatial_row(sub, obj)
    rev = spatial_row(obj, sub)
    assert np.array_equal(fwd[:4], rev[4:])
    assert np.array_equal(fwd[4:], rev[:4])


def identity_visual(d_a):
    # appearance passthrough, spatial branch forced to zero output
    spatial = Mlp(
        Linear(np.zeros((3, 8)), np.zeros(3)), Linear(np.zeros((2, 3)), np.zeros(2))
    )
    return VisualInputParams(
        Linear(np.eye(d_a), np.zeros(d_a)), Linear(np.eye(d_a), np.zeros(d_a)), spatial
    )


def test_visual_identity_params_concatenate_raw_appearance():
    vip = identity_visual(3)
    a_s = np.array([[1.0, 2.0, 3.0]])
    a_o = np.array([[4.0, 5.0, 6.0]])
    r = np.ones((1, 8))
    x, _ = visual_forward(vip, a_s, a_o, r)
    assert np.array_equal(x[0], [1, 2, 3, 4, 5, 6, 0, 0])
    assert vip.d_v == 8


def test_visual_matches_straight_line_evaluation():
    rng = np.random.default_rng(4)
    vip = visual_init(rng, 5, app_out=4, spatial_hidden=6, spatial_out=3)
    a_s, a_o, r = rng.normal(size=(1, 5)), rng.normal(size=(1, 5)), rng.normal(size=(1, 8))
    x, _ = visual_forward(vip, a_s, a_o, r)
    hand_s = vip.sub_proj.w @ a_s[0] + vip.sub_proj.b
    hand_o = vip.obj_proj.w @ a_o[0] + vip.obj_proj.b
    h = np.maximum(vip.spatial.first.w @ r[0] + vip.spatial.first.b, 0.0)
    hand_r = vip.spatial.second.w @ h + vip.spatial.second.b
    assert np.allclose(x[0], np.concatenate([hand_s, hand_o, hand_r]), rtol=0, atol=1e-12)


def test_visual_descriptor_is_bitwise_the_concatenation_of_its_parts():
    """The slices written in place hold the same bytes as concatenating the
    three parts' own forwards, for a batch and for one vector."""
    rng = np.random.default_rng(12)
    vip = visual_init(rng, 5, app_out=4, spatial_hidden=6, spatial_out=3)
    for rows in [(9,), ()]:
        a_s, a_o, r = rng.normal(size=rows + (5,)), rng.normal(size=rows + (5,)), rng.normal(size=rows + (8,))
        x, _ = visual_forward(vip, a_s, a_o, r)
        parts = [
            linear_forward(vip.sub_proj, a_s)[0],
            linear_forward(vip.obj_proj, a_o)[0],
            mlp_forward(vip.spatial, r)[0],
        ]
        want = np.concatenate(parts, axis=-1)
        assert x.shape == want.shape and x.dtype == want.dtype
        assert x.tobytes() == want.tobytes()


def test_visual_inputs_of_different_pair_counts_are_a_shape_error():
    """A geometry block with one row for three pairs must not broadcast into
    every row of the descriptor."""
    vip = visual_init(np.random.default_rng(2), 5, app_out=4, spatial_hidden=6, spatial_out=3)
    a = np.zeros((3, 5))
    with pytest.raises(ShapeError):
        visual_forward(vip, a, a, np.zeros((1, 8)))
    with pytest.raises(ShapeError):
        visual_forward(vip, a, np.zeros((2, 5)), np.zeros((3, 8)))


def test_visual_geometry_changes_only_spatial_slots():
    rng = np.random.default_rng(8)
    vip = visual_init(rng, 4, app_out=3, spatial_hidden=5, spatial_out=6)
    a_s, a_o = rng.normal(size=(1, 4)), rng.normal(size=(1, 4))
    x1, _ = visual_forward(vip, a_s, a_o, rng.normal(size=(1, 8)))
    x2, _ = visual_forward(vip, a_s, a_o, rng.normal(size=(1, 8)))
    assert np.array_equal(x1[0, :6], x2[0, :6])
    assert not np.array_equal(x1[0, 6:], x2[0, 6:])


def test_visual_backward_matches_finite_differences():
    rng = np.random.default_rng(13)
    vip = visual_init(rng, 3, app_out=2, spatial_hidden=4, spatial_out=2)
    a_s, a_o, r = rng.normal(size=(5, 3)), rng.normal(size=(5, 3)), rng.normal(size=(5, 8))
    names = [n for n, _ in vip.params()]
    arrays = [a for _, a in vip.params()]

    def loss():
        x, _ = visual_forward(vip, a_s, a_o, r)
        return float(np.sum(x**2))

    x, cache = visual_forward(vip, a_s, a_o, r)
    grads = visual_backward(vip, cache, 2.0 * x)
    numeric = finite_diff_grad(loss, arrays)
    assert max_relative_error([grads[n] for n in names], numeric) < 1e-5


def language_input(e_s, e_p, e_o, mask: str):
    """Oracle for one row of ``language_matrix``: [e_s; e_p; e_o] with masked
    slots zeroed."""
    ms, mp, mo = LANGUAGE_MASKS[mask]
    return np.concatenate([e_s * ms, e_p * mp, e_o * mo])


def test_language_input_full_and_masked():
    e_s, e_p, e_o = np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([5.0, 6.0])
    assert np.array_equal(language_input(e_s, e_p, e_o, "vp"), [1, 2, 3, 4, 5, 6])
    o_only = language_input(e_s, e_p, e_o, "o")
    assert np.all(o_only[:4] == 0.0)
    assert np.array_equal(o_only[4:], [5, 6])
    sp = language_input(e_s, e_p, e_o, "sp")
    assert np.array_equal(sp, [1, 2, 3, 4, 0, 0])


def test_language_every_mask_zeroes_exactly_its_slots():
    rng = np.random.default_rng(2)
    e = [rng.normal(size=3) for _ in range(3)]
    for mask, flags in LANGUAGE_MASKS.items():
        q = language_input(*e, mask)
        for slot, flag in enumerate(flags):
            block = q[slot * 3 : (slot + 1) * 3]
            if flag:
                assert np.array_equal(block, e[slot])
            else:
                assert np.all(block == 0.0)


def test_language_matrix_rows_match_single_inputs():
    rng = np.random.default_rng(6)
    e_sub, e_pre, e_obj = rng.normal(size=(3, 4)), rng.normal(size=(5, 4)), rng.normal(size=(2, 4))
    triplets = [Triplet(0, 4, 1), Triplet(2, 0, 0), Triplet(1, 1, 1)]
    for mask in LANGUAGE_MASKS:
        mat = language_matrix(encode((3, 5, 2), triplets), e_sub, e_pre, e_obj, mask)
        assert mat.shape == (3, 12)
        for i, t in enumerate(triplets):
            row = language_input(e_sub[t.s], e_pre[t.p], e_obj[t.o], mask)
            assert np.array_equal(mat[i], row)


def test_masked_triplet_keeps_its_slots_and_its_language_rows():
    rng = np.random.default_rng(8)
    e_sub, e_pre, e_obj = rng.normal(size=(3, 4)), rng.normal(size=(5, 4)), rng.normal(size=(2, 4))
    dims = (3, 5, 2)
    triplets = np.array([[2, 4, 1], [1, 3, 0]], dtype=np.int64)
    codes = triplet_codes(dims, triplets.T)
    for mask, flags in LANGUAGE_MASKS.items():
        masked = triplet_codes(dims, triplets.T, mask)
        for t, m in zip(triplets.tolist(), decode(dims, masked)):
            assert list(m) == [v if flag else 0 for v, flag in zip(t, flags)]
        want = language_matrix(codes, e_sub, e_pre, e_obj, mask)
        assert np.array_equal(language_matrix(masked, e_sub, e_pre, e_obj, mask), want)
        as_tuples = [Triplet(*t) for t in triplets.tolist()]
        assert np.array_equal(language_matrix(encode(dims, as_tuples), e_sub, e_pre, e_obj, mask), want)
    assert decode(dims, triplet_codes(dims, ([2], [4], [1]), "sp")) == [(2, 4, 0)]


def test_language_matrix_empty_list():
    e = np.zeros((2, 3))
    mat = language_matrix([], e, e, e, "vp")
    assert mat.shape == (0, 9)
