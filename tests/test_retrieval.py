"""Tests for retrieval evaluation: IoU, ranking, greedy matching, AP, mAP,
and the results file round-trip."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relembed import retrieval
from relembed.analogy import gamma_init, source_pool, train_stage2, transfer_embedding
from relembed.data import (
    BoundingBox,
    DataError,
    Dataset,
    PairTable,
    Triplet,
    Vocabulary,
    WordTable,
)
from relembed.model import build_model, label_matrix, score_pairs, train_stage1
from relembed.numkit import rng_stream
from relembed.retrieval import (
    APResult,
    MatchPolicy,
    average_precision,
    evaluate_queries,
    ground_truth_for,
    ground_truth_index,
    iou,
    load_results,
    match_detections,
    mean_ap,
    rank_candidates,
    truth_rows,
    write_results,
)

from conftest import (
    assert_tables_equal,
    box_table,
    code,
    decode,
    desk_config,
    encode,
    row_triplets,
    triplet_counts,
)


def box(x0, y0, x1, y1):
    return BoundingBox(float(x0), float(y0), float(x1), float(y1))


def det(pair_id, score, sub, obj, image_id=0):
    """One ranked pair: (pair_id, image_id, score, sub box, obj box)."""
    return pair_id, image_id, score, sub, obj


def gt(sub, obj, image_id=0):
    """One ground-truth pair: (image_id, sub box, obj box)."""
    return image_id, sub, obj


def ranking(dets) -> tuple[PairTable, np.ndarray]:
    """The ranked table and scores of det() rows, in the given order."""
    table = box_table([(img, sub, obj) for _, img, _, sub, obj in dets])
    return table, np.array([score for _, _, score, _, _ in dets], dtype=np.float64)


def box_rows(table: PairTable) -> list[tuple[int, BoundingBox, BoundingBox]]:
    """(image_id, sub box, obj box) of every row, read one row at a time."""
    rows = zip(table.image_id.tolist(), table.coords.tolist())
    return [(img, BoundingBox(*xy[:4]), BoundingBox(*xy[4:])) for img, xy in rows]


def match(dets, gts, tau):
    return match_detections(ranking(dets)[0], box_table(gts), MatchPolicy(tau)).tolist()


def ap_of(dets, gts):
    return average_precision(Triplet(0, 0, 0), *ranking(dets), box_table(gts), MatchPolicy(0.5))


def iou_scalar(a: BoundingBox, b: BoundingBox) -> float:
    """Oracle: the IoU of two boxes, one float at a time."""
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    area_a = (a.x_max - a.x_min) * (a.y_max - a.y_min)
    area_b = (b.x_max - b.x_min) * (b.y_max - b.y_min)
    return inter / (area_a + area_b - inter)


def xy(b: BoundingBox) -> np.ndarray:
    return np.array(b.coords())


UNIT = box(0, 0, 10, 10)
FAR = box(500, 500, 510, 510)


# ---------------------------------------------------------------------------
# IoU
# ---------------------------------------------------------------------------


def test_iou_identical_boxes():
    assert iou(xy(UNIT), xy(UNIT)) == 1.0


def test_iou_disjoint_boxes():
    assert iou(xy(UNIT), xy(box(20, 20, 30, 30))) == 0.0
    assert iou(xy(UNIT), xy(box(10, 0, 20, 10))) == 0.0  # shared edge only


def test_iou_half_overlap_hand_value():
    # intersection 5 * 10 = 50, union 100 + 100 - 50 = 150
    a, b = xy(box(0, 0, 10, 10)), xy(box(5, 0, 15, 10))
    assert abs(iou(a, b) - 1.0 / 3.0) < 1e-12
    assert iou(a, b) == iou(b, a)


def test_iou_containment():
    inner = box(2, 2, 4, 4)  # area 4 inside area 100
    assert abs(iou(xy(UNIT), xy(inner)) - 0.04) < 1e-12


def test_iou_broadcasts_and_is_bit_equal_to_the_scalar_oracle():
    rng = np.random.default_rng(31)
    # a grid of small integer boxes gives shared edges, containment,
    # identical boxes and equal IoUs; real-valued boxes and signed zeros
    # give the rest
    boxes = [box(x, y, x + w, y + h) for x in range(3) for y in range(2) for w in (1, 2, 3) for h in (1, 2)]
    for _ in range(40):
        x0, y0 = rng.uniform(-5, 5, size=2)
        boxes.append(box(x0, y0, x0 + rng.uniform(0.5, 6), y0 + rng.uniform(0.5, 6)))
    boxes += [box(-0.0, -0.0, 1, 1), box(0, 0, 1, 1), box(-1, -1, -0.0, 0.0), box(-1, -1, 0.0, -0.0)]
    coords = np.array([b.coords() for b in boxes])
    got = iou(coords[:, None, :], coords[None, :, :])
    want = np.array([[iou_scalar(a, b) for b in boxes] for a in boxes])
    assert got.shape == (len(boxes), len(boxes))
    assert got.tobytes() == want.tobytes()
    assert (want == 0.0).any() and (want == 1.0).sum() > len(boxes)  # disjoint, and equal off the diagonal
    assert iou(coords[0], coords[1:]).tobytes() == want[0, 1:].tobytes()


# ---------------------------------------------------------------------------
# Policy and detection validation
# ---------------------------------------------------------------------------


def test_policy_threshold_range():
    MatchPolicy(0.3)
    MatchPolicy(1.0)
    with pytest.raises(DataError):
        MatchPolicy(0.0)
    with pytest.raises(DataError):
        MatchPolicy(1.5)


def test_detection_score_must_be_open_unit(monkeypatch):
    model, ds = _identical_pairs_world([0, 1, 2])
    rank_candidates(model, code(model, Triplet(0, 0, 0)), ds.pairs)
    for bad in (0.0, 1.0, -0.2, float("nan"), float("inf")):
        monkeypatch.setattr(retrieval, "score_pairs", lambda *a, **k: np.array([0.5, bad, 0.25]))
        with pytest.raises(DataError) as info:
            rank_candidates(model, code(model, Triplet(0, 0, 0)), ds.pairs)
        assert str(info.value) == f"detection score must be finite in (0, 1), got {bad}"


# ---------------------------------------------------------------------------
# Ranking
# ---------------------------------------------------------------------------


def _identical_pairs_world(order):
    subs, pres, objs = Vocabulary(["s0"]), Vocabulary(["p0"]), Vocabulary(["o0"])
    a = np.full(4, 0.3)
    pairs = PairTable.from_rows([(i, 0, UNIT, box(5, 0, 15, 10), 0, 0, a, a, (0,)) for i in order], 4)
    ds = Dataset(subs, pres, objs, pairs)
    rng = np.random.default_rng(11)
    table = WordTable(3, {t: rng.normal(size=3) for t in ("s0", "p0", "o0")})
    model = build_model(desk_config(), ds, table, seed=0)
    return model, ds


def test_rank_equal_scores_orders_by_pair_id():
    model, ds = _identical_pairs_world([3, 0, 2, 1])
    ranked, scores = rank_candidates(model, code(model, Triplet(0, 0, 0)), ds.pairs)
    assert len(set(scores.tolist())) == 1
    assert ranked.pair_id.tolist() == [0, 1, 2, 3]


def test_rank_single_pair_is_singleton():
    model, ds = _identical_pairs_world([7])
    ranked, scores = rank_candidates(model, code(model, Triplet(0, 0, 0)), ds.pairs)
    assert len(ranked) == len(scores) == 1 and ranked.pair_id.tolist() == [7]


def test_rank_matches_full_sort_oracle(small_bench):
    cfg, (train, test, table, heldout) = small_bench
    model = build_model(cfg, train, table, seed=0)
    pairs = train.pairs.take(range(20))
    query = model.observed[0]
    ranked, scores = rank_candidates(model, query, pairs)
    want = sorted(zip(pairs.pair_id.tolist(), score_pairs(model, query, pairs).tolist(), range(20)),
                  key=lambda ps: (-ps[1], ps[0]))
    assert ranked.pair_id.tolist() == [i for i, _, _ in want]
    assert scores.tolist() == [s for _, s, _ in want]
    assert all(a >= b for a, b in zip(scores, scores[1:]))
    assert_tables_equal(ranked, pairs.take([row for _, _, row in want]))


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------


def test_match_requires_both_boxes():
    g = [gt(UNIT, UNIT)]
    good = [det(0, 0.9, UNIT, UNIT)]
    half = [det(0, 0.9, UNIT, box(8, 8, 18, 18))]  # object overlap far below tau
    assert match(good, g, 0.5) == [True]
    assert match(half, g, 0.5) == [False]
    assert match(half, g, 0.02) == [True]


def test_match_is_one_to_one_greedy():
    g = [gt(UNIT, UNIT)]
    dets = [det(0, 0.9, UNIT, UNIT), det(1, 0.8, UNIT, UNIT)]
    assert match(dets, g, 0.5) == [True, False]


def test_match_prefers_larger_min_overlap():
    # ground truth A overlaps the first detection at 0.55, B at 0.85; the
    # second detection only reaches B (A sits on the far side, IoU 0.46).
    # Claiming by best overlap leaves the second with nothing; claiming by
    # ground-truth order would wrongly let both match.
    a = box(-2.9, 0, 7.1, 10)
    b = box(0.8, 0, 10.8, 10)
    g = [gt(a, a), gt(b, b)]
    dets = [det(0, 0.9, UNIT, UNIT), det(1, 0.8, b, b)]
    assert match(dets, g, 0.5) == [True, False]


def test_match_respects_image_boundaries():
    g = [gt(UNIT, UNIT, image_id=1)]
    dets = [det(0, 0.9, UNIT, UNIT, image_id=0)]
    assert match(dets, g, 0.5) == [False]


def test_match_tie_goes_to_earlier_ground_truth():
    g = [gt(UNIT, UNIT), gt(UNIT, UNIT)]  # identical candidates
    dets = [det(0, 0.9, UNIT, UNIT)]
    assert match(dets, g, 0.5) == [True]
    # the second detection must still find the (identical) leftover
    assert match([det(0, 0.9, UNIT, UNIT), det(1, 0.8, UNIT, UNIT)], g, 0.5) == [True, True]
    # the first detection overlaps both at 0.6 and takes the earlier one,
    # which leaves the second (0.6 with the first, 0.14 with the later) empty
    b = [box(x, 0, x + 4, 4) for x in range(4)]
    g = [gt(b[1], b[1]), gt(b[3], b[3])]
    assert match([det(0, 0.9, b[2], b[2]), det(1, 0.8, b[0], b[0])], g, 0.5) == [True, False]


def test_match_on_empty_tables():
    assert match([], [gt(UNIT, UNIT)], 0.5) == []
    assert match([det(0, 0.9, UNIT, UNIT)], [], 0.5) == [False]


def _brute_force_flags(ranked, gts, tau):
    """The matcher one pair at a time: every ranked pair scans all ground
    truth with the scalar IoU and skips other images' entries."""
    matched, flags = set(), []
    for img, sub, obj in box_rows(ranked):
        best, best_q = -1, 0.0
        for j, (g_img, g_sub, g_obj) in enumerate(box_rows(gts)):
            if j in matched or g_img != img:
                continue
            q = min(iou_scalar(sub, g_sub), iou_scalar(obj, g_obj))
            if q >= tau and q > best_q:
                best, best_q = j, q
        if best >= 0:
            matched.add(best)
        flags.append(best >= 0)
    return flags


# 4x4 boxes shifted along x: a box at shift x overlaps those at x - 1 and
# x + 1 equally (IoU 0.6), so one detection often ties between two
# different ground-truth pairs, and the tie rule decides later matches
_shifted_box = st.sampled_from([box(x, 0, x + 4, 4) for x in range(5)])
_image = st.integers(0, 1)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@example(  # a tie whose rule decides the next match (see the tie test)
    gts=[gt(box(1, 0, 5, 4), box(1, 0, 5, 4)), gt(box(3, 0, 7, 4), box(3, 0, 7, 4))],
    dets=[(box(2, 0, 6, 4), box(2, 0, 6, 4), 0), (box(0, 0, 4, 4), box(0, 0, 4, 4), 0)],
    tau=0.5,
)
@given(
    gts=st.lists(st.builds(gt, _shifted_box, _shifted_box, _image), max_size=8),
    dets=st.lists(st.tuples(_shifted_box, _shifted_box, _image), max_size=12),
    tau=st.sampled_from([0.1, 0.5, 1.0]),
)
def test_per_image_matcher_equals_brute_force(gts, dets, tau):
    ranked, _ = ranking([det(i, 0.5, s, o, img) for i, (s, o, img) in enumerate(dets)])
    want = _brute_force_flags(ranked, box_table(gts), tau)
    assert match_detections(ranked, box_table(gts), MatchPolicy(tau)).tolist() == want


# ---------------------------------------------------------------------------
# Average precision
# ---------------------------------------------------------------------------


def test_ap_perfect_prefix_is_one():
    g = [gt(UNIT, UNIT), gt(box(20, 0, 30, 10), UNIT), gt(box(40, 0, 50, 10), UNIT)]
    dets = [
        det(0, 0.9, UNIT, UNIT),
        det(1, 0.8, box(20, 0, 30, 10), UNIT),
        det(2, 0.7, box(40, 0, 50, 10), UNIT),
        det(3, 0.6, FAR, FAR),
        det(4, 0.5, FAR, FAR),
    ]
    r = ap_of(dets, g)
    assert r.ap == 1.0 and r.npos == 3 and r.ndet == 5


def test_ap_tp_fp_tp_hand_value():
    g = [gt(UNIT, UNIT), gt(box(20, 0, 30, 10), UNIT)]
    dets = [
        det(0, 0.9, UNIT, UNIT),
        det(1, 0.8, FAR, FAR),
        det(2, 0.7, box(20, 0, 30, 10), UNIT),
    ]
    r = ap_of(dets, g)
    assert abs(r.ap - (1.0 / 1.0 + 2.0 / 3.0) / 2.0) < 1e-15
    assert abs(r.ap - 0.8333333333333333) < 1e-12


def test_ap_no_matches_is_zero():
    g = [gt(UNIT, UNIT)]
    dets = [det(0, 0.9, FAR, FAR)]
    r = ap_of(dets, g)
    assert r.ap == 0.0 and not r.excluded


def test_ap_zero_positives_is_excluded():
    r = ap_of([det(0, 0.9, UNIT, UNIT)], [])
    assert r.excluded and r.ap == 0.0 and r.npos == 0 and r.ndet == 1


def test_ap_rejects_unsorted_detections():
    dets = [det(0, 0.5, UNIT, UNIT), det(1, 0.9, UNIT, UNIT)]
    with pytest.raises(DataError, match="sorted"):
        ap_of(dets, [gt(UNIT, UNIT)])


def test_ap_invariant_under_monotone_score_transform():
    rng, policy = np.random.default_rng(5), MatchPolicy(0.5)
    for _ in range(25):
        dets, g = _random_instance(rng)
        ranked, scores = ranking(dets)
        base = average_precision(Triplet(0, 0, 0), ranked, scores, box_table(g), policy)
        again = average_precision(Triplet(0, 0, 0), ranked, 0.25 + scores / 2.0, box_table(g), policy)
        assert again.ap == base.ap


def test_ap_unchanged_by_trailing_false_positives():
    rng = np.random.default_rng(6)
    for _ in range(25):
        dets, g = _random_instance(rng)
        base = ap_of(dets, g)
        floor = dets[-1][2] if dets else 0.5
        extra = dets + [det(999 + i, floor * 0.5**(i + 1), FAR, FAR) for i in range(3)]
        again = ap_of(extra, g)
        assert again.ap == base.ap
        assert again.ndet == base.ndet + 3


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


def _random_box(rng):
    x0 = float(rng.uniform(0, 80))
    y0 = float(rng.uniform(0, 80))
    return box(x0, y0, x0 + float(rng.uniform(4, 20)), y0 + float(rng.uniform(4, 20)))


def _jitter(rng, b):
    dx = float(rng.uniform(-1, 1))
    dy = float(rng.uniform(-1, 1))
    return box(b.x_min + dx, b.y_min + dy, b.x_max + dx, b.y_max + dy)


def _random_instance(rng):
    """Ground truth plus detections that are near-copies, partial overlaps,
    or pure noise, across a few images."""
    gts = [gt(_random_box(rng), _random_box(rng), int(rng.integers(3))) for _ in range(rng.integers(0, 5))]
    dets = []
    next_id = 0
    for g_img, g_sub, g_obj in gts:
        for _ in range(int(rng.integers(0, 3))):
            img = g_img if rng.random() < 0.8 else int(rng.integers(3))
            score = float(rng.uniform(0.01, 0.99))
            dets.append(det(next_id, score, _jitter(rng, g_sub), _jitter(rng, g_obj), img))
            next_id += 1
    for _ in range(int(rng.integers(0, 6))):
        dets.append(
            det(next_id, float(rng.uniform(0.01, 0.99)), _random_box(rng), _random_box(rng), int(rng.integers(3)))
        )
        next_id += 1
    dets.sort(key=lambda d: (-d[2], d[0]))
    return dets, gts


def _oracle_ap(ranked, gts, tau):
    """Independent reference: full min-IoU table from the tables' rows, then
    greedy matching and a quadratic prefix-recount of precision at every
    true-positive rank."""
    gt_rows = box_rows(gts)
    table = []
    for img, sub, obj in box_rows(ranked):
        row = []
        for g_img, g_sub, g_obj in gt_rows:
            if g_img != img:
                row.append(-1.0)
            else:
                row.append(min(iou_scalar(sub, g_sub), iou_scalar(obj, g_obj)))
        table.append(row)
    taken = [False] * len(gt_rows)
    flags = []
    for row in table:
        pick, pick_q = -1, -1.0
        for j, q in enumerate(row):
            if not taken[j] and q >= tau and q > max(pick_q, 0.0):
                pick, pick_q = j, q
        if pick >= 0:
            taken[pick] = True
        flags.append(pick >= 0)
    if not gt_rows:
        return None
    total = 0.0
    for r in range(1, len(flags) + 1):
        if flags[r - 1]:
            total += sum(flags[:r]) / r
    return total / len(gt_rows)


def test_ap_matches_brute_force_on_200_instances():
    rng = np.random.default_rng(2024)
    checked = 0
    for tau in (0.5, 0.3):
        for _ in range(100):
            dets, gts = _random_instance(rng)
            (ranked, scores), table = ranking(dets), box_table(gts)
            r = average_precision(Triplet(0, 0, 0), ranked, scores, table, MatchPolicy(tau))
            want = _oracle_ap(ranked, table, tau)
            if want is None:
                assert r.excluded
            else:
                assert r.ap == want
            checked += 1
    assert checked == 200


# ---------------------------------------------------------------------------
# mAP and results files
# ---------------------------------------------------------------------------


def test_mean_ap_single_query():
    assert mean_ap([APResult(Triplet(0, 0, 0), 0.7, 3, 9)]) == 0.7


def test_mean_ap_averages_and_skips_excluded():
    rs = [
        APResult(Triplet(0, 0, 0), 1.0, 2, 5),
        APResult(Triplet(0, 1, 0), 0.0, 1, 5),
        APResult(Triplet(0, 2, 0), 0.0, 0, 5),  # excluded
    ]
    assert mean_ap(rs) == 0.5


def test_mean_ap_all_excluded_rejected():
    with pytest.raises(DataError, match="excluded"):
        mean_ap([APResult(Triplet(0, 0, 0), 0.0, 0, 5)])


def test_mean_ap_matches_recount_on_seeded_queries():
    rng = np.random.default_rng(77)
    rs = [
        APResult(Triplet(0, i, 0), float(rng.uniform(0, 1)), int(rng.integers(1, 5)), 10)
        for i in range(12)
    ]
    want = sum(r.ap for r in rs) / 12
    assert mean_ap(rs) == want


def test_results_file_round_trip(tmp_path):
    subs = Vocabulary(["person", "traffic light"])
    pres = Vocabulary(["on", "next to"])
    objs = Vocabulary(["bike", "street"])
    rs = [
        APResult(Triplet(0, 0, 0), 1.0 / 3.0, 4, 17),
        APResult(Triplet(1, 1, 1), 0.0, 0, 17),  # excluded but still listed
    ]
    path = str(tmp_path / "results.txt")
    write_results(path, rs, subs, pres, objs)
    back, overall = load_results(path, subs, pres, objs)
    assert overall == mean_ap(rs)
    assert [(r.query, r.ap, r.npos, r.ndet) for r in back] == [
        (r.query, r.ap, r.npos, r.ndet) for r in rs
    ]
    lines = open(path).read().strip().split("\n")
    assert "traffic_light" in lines[1]  # multiword tokens use underscores
    assert lines[-1].startswith("map ")


def test_results_loader_rejects_garbage(tmp_path):
    subs = Vocabulary(["a"])
    pres = Vocabulary(["p"])
    objs = Vocabulary(["o"])
    path = str(tmp_path / "bad.txt")
    with open(path, "w") as fh:
        fh.write("query a p o ap 0.5 npos 2 ndet 3\nwhoops\n")
    with pytest.raises(DataError, match="bad.txt:2"):
        load_results(path, subs, pres, objs)
    with open(path, "w") as fh:
        fh.write("query a p o ap 0.5 npos 2 ndet 3\n")
    with pytest.raises(DataError, match="map"):
        load_results(path, subs, pres, objs)
    with open(path, "w") as fh:
        fh.write("query a p\nmap 0.5\n")
    with pytest.raises(DataError, match=r"bad.txt:1: truncated line$"):
        load_results(path, subs, pres, objs)
    with open(path, "w") as fh:
        fh.write("query a q o ap 0.5 npos 2 ndet 3\nmap 0.5\n")
    with pytest.raises(DataError, match=r"bad.txt:1: unknown predicate token 'q'"):
        load_results(path, subs, pres, objs)
    for line, message in (
        ("query a p o ap high npos 2 ndet 3", "bad real in ap: 'high'"),
        ("query a p o ap 0.5 npos 2.0 ndet 3", "bad npos '2.0'"),
        ("query a p o ap 0.5 npos 2 ndex 3", "expected 'ndet', found 'ndex'"),
        ("query a p o ap 0.5 npos 2 ndet 3 junk junk", "expected 10 fields, found 12"),
    ):
        with open(path, "w") as fh:
            fh.write(f"{line}\nmap 0.5\n")
        with pytest.raises(DataError) as info:
            load_results(path, subs, pres, objs)
        assert str(info.value) == f"{path}:1: {message}"
    with open(path, "w") as fh:
        fh.write("query a p o ap 0.5 npos 2 ndet 3\nmap 0.5 0.9\n")
    with pytest.raises(DataError) as info:
        load_results(path, subs, pres, objs)
    assert str(info.value) == f"{path}:2: expected 2 fields, found 3"


# ---------------------------------------------------------------------------
# End-to-end query evaluation
# ---------------------------------------------------------------------------


def test_evaluate_query_counts_ground_truth(small_bench):
    cfg, (train, test, table, heldout) = small_bench
    model = build_model(cfg, train, table, seed=0)
    [query] = decode(model.dims, model.observed[:1])
    want_npos = sum(1 for row in row_triplets(test.pairs) if query in row)
    [(q, ranked, scores, r)] = evaluate_queries(model, test, [query], MatchPolicy(0.5))
    assert q == query and len(ranked) == len(scores) == len(test.pairs)
    assert r.npos == want_npos > 0
    assert r.ndet == len(test.pairs)
    assert 0.0 <= r.ap <= 1.0


def test_evaluate_query_ground_truth_listing(small_bench):
    cfg, (train, test, table, heldout) = small_bench
    q = heldout[0]
    gts = ground_truth_for(test, q)
    assert isinstance(gts, PairTable)
    assert len(gts) == sum(1 for row in row_triplets(test.pairs) if q in row)
    assert all(q in row for row in row_triplets(gts))


def ground_truth_scan(dataset: Dataset, query: Triplet) -> list[int]:
    """Oracle: one query's ground-truth rows, scanning the pairs one by one."""
    return [i for i, row in enumerate(row_triplets(dataset.pairs)) if query in row]


def test_ground_truth_index_lists_what_ground_truth_for_returns(small_bench):
    cfg, (train, test, table, heldout) = small_bench
    a = np.full(4, 0.3)
    # several positives per pair, in either order, over two images
    multi = Dataset(
        Vocabulary(["s0", "s1"]),
        Vocabulary(["p0", "p1", "p2"]),
        Vocabulary(["o0"]),
        PairTable.from_rows(
            [
                (i, i % 2, UNIT, box(i, 0, i + 10, 10), i % 2, 0, a, a, pos)
                for i, pos in enumerate([(0, 1), (1,), (), (2, 0, 1), (1, 0)])
            ],
            4,
        ),
    )
    for ds in (test, multi):
        index = ground_truth_index(ds.pairs, ds.dims)
        everything = {
            Triplet(s, p, o)
            for s in range(len(ds.subjects))
            for p in range(len(ds.predicates))
            for o in range(len(ds.objects))
        }
        assert set(decode(ds.dims, index[0])) <= everything
        for t in sorted(everything):
            assert truth_rows(index, encode(ds.dims, [t])[0]).tolist() == ground_truth_scan(ds, t)
            assert_tables_equal(ground_truth_for(ds, t), ds.pairs.take(ground_truth_scan(ds, t)))
    assert len(truth_rows(ground_truth_index(multi.pairs, multi.dims), encode(multi.dims, [(0, 0, 0)])[0])) == 2


def test_a_predicate_listed_twice_counts_twice_is_labelled_once_and_is_one_truth():
    a = np.full(2, 0.5)
    near = box(2, 0, 12, 10)
    rows = [
        (0, 0, UNIT, near, 0, 0, a, a, (1, 1)),
        (1, 0, UNIT, UNIT, 0, 0, a, a, (1,)),
        (2, 1, UNIT, UNIT, 0, 0, a, a, ()),
    ]
    ds = Dataset(Vocabulary(["s"]), Vocabulary(["p0", "p1"]), Vocabulary(["o"]), PairTable.from_rows(rows, 2))
    t = Triplet(0, 1, 0)
    assert triplet_counts(ds) == {t: 3}
    columns = encode(ds.dims, [Triplet(0, 0, 0), t])
    assert label_matrix(ds.pairs, columns, "full", ds.dims, "vp").tolist() == [[0, 1], [0, 1], [0, 0]]
    assert label_matrix(ds.pairs, encode(ds.dims, [t]), "p", ds.dims, "p").tolist() == [[1], [1], [0]]
    codes, rows = ground_truth_index(ds.pairs, ds.dims)
    assert decode(ds.dims, codes) == [t, t] and rows.tolist() == [0, 1] and ground_truth_scan(ds, t) == [0, 1]
    truth = ground_truth_for(ds, t)
    assert box_rows(truth) == [(0, UNIT, near), (0, UNIT, UNIT)]
    assert_tables_equal(truth, ds.pairs.take([0, 1]))


@pytest.fixture(scope="module")
def trained_bench(small_bench):
    cfg, (train, test, table, heldout) = small_bench
    cfg = desk_config(stage1_epochs=1, stage2_epochs=1)
    model = build_model(cfg, train, table, seed=0)
    train_stage1(model, train, seed=0)
    gamma = gamma_init("deep", cfg.embed_dim, cfg.gamma_hidden_dim(), rng_stream(0, "gamma"))
    train_stage2(model, gamma, train, seed=0)
    return model, gamma, test, list(heldout) + decode(model.dims, model.observed[:3])


def _per_query_oracle(model, test, queries, gamma):
    """The eval loop written per query: every query embeds the pairs again
    and scans the dataset for its ground truth."""
    for q in queries:
        u = code(model, q)
        override = None if gamma is None else transfer_embedding(model, gamma, u, source_pool(model))
        ranked, scores = rank_candidates(model, u, test.pairs, vp_override=override)
        truth = test.pairs.take(ground_truth_scan(test, q))
        yield q, ranked, scores, average_precision(q, ranked, scores, truth, MatchPolicy(0.5))


def _write_eval(out, test, rows):
    """results.txt plus every ranked pair of every query, as the CLI writes them."""
    out.mkdir()
    results = []
    with open(out / "top_detections.txt", "w") as fh:
        for q, ranked, scores, r in rows:
            results.append(r)
            ranks = zip(ranked.pair_id.tolist(), ranked.image_id.tolist(), scores.tolist())
            for rank, (pair_id, image_id, score) in enumerate(ranks, 1):
                fh.write(f"query {tuple(q)} rank {rank} pair {pair_id} image {image_id} score {score!r}\n")
    write_results(str(out / "results.txt"), results, test.subjects, test.predicates, test.objects)
    return [(out / name).read_bytes() for name in ("results.txt", "top_detections.txt")]


@pytest.mark.parametrize("mode", ["direct", "transfer"])
def test_eval_loop_is_byte_identical_to_per_query_oracle(trained_bench, tmp_path, mode):
    model, gamma, test, queries = trained_bench
    gamma = gamma if mode == "transfer" else None
    got = _write_eval(tmp_path / "loop", test, evaluate_queries(model, test, queries, MatchPolicy(0.5), gamma))
    want = _write_eval(tmp_path / "oracle", test, _per_query_oracle(model, test, queries, gamma))
    assert got == want
    assert got[1].count(b"\n") == len(queries) * len(test.pairs)
