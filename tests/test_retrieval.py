"""Tests for retrieval evaluation: IoU, ranking, greedy matching, AP, mAP,
and the results file round-trip."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    Detection,
    GroundTruthPair,
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
    write_results,
)

from conftest import desk_config, row_triplets


def box(x0, y0, x1, y1):
    return BoundingBox(float(x0), float(y0), float(x1), float(y1))


def det(pair_id, score, sub, obj, image_id=0):
    return Detection(pair_id, image_id, score, sub, obj)


def gt(sub, obj, image_id=0):
    return GroundTruthPair(image_id, sub, obj)


UNIT = box(0, 0, 10, 10)
FAR = box(500, 500, 510, 510)


# ---------------------------------------------------------------------------
# IoU
# ---------------------------------------------------------------------------


def test_iou_identical_boxes():
    assert iou(UNIT, UNIT) == 1.0


def test_iou_disjoint_boxes():
    assert iou(UNIT, box(20, 20, 30, 30)) == 0.0
    assert iou(UNIT, box(10, 0, 20, 10)) == 0.0  # shared edge only


def test_iou_half_overlap_hand_value():
    # intersection 5 * 10 = 50, union 100 + 100 - 50 = 150
    a, b = box(0, 0, 10, 10), box(5, 0, 15, 10)
    assert abs(iou(a, b) - 1.0 / 3.0) < 1e-12
    assert iou(a, b) == iou(b, a)


def test_iou_containment():
    inner = box(2, 2, 4, 4)  # area 4 inside area 100
    assert abs(iou(UNIT, inner) - 0.04) < 1e-12


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


def test_detection_score_must_be_open_unit():
    det(0, 0.5, UNIT, UNIT)
    for bad in (0.0, 1.0, -0.2, float("nan"), float("inf")):
        with pytest.raises(DataError):
            det(0, bad, UNIT, UNIT)


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
    dets = rank_candidates(model, Triplet(0, 0, 0), ds.pairs)
    assert len({d.score for d in dets}) == 1
    assert [d.pair_id for d in dets] == [0, 1, 2, 3]


def test_rank_single_pair_is_singleton():
    model, ds = _identical_pairs_world([7])
    dets = rank_candidates(model, Triplet(0, 0, 0), ds.pairs)
    assert len(dets) == 1 and dets[0].pair_id == 7


def test_rank_matches_full_sort_oracle(small_bench):
    cfg, (train, test, table, heldout) = small_bench
    model = build_model(cfg, train, table, seed=0)
    pairs = train.pairs.take(range(20))
    query = model.observed[0]
    dets = rank_candidates(model, query, pairs)
    scores = score_pairs(model, query, pairs)
    want = [i for i, _ in sorted(zip(pairs.pair_id.tolist(), scores), key=lambda ps: (-ps[1], ps[0]))]
    assert [d.pair_id for d in dets] == want
    assert all(a.score >= b.score for a, b in zip(dets, dets[1:]))


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------


def test_match_requires_both_boxes():
    g = [gt(UNIT, UNIT)]
    good = [det(0, 0.9, UNIT, UNIT)]
    half = [det(0, 0.9, UNIT, box(8, 8, 18, 18))]  # object overlap far below tau
    assert match_detections(good, g, MatchPolicy(0.5)) == [True]
    assert match_detections(half, g, MatchPolicy(0.5)) == [False]
    assert match_detections(half, g, MatchPolicy(0.02)) == [True]


def test_match_is_one_to_one_greedy():
    g = [gt(UNIT, UNIT)]
    dets = [det(0, 0.9, UNIT, UNIT), det(1, 0.8, UNIT, UNIT)]
    assert match_detections(dets, g, MatchPolicy(0.5)) == [True, False]


def test_match_prefers_larger_min_overlap():
    # ground truth A overlaps the first detection at 0.55, B at 0.85; the
    # second detection only reaches B (A sits on the far side, IoU 0.46).
    # Claiming by best overlap leaves the second with nothing; claiming by
    # ground-truth order would wrongly let both match.
    a = box(-2.9, 0, 7.1, 10)
    b = box(0.8, 0, 10.8, 10)
    g = [gt(a, a), gt(b, b)]
    dets = [det(0, 0.9, UNIT, UNIT), det(1, 0.8, b, b)]
    assert match_detections(dets, g, MatchPolicy(0.5)) == [True, False]


def test_match_respects_image_boundaries():
    g = [gt(UNIT, UNIT, image_id=1)]
    dets = [det(0, 0.9, UNIT, UNIT, image_id=0)]
    assert match_detections(dets, g, MatchPolicy(0.5)) == [False]


def test_match_tie_goes_to_earlier_ground_truth():
    g = [gt(UNIT, UNIT), gt(UNIT, UNIT)]  # identical candidates
    dets = [det(0, 0.9, UNIT, UNIT)]
    flags = match_detections(dets, g, MatchPolicy(0.5))
    assert flags == [True]
    # the second detection must still find the (identical) leftover
    flags = match_detections([det(0, 0.9, UNIT, UNIT), det(1, 0.8, UNIT, UNIT)], g, MatchPolicy(0.5))
    assert flags == [True, True]


def _brute_force_flags(dets, gts, tau):
    """The matcher without the per-image grouping: every detection scans
    all ground truth and skips other images' entries."""
    matched, flags = set(), []
    for d in dets:
        best, best_q = -1, 0.0
        for j, g in enumerate(gts):
            if j in matched or g.image_id != d.image_id:
                continue
            q = min(iou(d.sub_box, g.sub_box), iou(d.obj_box, g.obj_box))
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
@given(
    gts=st.lists(st.builds(gt, _shifted_box, _shifted_box, _image), max_size=8),
    dets=st.lists(st.tuples(_shifted_box, _shifted_box, _image), max_size=12),
    tau=st.sampled_from([0.1, 0.5, 1.0]),
)
def test_per_image_matcher_equals_brute_force(gts, dets, tau):
    detections = [det(i, 0.5, s, o, img) for i, (s, o, img) in enumerate(dets)]
    want = _brute_force_flags(detections, gts, tau)
    assert match_detections(detections, gts, MatchPolicy(tau)) == want


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
    r = average_precision(Triplet(0, 0, 0), dets, g)
    assert r.ap == 1.0 and r.npos == 3 and r.ndet == 5


def test_ap_tp_fp_tp_hand_value():
    g = [gt(UNIT, UNIT), gt(box(20, 0, 30, 10), UNIT)]
    dets = [
        det(0, 0.9, UNIT, UNIT),
        det(1, 0.8, FAR, FAR),
        det(2, 0.7, box(20, 0, 30, 10), UNIT),
    ]
    r = average_precision(Triplet(0, 0, 0), dets, g)
    assert abs(r.ap - (1.0 / 1.0 + 2.0 / 3.0) / 2.0) < 1e-15
    assert abs(r.ap - 0.8333333333333333) < 1e-12


def test_ap_no_matches_is_zero():
    g = [gt(UNIT, UNIT)]
    dets = [det(0, 0.9, FAR, FAR)]
    r = average_precision(Triplet(0, 0, 0), dets, g)
    assert r.ap == 0.0 and not r.excluded


def test_ap_zero_positives_is_excluded():
    r = average_precision(Triplet(0, 0, 0), [det(0, 0.9, UNIT, UNIT)], [])
    assert r.excluded and r.ap == 0.0 and r.npos == 0 and r.ndet == 1


def test_ap_rejects_unsorted_detections():
    dets = [det(0, 0.5, UNIT, UNIT), det(1, 0.9, UNIT, UNIT)]
    with pytest.raises(DataError, match="sorted"):
        average_precision(Triplet(0, 0, 0), dets, [gt(UNIT, UNIT)])


def test_ap_invariant_under_monotone_score_transform():
    rng = np.random.default_rng(5)
    for _ in range(25):
        dets, g = _random_instance(rng)
        base = average_precision(Triplet(0, 0, 0), dets, g)
        squeezed = [
            Detection(d.pair_id, d.image_id, 0.25 + d.score / 2.0, d.sub_box, d.obj_box)
            for d in dets
        ]
        again = average_precision(Triplet(0, 0, 0), squeezed, g)
        assert again.ap == base.ap


def test_ap_unchanged_by_trailing_false_positives():
    rng = np.random.default_rng(6)
    for _ in range(25):
        dets, g = _random_instance(rng)
        base = average_precision(Triplet(0, 0, 0), dets, g)
        floor = dets[-1].score if dets else 0.5
        extra = dets + [det(999 + i, floor * 0.5**(i + 1), FAR, FAR) for i in range(3)]
        again = average_precision(Triplet(0, 0, 0), extra, g)
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
    for g in gts:
        for _ in range(int(rng.integers(0, 3))):
            img = g.image_id if rng.random() < 0.8 else int(rng.integers(3))
            dets.append(
                det(next_id, float(rng.uniform(0.01, 0.99)), _jitter(rng, g.sub_box), _jitter(rng, g.obj_box), img)
            )
            next_id += 1
    for _ in range(int(rng.integers(0, 6))):
        dets.append(
            det(next_id, float(rng.uniform(0.01, 0.99)), _random_box(rng), _random_box(rng), int(rng.integers(3)))
        )
        next_id += 1
    dets.sort(key=lambda d: (-d.score, d.pair_id))
    return dets, gts


def _oracle_ap(dets, gts, tau):
    """Independent reference: full min-IoU table, then greedy matching and a
    quadratic prefix-recount of precision at every true-positive rank."""
    table = []
    for d in dets:
        row = []
        for g in gts:
            if g.image_id != d.image_id:
                row.append(-1.0)
            else:
                row.append(min(iou(d.sub_box, g.sub_box), iou(d.obj_box, g.obj_box)))
        table.append(row)
    taken = [False] * len(gts)
    flags = []
    for row in table:
        pick, pick_q = -1, -1.0
        for j, q in enumerate(row):
            if not taken[j] and q >= tau and q > max(pick_q, 0.0):
                pick, pick_q = j, q
        if pick >= 0:
            taken[pick] = True
        flags.append(pick >= 0)
    if not gts:
        return None
    total = 0.0
    for r in range(1, len(flags) + 1):
        if flags[r - 1]:
            total += sum(flags[:r]) / r
    return total / len(gts)


def test_ap_matches_brute_force_on_200_instances():
    rng = np.random.default_rng(2024)
    checked = 0
    for tau in (0.5, 0.3):
        for _ in range(100):
            dets, gts = _random_instance(rng)
            r = average_precision(Triplet(0, 0, 0), dets, gts, MatchPolicy(tau))
            want = _oracle_ap(dets, gts, tau)
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
    query = model.observed[0]
    want_npos = sum(1 for row in row_triplets(test.pairs) if query in row)
    [(q, dets, r)] = evaluate_queries(model, test, [query], MatchPolicy(0.5))
    assert q == query and len(dets) == len(test.pairs)
    assert r.npos == want_npos > 0
    assert r.ndet == len(test.pairs)
    assert 0.0 <= r.ap <= 1.0


def test_evaluate_query_ground_truth_listing(small_bench):
    cfg, (train, test, table, heldout) = small_bench
    q = heldout[0]
    gts = ground_truth_for(test, q)
    assert all(isinstance(g, GroundTruthPair) for g in gts)
    assert len(gts) == sum(1 for row in row_triplets(test.pairs) if q in row)


def ground_truth_scan(dataset: Dataset, query: Triplet) -> list[GroundTruthPair]:
    """Oracle: one query's ground truth, scanning the pairs one by one."""
    images, boxes = dataset.pairs.image_id.tolist(), dataset.pairs.boxes.tolist()
    rows = row_triplets(dataset.pairs)
    return [GroundTruthPair(images[i], *boxes[i]) for i, row in enumerate(rows) if query in row]


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
        index = ground_truth_index(ds)
        everything = {
            Triplet(s, p, o)
            for s in range(len(ds.subjects))
            for p in range(len(ds.predicates))
            for o in range(len(ds.objects))
        }
        assert index.keys() <= everything
        for t in sorted(everything):
            assert index.get(t, []) == ground_truth_scan(ds, t) == ground_truth_for(ds, t)
    assert len(ground_truth_index(multi)[Triplet(0, 0, 0)]) == 2


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
    assert ds.counts == {t: 3}
    assert label_matrix(ds.pairs, [Triplet(0, 0, 0), t], "full", "vp").tolist() == [[0, 1], [0, 1], [0, 0]]
    assert label_matrix(ds.pairs, [Triplet(0, 1, 0)], "p", "p").tolist() == [[1], [1], [0]]
    truth = [GroundTruthPair(0, UNIT, near), GroundTruthPair(0, UNIT, UNIT)]
    assert ground_truth_index(ds) == {t: truth}
    assert ground_truth_for(ds, t) == ground_truth_scan(ds, t) == truth


@pytest.fixture(scope="module")
def trained_bench(small_bench):
    cfg, (train, test, table, heldout) = small_bench
    cfg = desk_config(stage1_epochs=1, stage2_epochs=1)
    model = build_model(cfg, train, table, seed=0)
    train_stage1(model, train, seed=0)
    gamma = gamma_init("deep", cfg.embed_dim, cfg.gamma_hidden_dim(), rng_stream(0, "gamma"))
    train_stage2(model, gamma, train, seed=0)
    return model, gamma, test, list(heldout) + model.observed[:3]


def _per_query_oracle(model, test, queries, gamma):
    """The eval loop written per query: every query embeds the pairs again
    and scans the dataset for its ground truth."""
    for q in queries:
        override = None if gamma is None else transfer_embedding(model, gamma, q, source_pool(model))
        dets = rank_candidates(model, q, test.pairs, vp_override=override)
        yield q, dets, average_precision(q, dets, ground_truth_scan(test, q), MatchPolicy(0.5))


def _write_eval(out, test, rows):
    """results.txt plus every detection of every query, as the CLI writes them."""
    out.mkdir()
    results = []
    with open(out / "top_detections.txt", "w") as fh:
        for q, dets, r in rows:
            results.append(r)
            for rank, d in enumerate(dets, 1):
                fh.write(f"query {tuple(q)} rank {rank} pair {d.pair_id} image {d.image_id} score {d.score!r}\n")
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
