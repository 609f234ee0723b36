"""Retrieval evaluation: rank candidate pairs for a triplet query, match
detections against ground truth by IoU on both boxes, and report average
precision per query plus the mean over queries.

Matching is greedy and one-to-one: detections are visited in descending
score order, and each claims the best still-unmatched ground-truth pair in
its image whose subject and object boxes both clear the IoU threshold.
AP is interpolation-free: the sum of precision at each true-positive rank,
divided by the number of ground-truth positives.

``evaluate_queries`` is the eval loop: it embeds the candidate pairs and
indexes the ground truth once, then scores, ranks and matches each query.
``ground_truth_for`` is one query's entry of the index.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .data import BoundingBox, DataError, Dataset, Triplet, fmt_reals, read_lines, triplet_text
from .analogy import Gamma, source_pool, transfer_embedding
from .model import JointModel, reuse_pair_embeddings, score_pairs


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection area over union area; 0 when the boxes are disjoint."""
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


@dataclass(frozen=True)
class MatchPolicy:
    """Both boxes of a detection must overlap ground truth by at least tau."""

    tau: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.tau <= 1.0:
            raise DataError(f"iou threshold must be in (0, 1], got {self.tau}")


@dataclass(frozen=True)
class Detection:
    pair_id: int
    image_id: int
    score: float
    sub_box: BoundingBox
    obj_box: BoundingBox

    def __post_init__(self):
        if not (math.isfinite(self.score) and 0.0 < self.score < 1.0):
            raise DataError(f"detection score must be finite in (0, 1), got {self.score}")


@dataclass(frozen=True)
class GroundTruthPair:
    image_id: int
    sub_box: BoundingBox
    obj_box: BoundingBox


@dataclass
class APResult:
    query: Triplet
    ap: float
    npos: int
    ndet: int

    @property
    def excluded(self) -> bool:
        """True when the query has no ground-truth positives at all."""
        return self.npos == 0


def ground_truth_for(dataset: Dataset, query: Triplet) -> list[GroundTruthPair]:
    """Ground-truth box pairs: every candidate positive for the query."""
    return ground_truth_index(dataset).get(query, [])


def ground_truth_index(dataset: Dataset) -> dict[Triplet, list[GroundTruthPair]]:
    """Each triplet's ground-truth box pairs in pair order, one per pair listing it."""
    rows, triplets = dataset.pairs.positives()
    images, boxes = dataset.pairs.image_id.tolist(), dataset.pairs.boxes.tolist()
    index: dict[Triplet, list[GroundTruthPair]] = {}
    for s, p, o, i in np.unique(np.column_stack([triplets, rows]), axis=0).tolist():
        index.setdefault(Triplet(s, p, o), []).append(GroundTruthPair(images[i], *boxes[i]))
    return index


def rank_candidates(model: JointModel, query: Triplet, pairs, vp_override=None) -> list[Detection]:
    """Candidate pairs as detections, best score first; ties by pair id."""
    scores = score_pairs(model, query, pairs, vp_override=vp_override)
    ids, images, values = pairs.pair_id.tolist(), pairs.image_id.tolist(), scores.tolist()
    boxes = pairs.boxes.tolist()
    order = np.lexsort((pairs.pair_id, -scores)).tolist()
    return [Detection(ids[i], images[i], values[i], *boxes[i]) for i in order]


def match_detections(
    detections: list[Detection],
    ground_truth: list[GroundTruthPair],
    policy: MatchPolicy,
) -> list[bool]:
    """True-positive flag per detection, in the given (descending) order.

    A detection claims the unmatched same-image ground-truth pair with the
    largest min(subject IoU, object IoU) among those where both clear tau;
    ties go to the earlier ground-truth entry. Only the detection's own
    image is scanned.
    """
    by_image: dict[int, list[tuple[int, GroundTruthPair]]] = {}
    for j, gt in enumerate(ground_truth):
        by_image.setdefault(gt.image_id, []).append((j, gt))
    matched: set[int] = set()
    flags = []
    for det in detections:
        best, best_q = -1, 0.0
        for j, gt in by_image.get(det.image_id, ()):
            if j in matched:
                continue
            q = min(iou(det.sub_box, gt.sub_box), iou(det.obj_box, gt.obj_box))
            if q >= policy.tau and q > best_q:
                best, best_q = j, q
        if best >= 0:
            matched.add(best)
            flags.append(True)
        else:
            flags.append(False)
    assert len(matched) == sum(flags)  # one ground-truth pair per detection
    return flags


def average_precision(
    query: Triplet,
    detections: list[Detection],
    ground_truth: list[GroundTruthPair],
    policy: MatchPolicy | None = None,
) -> APResult:
    """Interpolation-free AP of a sorted detection list against ground truth."""
    policy = policy or MatchPolicy()
    for prev, det in zip(detections, detections[1:]):
        if det.score > prev.score:
            raise DataError("detections must be sorted by descending score")
    npos = len(ground_truth)
    if npos == 0:
        return APResult(query, 0.0, 0, len(detections))
    flags = match_detections(detections, ground_truth, policy)
    ap, tp = 0.0, 0
    for rank, hit in enumerate(flags, 1):
        if hit:
            tp += 1
            ap += tp / rank
    return APResult(query, ap / npos, npos, len(detections))


def evaluate_queries(
    model: JointModel,
    dataset: Dataset,
    queries: list[Triplet],
    policy: MatchPolicy | None = None,
    gamma: Gamma | None = None,
) -> Iterator[tuple[Triplet, list[Detection], APResult]]:
    """Rank every candidate pair of the dataset for each query, in order.

    Yields (query, ranked detections, AP). The pair embeddings and the
    ground-truth index are built once, on the first step; each query's
    ``pair_embeddings`` call then returns the same arrays. Without ``gamma``
    each query is scored directly; with it, its vp factor is the embedding
    transferred from the source pool (analogy transfer).
    """
    pool = None
    if gamma is not None:
        pool = source_pool(model)
        if not pool:
            raise DataError("no transfer sources: every observed triplet is rare")
    truth = ground_truth_index(dataset)
    with reuse_pair_embeddings(model, dataset.pairs):
        for query in queries:
            override = None if pool is None else transfer_embedding(model, gamma, query, pool)
            detections = rank_candidates(model, query, dataset.pairs, vp_override=override)
            yield query, detections, average_precision(query, detections, truth.get(query, []), policy)


def mean_ap(results: list[APResult]) -> float:
    """Unweighted mean AP over queries with at least one positive."""
    vals = [r.ap for r in results if not r.excluded]
    if not vals:
        raise DataError("every query was excluded (no ground-truth positives)")
    return sum(vals) / len(vals)


def write_results(path: str, results: list[APResult], subjects, predicates, objects):
    """One line per query, then the mean over non-excluded queries."""
    overall = mean_ap(results)
    vocabs = (subjects, predicates, objects)
    with open(path, "w") as fh:
        for r in results:
            fh.write(
                f"query {triplet_text(vocabs, r.query)}"
                f" ap {fmt_reals([r.ap])} npos {r.npos} ndet {r.ndet}\n"
            )
        fh.write(f"map {fmt_reals([overall])}\n")


# (position, keyword) of every keyword of a query line
_QUERY_KEYWORDS = ((4, "ap"), (6, "npos"), (8, "ndet"))


def load_results(path: str, subjects, predicates, objects) -> tuple[list[APResult], float]:
    vocabs = (subjects, predicates, objects)
    results: list[APResult] = []
    overall = None
    for line in read_lines(path):
        head = line.parts[0]
        if head == "map":
            line.expect(2, (), exact=True)
            overall = float(line.reals(1, 2, "map")[0])
        elif head == "query":
            line.expect(10, _QUERY_KEYWORDS, exact=True)
            query = line.triplet(vocabs, 1, 4)
            ap = float(line.reals(5, 6, "ap")[0])
            results.append(APResult(query, ap, line.integer(7, "npos"), line.integer(9, "ndet")))
        else:
            line.fail(f"expected query or map, found {head!r}")
    if overall is None:
        raise DataError(f"{path}: missing final map line")
    return results, overall
