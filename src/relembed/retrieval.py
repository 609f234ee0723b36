"""Retrieval evaluation: rank candidate pairs for a triplet query, match
the ranking against ground truth by IoU on both boxes, and report average
precision per query plus the mean over queries.

A ranking (``Ranking``) is every candidate pair, best score first, with its
scores alongside: pair ids, image ids and boxes, never the appearance. A
query's ground truth is every pair that lists it, in pair order, taken from
the pair table (``PairTable.take``). Matching reads their boxes and images.

Matching is greedy and one-to-one: ranked pairs are visited in descending
score order, and each claims the best still-unmatched ground-truth pair in
its image whose subject and object boxes both clear the IoU threshold.
AP is interpolation-free: the sum of precision at each true-positive rank,
divided by the number of ground-truth positives.

``evaluate_queries`` is the eval loop: it embeds the pairs, transfers every
query's vp embedding from one G matrix and indexes the ground truth once,
then scores, ranks and matches each query.
``ground_truth_for`` is one query's ground truth. A query is scored and
looked up by its triplet code, in an index of positive codes sorted once.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .data import Array, DataError, Dataset, PairTable, Triplet, fmt_reals, read_lines, triplet_text
from .data import triplet_codes
from .analogy import Gamma, source_pool, transfer_embedding
from .model import JointModel, reuse_pair_embeddings, score_pairs


def _area(box: Array) -> Array:
    return (box[..., 2] - box[..., 0]) * (box[..., 3] - box[..., 1])


def iou(a: Array, b: Array) -> Array:
    """Intersection area over union area of (..., 4) box coordinates
    (x_min, y_min, x_max, y_max), broadcast against each other; 0 where
    the boxes are disjoint."""
    ix = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    iy = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    overlap = (ix > 0.0) & (iy > 0.0)
    inter = np.where(overlap, ix * iy, 0.0)
    return np.where(overlap, inter / (_area(a) + _area(b) - inter), 0.0)


@dataclass(frozen=True)
class MatchPolicy:
    """Both boxes of a detection must overlap ground truth by at least tau."""

    tau: float

    def __post_init__(self):
        if not 0.0 < self.tau <= 1.0:
            raise DataError(f"iou threshold must be in (0, 1], got {self.tau}")


@dataclass(frozen=True)
class Ranking:
    """Candidate pairs in rank order: the columns ranking and matching read."""

    pair_id: Array
    image_id: Array
    coords: Array

    def __len__(self) -> int:
        return len(self.pair_id)


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


def ground_truth_for(dataset: Dataset, query: Triplet) -> PairTable:
    """The query's ground truth: every pair that lists it, in pair order."""
    index = ground_truth_index(dataset.pairs, dataset.dims)
    return dataset.pairs.take(truth_rows(index, triplet_codes(dataset.dims, query)))


def ground_truth_index(pairs: PairTable, dims) -> tuple[Array, Array]:
    """The code over ``dims`` of every positive entry, ascending, and its
    row, ascending within a code: one entry per pair listing a triplet."""
    rows, codes = pairs.positives(dims)
    order = np.argsort(codes, kind="stable")  # entries come in row order
    codes, rows = codes[order], rows[order]
    first = np.ones(len(codes), bool)  # empty when no pair lists a triplet
    first[1:] = (np.diff(codes) != 0) | (np.diff(rows) != 0)  # a repeat is one entry
    return codes[first], rows[first]


def truth_rows(index: tuple[Array, Array], code: int) -> Array:
    """The rows of one triplet code in a ``ground_truth_index``."""
    codes, rows = index
    return rows[np.searchsorted(codes, code) : np.searchsorted(codes, code, side="right")]


def rank_candidates(model: JointModel, query: int, pairs: PairTable, vp_override=None) -> tuple[Ranking, Array]:
    """The candidate pairs best score first, ties by pair id, and their
    scores, for the triplet of code ``query``."""
    scores = score_pairs(model, query, pairs, vp_override=vp_override)
    order = np.lexsort((pairs.pair_id, -scores))
    scores = scores[order]
    bad = ~((scores > 0.0) & (scores < 1.0))  # NaN fails both comparisons
    if bad.any():
        raise DataError(f"detection score must be finite in (0, 1), got {float(scores[bad][0])}")
    return Ranking(pairs.pair_id[order], pairs.image_id[order], pairs.coords[order]), scores


def match_detections(ranked: Ranking, truth: PairTable, policy: MatchPolicy) -> Array:
    """True-positive flag per ranked pair, in rank order.

    A ranked pair claims the unmatched same-image ground-truth pair with the
    largest min(subject IoU, object IoU) among those where both clear tau;
    ties go to the earlier ground-truth entry. Only rows in an image with
    ground truth get IoUs; only those clearing tau somewhere are visited.
    """
    keep = np.flatnonzero(np.isin(ranked.image_id, truth.image_id))
    det, gt = ranked.coords[keep, None, :], truth.coords[None, :, :]
    sub, obj = iou(det[..., :4], gt[..., :4]), iou(det[..., 4:], gt[..., 4:])
    q = np.where(obj < sub, obj, sub)  # Python's min(sub, obj), also for a NaN IoU (infinite boxes)
    claimable = (ranked.image_id[keep, None] == truth.image_id[None, :]) & (q >= policy.tau)
    q = np.where(claimable, q, -1.0)
    flags = np.zeros(len(ranked), dtype=bool)
    free = np.ones(len(truth), dtype=bool)
    for r in np.flatnonzero(claimable.any(axis=1)).tolist():
        row = np.where(free, q[r], -1.0)
        best = int(row.argmax())  # the first of equal maxima
        if row[best] >= 0.0:
            free[best] = False
            flags[keep[r]] = True
    assert flags.sum() == len(truth) - free.sum()  # one ground-truth pair per detection
    return flags


def average_precision(
    query: Triplet, ranked: Ranking, scores: Array, truth: PairTable, policy: MatchPolicy
) -> APResult:
    """Interpolation-free AP of a ranking (descending ``scores``) against
    ground truth."""
    if (scores[1:] > scores[:-1]).any():
        raise DataError("detections must be sorted by descending score")
    npos = len(truth)
    if npos == 0:
        return APResult(query, 0.0, 0, len(ranked))
    hit_ranks = (np.flatnonzero(match_detections(ranked, truth, policy)) + 1).tolist()
    ap = 0.0
    for tp, rank in enumerate(hit_ranks, 1):
        ap += tp / rank
    return APResult(query, ap / npos, npos, len(ranked))


def evaluate_queries(
    model: JointModel,
    dataset: Dataset,
    queries: list[Triplet],
    policy: MatchPolicy,
    gamma: Gamma | None = None,
) -> Iterator[tuple[Triplet, Ranking, Array, APResult]]:
    """Rank every candidate pair of the dataset for each query, in order.

    Yields (query, ranked pairs, their scores, AP). The pair embeddings and
    the ground-truth index are built once, on the first step; each query's
    ``pair_embeddings`` call then returns the same arrays. Without ``gamma``
    each query is scored directly; with it, the vp factor of query i is row
    i of one ``transfer_embedding`` call over every query, whose sources
    come from the source pool (analogy transfer).
    """
    codes = triplet_codes(model.dims, np.array(queries, np.int64).reshape(-1, 3).T)
    overrides = [None] * len(codes)
    if gamma is not None:
        overrides = transfer_embedding(model, gamma, codes, source_pool(model))
    index = ground_truth_index(dataset.pairs, model.dims)
    with reuse_pair_embeddings(model, dataset.pairs):
        for query, code, override in zip(queries, codes.tolist(), overrides):
            ranked, scores = rank_candidates(model, code, dataset.pairs, vp_override=override)
            truth = dataset.pairs.take(truth_rows(index, code))
            yield query, ranked, scores, average_precision(query, ranked, scores, truth, policy)


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
