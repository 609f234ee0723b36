"""Acceptance suite: one test per shipping criterion.

Every test finishes by printing a single ``criterion N (<label>): PASS|FAIL``
line (visible with ``pytest tests/test_acceptance.py -v -s``) and asserting
the same verdict, so the suite fails loudly rather than silently skipping.
The ordering checks (criteria 5 and 6) read one run of ``tools/claims.py``'s
``measure`` on seeds 0-2, which trains real models on the default synthetic
benchmark and is the slow part; everything else is seconds.
"""

import dataclasses
import importlib
import os
import statistics
import time

import numpy as np
import pytest

from relembed.analogy import (
    analogy_loss,
    gamma_forward,
    gamma_init,
    gamma_input_matrix,
    similarity_many,
    transfer_embedding,
)
from relembed.checkpoint import load_checkpoint, save_checkpoint
from relembed.cli import main
from relembed.config import RunConfig, validate, write_config
from relembed.data import BoundingBox, Triplet, synth_generate
from relembed.model import (
    adam_update,
    batch_iter,
    branch_inputs,
    build_model,
    embed_language_batch,
    joint_loss,
    named_parameters,
    score_pairs,
    train_stage1,
    trainable,
)
from relembed.numkit import (
    adam_init,
    rng_stream,
)
from relembed.retrieval import (
    MatchPolicy,
    average_precision,
    iou,
)

from conftest import box_table, desk_config, encode, row_triplets
from gradcheck import finite_diff_grad, max_relative_error


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    tail = f"  [{detail}]" if detail else ""
    print(f"criterion {num} ({label}): {verdict}{tail}", flush=True)
    assert ok, f"criterion {num} ({label}): {verdict}{tail}"


# ---------------------------------------------------------------------------
# 1. gradient correctness
# ---------------------------------------------------------------------------

_BRANCH_CYCLE = ("s", "o", "p", "vp", "sp", "po")
_GAMMA_CYCLE = ("linear", "deep", "zero")


def _fd_config(**overrides):
    # branch_hidden stays comfortably wide: a freshly built relu net with
    # zero-init biases can emit an exactly zero embedding for a masked
    # single-word input when the hidden layer is very narrow, and zero rows
    # cannot be normalized
    base = dict(
        dropout=0.0,
        embed_dim=8,
        branch_hidden=16,
        app_out=6,
        spatial_hidden=7,
        spatial_out=6,
        synth_subjects=5,
        synth_predicates=5,
        synth_objects=5,
        synth_cluster_size=3,
        synth_families=4,
        synth_train_pairs=4,
        synth_test_pairs=1,
        synth_heldout=0,
        synth_appearance_dim=12,
    )
    base.update(overrides)
    return desk_config(**base)


def test_criterion_1_gradient_correctness():
    t0 = time.time()
    worst_branch = 0.0
    worst_analogy = 0.0
    for seed in range(20):
        kind = _BRANCH_CYCLE[seed % len(_BRANCH_CYCLE)]
        cfg = _fd_config(branches=kind)
        train, _, table, _ = synth_generate(cfg, seed)
        rng = np.random.default_rng(100 + seed)
        batch = train.pairs.take(rng.choice(len(train.pairs), size=10, replace=False))

        model = build_model(cfg, train, table, seed)
        _, grads = joint_loss(model, batch, kinds=(kind,))
        named = trainable(model, 1)
        numeric = finite_diff_grad(
            lambda: joint_loss(model, batch, kinds=(kind,))[0], [a for _, a in named]
        )
        analytic = [grads.get(n, np.zeros_like(a)) for n, a in named]
        worst_branch = max(worst_branch, max_relative_error(analytic, numeric))

        gkind = _GAMMA_CYCLE[seed % len(_GAMMA_CYCLE)]
        cfg_vp = _fd_config(branches="vp")
        model_vp = build_model(cfg_vp, train, table, seed)
        gamma = gamma_init(dataclasses.replace(cfg_vp, gamma=gkind), seed)
        observed = model_vp.observed
        targets = encode(model_vp.dims, sorted({t for row in row_triplets(batch) for t in row}))[:5]
        # three sources per target with unequal weights, so the check covers A.T
        shape = (len(targets), 3)
        q = (targets, observed[rng.integers(len(observed), size=shape)], rng.uniform(0.1, 1.0, shape))
        x = branch_inputs(model_vp, batch, ("vp",))[0]["vp"]
        _, agrads = analogy_loss(model_vp, gamma, batch, x, *q)
        named_a = [(n, a) for n, a in trainable(model_vp, 2, gamma) if ".f_w." not in n]
        numeric_a = finite_diff_grad(
            lambda: analogy_loss(model_vp, gamma, batch, x, *q)[0], [a for _, a in named_a]
        )
        analytic_a = [agrads.get(n, np.zeros_like(a)) for n, a in named_a]
        worst_analogy = max(worst_analogy, max_relative_error(analytic_a, numeric_a))
    elapsed = time.time() - t0
    ok = worst_branch < 1e-5 and worst_analogy < 1e-5 and elapsed < 60.0
    _report(
        1,
        "gradient correctness",
        ok,
        f"branch {worst_branch:.2e}, analogy {worst_analogy:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. analogy identity
# ---------------------------------------------------------------------------


def test_criterion_2_analogy_identity():
    cfg = desk_config(k=1, dropout=0.0)
    train, _, table, _ = synth_generate(cfg, seed=0)
    model = build_model(cfg, train, table, seed=0)
    probes = model.observed[:6]

    bitwise = True
    for gkind in ("linear", "deep"):
        gamma = gamma_init(dataclasses.replace(cfg, gamma=gkind), 1)
        corr, _ = gamma_forward(gamma, gamma_input_matrix(model, probes, probes))
        bitwise = bitwise and bool(np.all(corr == 0.0))

    worst = 0.0
    for gkind in ("absent", "zero", "linear", "deep"):
        gamma = gamma_init(dataclasses.replace(cfg, gamma=gkind), 1)
        for t in probes:
            direct = embed_language_batch(model, "vp", [t])[0]
            transferred = transfer_embedding(model, gamma, [t], [t])[0]
            worst = max(worst, float(np.max(np.abs(transferred - direct))))
    ok = bitwise and worst <= 1e-12
    _report(2, "analogy identity", ok, f"self-transfer err {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. gradient-flow restriction
# ---------------------------------------------------------------------------


def test_criterion_3_gradient_flow_restriction():
    cfg = desk_config(dropout=0.0)
    train, _, table, _ = synth_generate(cfg, seed=1)
    model = build_model(cfg, train, table, seed=1)
    gamma = gamma_init(cfg, 1)

    rng = np.random.default_rng(7)
    batch = train.pairs.take(rng.choice(len(train.pairs), size=16, replace=False))
    observed = model.observed
    targets = encode(model.dims, sorted({t for row in row_triplets(batch) for t in row}))
    shape = (len(targets), cfg.k)
    q = (targets, observed[rng.integers(len(observed), size=shape)], rng.uniform(0.1, 1.0, shape))
    x = branch_inputs(model, batch, ("vp",))[0]["vp"]
    _, grads = analogy_loss(model, gamma, batch, x, *q)

    named_only = all(n.startswith(("gamma.", "branch.vp.f_v.")) for n in grads)

    language = [
        (n, a) for n, a in named_parameters(model) if ".f_w." in n or n.startswith("words.")
    ]
    all_zero = all(np.all(grads.get(n, 0.0) == 0.0) for n, _ in language)

    # an optimizer step along the analogy gradient must leave the language
    # projection bit-for-bit untouched even though it sits in the stage-2
    # parameter set
    named2 = trainable(model, 2, gamma)
    snapshot = {n: a.copy() for n, a in named2 if ".f_w." in n}
    opt = adam_init([a for _, a in named2], lr=0.05)
    adam_update(opt, named2, grads)
    frozen = all(np.array_equal(a, snapshot[n]) for n, a in named2 if n in snapshot)

    ok = named_only and all_zero and frozen and len(snapshot) > 0
    _report(3, "language-side gradients are exactly zero", ok)


# ---------------------------------------------------------------------------
# 4. AP oracle equivalence
# ---------------------------------------------------------------------------


def _iou_ref(a: BoundingBox, b: BoundingBox) -> float:
    ix = max(0.0, min(a.x_max, b.x_max) - max(a.x_min, b.x_min))
    iy = max(0.0, min(a.y_max, b.y_max) - max(a.y_min, b.y_min))
    inter = ix * iy
    area_a = (a.x_max - a.x_min) * (a.y_max - a.y_min)
    area_b = (b.x_max - b.x_min) * (b.y_max - b.y_min)
    return inter / (area_a + area_b - inter)


def _brute_ap(dets, gts, tau):
    """dets and gts are (image_id, sub box, obj box) rows, dets in rank order."""
    taken = [False] * len(gts)
    flags = []
    for d_img, d_sub, d_obj in dets:
        best, best_q = None, tau
        for gi, (g_img, g_sub, g_obj) in enumerate(gts):
            if taken[gi] or g_img != d_img:
                continue
            q = min(_iou_ref(d_sub, g_sub), _iou_ref(d_obj, g_obj))
            if q >= tau and (best is None or q > best_q):
                best, best_q = gi, q
        if best is None:
            flags.append(False)
        else:
            taken[best] = True
            flags.append(True)
    if not gts:
        return 0.0
    total = 0.0
    for r in range(1, len(flags) + 1):
        if flags[r - 1]:
            total += sum(flags[:r]) / r
    return total / len(gts)


def _rand_box(rng) -> BoundingBox:
    x, y = rng.uniform(0.0, 60.0, size=2)
    w, h = rng.uniform(4.0, 30.0, size=2)
    return BoundingBox(x, y, x + w, y + h)


def _jitter(box, rng) -> BoundingBox:
    dx, dy = rng.uniform(-4.0, 4.0, size=2)
    return BoundingBox(box.x_min + dx, box.y_min + dy, box.x_max + dx, box.y_max + dy)


def test_criterion_4_ap_oracle_equivalence():
    unit = np.array([0.0, 0.0, 10.0, 10.0])
    third = iou(unit, np.array([5.0, 0.0, 15.0, 10.0]))
    hand_ok = (
        abs(third - 1.0 / 3.0) < 1e-12
        and iou(unit, unit) == 1.0
        and iou(unit, np.array([20.0, 20.0, 30.0, 30.0])) == 0.0
    )

    rng = np.random.default_rng(2024)
    query = Triplet(0, 0, 0)
    mismatches = 0
    for case in range(200):
        tau = 0.5 if case % 2 == 0 else 0.3
        n_img = int(rng.integers(1, 4))
        gts = [
            (int(rng.integers(n_img)), _rand_box(rng), _rand_box(rng))
            for _ in range(int(rng.integers(0, 9)))
        ]
        ndet = int(rng.integers(1, 21))
        scores = np.sort(rng.uniform(0.01, 0.99, size=ndet))[::-1]
        dets = []
        for i in range(ndet):
            img = int(rng.integers(n_img))
            if gts and rng.uniform() < 0.5:
                g_img, g_sub, g_obj = gts[int(rng.integers(len(gts)))]
                img, sub, obj = g_img, _jitter(g_sub, rng), _jitter(g_obj, rng)
            else:
                sub, obj = _rand_box(rng), _rand_box(rng)
            dets.append((img, sub, obj))
        got = average_precision(query, box_table(dets), scores, box_table(gts), MatchPolicy(tau))
        want = _brute_ap(dets, gts, tau)
        if got.ap != want or got.npos != len(gts) or got.ndet != ndet:
            mismatches += 1
    ok = hand_ok and mismatches == 0
    _report(4, "AP equals brute force", ok, f"{mismatches} mismatches in 200 cases")


# ---------------------------------------------------------------------------
# 5. transfer-variant ordering on the default benchmark
# ---------------------------------------------------------------------------


TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


@pytest.fixture(scope="module")
def claims():
    """``tools/claims.py``'s rows for seeds 0-2, measured once in this
    process, and the seconds the three seeds took."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(TOOLS)
        measure = importlib.import_module("claims").measure
    t0 = time.time()
    per_seed = [measure(seed) for seed in (0, 1, 2)]
    return per_seed, time.time() - t0


def _medians(per_seed, keys):
    return {k: statistics.median(row[k] for row in per_seed) for k in keys}


def test_criterion_5_transfer_variant_ordering(claims):
    per_seed, elapsed = claims
    med = _medians(per_seed, ("absent", "zero", "linear", "deep"))
    gap = med["zero"] - med["absent"]
    ok = (
        med["deep"] >= med["linear"] >= med["zero"]
        and gap >= 0.05
        and elapsed < 300.0
    )
    detail = (
        f"deep {med['deep']:.3f} >= linear {med['linear']:.3f} >= zero {med['zero']:.3f}"
        f" > absent {med['absent']:.3f}, gap {gap:.3f}, {elapsed:.0f}s"
    )
    _report(5, "transfer-variant ordering", ok, detail)


# ---------------------------------------------------------------------------
# 6. branch-ablation ordering on seen triplets
# ---------------------------------------------------------------------------


def test_criterion_6_branch_ablation_ordering(claims):
    med = _medians(claims[0], ("seen1", "seen_spo", "seen_so"))
    ok = med["seen1"] >= med["seen_spo"] > med["seen_so"]
    detail = (
        f"full {med['seen1']:.3f} >= s+o+p {med['seen_spo']:.3f}"
        f" > s+o {med['seen_so']:.3f}"
    )
    _report(6, "branch-ablation ordering", ok, detail)


# ---------------------------------------------------------------------------
# 7. batch composition
# ---------------------------------------------------------------------------


def test_criterion_7_batch_composition():
    cfg = validate(RunConfig())
    train, _, _, _ = synth_generate(cfg, seed=0)
    rng = rng_stream(0, "stage1")
    n_batches = 0
    counts_ok = True
    combos_ok = True
    for batch in batch_iter(train, 16, 48, rng):
        n_batches += 1
        labelled = (np.diff(batch.pos_offsets) > 0).tolist()
        cats = list(zip(batch.scat.tolist(), batch.ocat.tolist()))
        pos = [c for c, lab in zip(cats, labelled) if lab]
        neg = [c for c, lab in zip(cats, labelled) if not lab]
        counts_ok = counts_ok and len(pos) == 16 and len(neg) == 48
        combos = set(pos)
        combos_ok = combos_ok and all(c in combos for c in neg)
    ok = counts_ok and combos_ok and n_batches > 0
    _report(7, "16+48 category-matched batches", ok, f"{n_batches} batches")


# ---------------------------------------------------------------------------
# 8. normalization and range
# ---------------------------------------------------------------------------


def test_criterion_8_normalization_and_range():
    cfg = desk_config(branches="s,o,p,vp,sp,po", stage1_epochs=2)
    train, test, table, _ = synth_generate(cfg, seed=0)
    model = build_model(cfg, train, table, seed=0)
    train_stage1(model, train, seed=0)
    observed = model.observed

    worst_norm = 0.0
    for kind in model.active_kinds:
        mat = embed_language_batch(model, kind, observed)
        worst_norm = max(worst_norm, float(np.max(np.abs(np.linalg.norm(mat, axis=1) - 1.0))))

    smin, smax = 1.0, 0.0
    for u in observed[:8]:
        scores = score_pairs(model, u, test.pairs)
        smin, smax = min(smin, float(scores.min())), max(smax, float(scores.max()))

    g = similarity_many(model, observed, observed)
    ok = (
        worst_norm <= 1e-12
        and 0.0 < smin
        and smax < 1.0
        and float(g.min()) >= 0.0
        and float(g.max()) <= 1.0
    )
    detail = f"norm err {worst_norm:.1e}, scores in ({smin:.2e}, {1 - smax:.2e}), G span [{g.min():.2f}, {g.max():.2f}]"
    _report(8, "unit norms, score and G ranges", ok, detail)


# ---------------------------------------------------------------------------
# 9. reproducibility
# ---------------------------------------------------------------------------


def test_criterion_9_reproducibility(tmp_path):
    root = str(tmp_path)
    cfg_path = os.path.join(root, "base.cfg")
    write_config(desk_config(stage1_epochs=2, stage2_epochs=1, seed=0), cfg_path)
    out = os.path.join(root, "run")
    assert main(["synth", "--config", cfg_path, "--out", out]) == 0
    eff = os.path.join(out, "effective.cfg")
    assert main(["train", "--config", eff, "--out", out]) == 0
    ckpt = os.path.join(out, "model.ckpt")
    with open(ckpt, "rb") as fh:
        first = fh.read()
    assert main(["train", "--config", eff, "--out", out]) == 0
    with open(ckpt, "rb") as fh:
        second = fh.read()
    identical = first == second

    model, gamma, _ = load_checkpoint(ckpt)
    again = os.path.join(root, "again.ckpt")
    save_checkpoint(again, model, gamma, seed=0)
    model2, _, _ = load_checkpoint(again)
    from relembed.data import load_dataset

    test = load_dataset(os.path.join(out, "test.ds"))
    probe = sorted(model.observed)[0]
    bitwise = bool(
        np.array_equal(
            score_pairs(model, probe, test.pairs), score_pairs(model2, probe, test.pairs)
        )
    )
    ok = identical and bitwise
    _report(9, "byte-identical training, bit-stable scores", ok)
