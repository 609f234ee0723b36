"""Per-layer tracing of relembed from outside the package.

``Tracer.install`` replaces each function named in ``TRACED`` by a wrapper
that records a span (name, start, end, parent, run id) around every call,
and rebinds every module-level name in the relembed modules that points at
the original function; ``Tracer.restore`` puts the originals back. Nothing
under ``src/`` is edited. Spans stay in memory until ``write_spans``.

Generator functions (``model.batch_iter``) get one span per resumption that
yields an item, so the consumer's loop body is never counted in them.

A layer is a relembed module. Small functions called once per pair or per
element (``spatial_features``, ``iou``, ``sigmoid``, ``token_to_file``) are
deliberately not wrapped: a wrapper costs about a microsecond, which would
rival their own cost; their time stays in their caller's self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import statistics
import sys
import time
import types

PACKAGE = "relembed"

# layer -> public functions wrapped in it
TRACED = {
    "data": ("synth_generate", "write_dataset", "load_dataset", "load_word_table", "load_queries"),
    "features": ("pair_arrays", "visual_forward", "visual_backward", "language_matrix"),
    "numkit": ("linear_forward", "linear_backward", "mlp_forward", "mlp_backward", "adam_step"),
    "model": (
        "build_model",
        "branch_universe",
        "embed_language_batch",
        "joint_loss",
        "pair_embeddings",
        "score_from_embeddings",
        "score_pairs",
        "batch_iter",
        "train_stage1",
    ),
    "analogy": (
        "similarity_many",
        "select_sources",
        "build_source_sets",
        "sample_q_pairs",
        "transfer_embedding",
        "analogy_loss",
        "train_stage2",
    ),
    "retrieval": (
        "ground_truth_for",
        "rank_candidates",
        "match_detections",
        "average_precision",
        "write_results",
    ),
    "checkpoint": ("save_checkpoint", "load_checkpoint"),
    "cli": ("main", "cmd_synth", "cmd_train", "cmd_eval"),
}


def _rows(x) -> int:
    """Rows of a batch whose last axis is the feature axis (1 for a vector)."""
    return x.size // x.shape[-1] if x.shape[-1] else 0


def linear_forward_gflop(lin, x) -> float:
    """One product x @ w.T: 2 flops per multiply-add."""
    return 2.0 * _rows(x) * lin.w.shape[1] * lin.w.shape[0] / 1e9


def linear_backward_gflop(lin, cache, grad_out) -> float:
    """Two products of the forward's size: g.T @ x and g @ w."""
    return 4.0 * _rows(cache[0]) * lin.w.shape[1] * lin.w.shape[0] / 1e9


def match_comparisons(detections, ground_truth, policy=None) -> int:
    """Detection/ground-truth pairs the greedy matcher visits: ndet * npos."""
    return len(detections) * len(ground_truth)


# span name -> (counter name, fn(result, *args, **kwargs) -> amount)
COUNTERS = {
    "numkit.adam_step": ("entries", lambda res, state, params, grads: sum(p.size for p in params)),
    "numkit.linear_forward": ("gflop", lambda res, *a, **k: linear_forward_gflop(*a, **k)),
    "numkit.linear_backward": ("gflop", lambda res, *a, **k: linear_backward_gflop(*a, **k)),
    "features.pair_arrays": ("pairs", lambda res, pairs, *a, **k: len(pairs)),
    "features.language_matrix": ("rows", lambda res, triplets, *a, **k: len(triplets)),
    "model.pair_embeddings": ("pairs", lambda res, model, pairs: len(pairs)),
    "retrieval.match_detections": ("comparisons", lambda res, *a, **k: match_comparisons(*a, **k)),
    "data.load_dataset": ("pairs", lambda res, path: len(res.pairs)),
    "checkpoint.save_checkpoint": ("bytes", lambda res, path, *a, **k: os.path.getsize(path)),
}


class Tracer:
    """Span recorder plus the wrapper install/restore around relembed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1, run id]
        self.counts: dict[tuple[str, str], float] = {}
        self._stack: list[int] = []
        self._runs = 0
        self._saved: list[tuple[types.ModuleType, str, object]] = []
        self.active = True

    # -- spans --------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        if parent < 0:
            self._runs += 1  # each top-level call is one run
        self.spans.append([name, self.clock(), 0.0, parent, self._runs])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int):
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    def cancel(self, idx: int):
        """End a span that did no work of its own kind; drop it if childless."""
        if idx == len(self.spans) - 1:
            self.spans.pop()
            self._stack.pop()
        else:
            self.end(idx)

    def count(self, name: str, counter: str, amount: float):
        key = (name, counter)
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- wrappers -----------------------------------------------------------

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                if not tracer.active:
                    yield from fn(*args, **kwargs)
                    return
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        idx = tracer.begin(name)
                        try:
                            item = next(inner)
                        except StopIteration:
                            tracer.cancel(idx)
                            return
                        except BaseException:
                            tracer.end(idx)
                            raise
                        tracer.end(idx)
                        yield item
                finally:
                    inner.close()

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if counter is not None:
                tracer.count(name, counter[0], counter[1](result, *args, **kwargs))
            return result

        return traced

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run the originals and record nothing."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def modules(self) -> list[types.ModuleType]:
        """The package and every submodule of it that is loaded."""
        for layer in TRACED:
            importlib.import_module(f"{PACKAGE}.{layer}")
        return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == PACKAGE]

    def install(self):
        """Rebind every module-level name bound to a traced function."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = self.modules()
        wrappers = {}
        for layer, names in TRACED.items():
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for fname in names:
                fn = getattr(mod, fname)
                if not isinstance(fn, types.FunctionType) or fn.__module__ != mod.__name__:
                    raise TypeError(f"{layer}.{fname} is not a function defined there")
                wrappers[id(fn)] = (fn, self.wrap(f"{layer}.{fname}", fn))
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def restore(self):
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def snapshot(self) -> dict[tuple[str, str], object]:
        """Every module-level binding of the traced modules, for comparison."""
        return {(m.__name__, attr): v for m in self.modules() for attr, v in vars(m).items()}

    # -- reduction ----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s, self_s, ms_p50 and its counters.

        Self time is a span's duration minus its direct children's; total
        time counts only spans with no ancestor of the same name, so a
        recursive call is not counted twice.
        """
        if self._stack:
            raise RuntimeError("summary taken while spans are open")
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        durations: dict[str, list[float]] = {}
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent, _) in enumerate(spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            dur = end - start
            row["calls"] += 1
            row["self_s"] += dur - child_time[i]
            if not self._has_ancestor(i, name):
                row["total_s"] += dur
            durations.setdefault(name, []).append(dur)
        for name, durs in durations.items():
            out[name]["ms_p50"] = statistics.median(durs) * 1e3
        for (name, counter), amount in self.counts.items():
            out[name][counter] = amount
        return out

    def _has_ancestor(self, i: int, name: str) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def descendants(self, ancestor: str, name: str) -> int:
        """Spans called ``name`` that have an ancestor called ``ancestor``."""
        return sum(
            1 for i, span in enumerate(self.spans) if span[0] == name and self._has_ancestor(i, ancestor)
        )

    def write_spans(self, path: str):
        """Tab-separated: index, name, start, end, parent, run id."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\trun\n")
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start - t0:.9f}\t{end - t0:.9f}\t{parent}\t{run}\n")
