"""Tests of the benchmark itself, on a desk-sized workload (well under 30 s)."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import bench_pipeline  # noqa: E402
import bench_trace  # noqa: E402
from bench_trace import Tracer  # noqa: E402

from relembed import analogy, features, model, numkit  # noqa: E402
from relembed.config import RunConfig, validate  # noqa: E402
from relembed.data import synth_generate  # noqa: E402

# same small world as tests/conftest.py::desk_config, with short training
DESK = dict(
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
    stage1_epochs=2,
    stage2_epochs=1,
    k=1,
)


class FakeClock:
    """Reads 0, 1, 2, ... so every span duration is a count of clock reads."""

    def __init__(self):
        self.now = -1.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_install_rebinds_every_binding_and_restore_puts_them_back():
    original = numkit.mlp_forward
    tracer = Tracer()
    before = tracer.snapshot()
    tracer.install()
    try:
        wrapped = numkit.mlp_forward
        assert wrapped is not original and wrapped.__wrapped__ is original
        for mod in (features, model, analogy):
            assert mod.mlp_forward is wrapped
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.restore()
    after = tracer.snapshot()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert numkit.mlp_forward is original


def test_self_time_of_nested_and_recursive_spans():
    tracer = Tracer(clock=FakeClock())
    outer = tracer.begin("outer")  # t=0
    a = tracer.begin("a")  # 1
    b = tracer.begin("b")  # 2
    tracer.end(b)  # 3
    tracer.end(a)  # 4
    inner = tracer.begin("outer")  # 5, recursive
    tracer.end(inner)  # 6
    tracer.end(outer)  # 7
    s = tracer.summary()
    assert s["outer"]["total_s"] == 7  # the recursive call is inside
    assert s["outer"]["self_s"] == (7 - 3 - 1) + 1
    assert s["a"]["self_s"] == 2 and s["a"]["total_s"] == 3
    assert s["b"]["self_s"] == 1
    for row in s.values():
        assert row["self_s"] <= row["total_s"]
    assert [span[3] for span in tracer.spans] == [-1, 0, 1, 0]
    assert {span[4] for span in tracer.spans} == {1}
    tracer.end(tracer.begin("next"))
    assert tracer.spans[-1][4] == 2  # a new top-level span is a new run


def test_generator_wrapper_yields_the_same_batches_and_skips_the_loop_body():
    cfg = validate(RunConfig(**DESK))
    train, _, _, _ = synth_generate(cfg.synth_config(), seed=0)
    plain = [[p.pair_id for p in batch] for batch in model.batch_iter(train, 4, 12, numkit.rng_stream(0, "stage1"))]

    tracer = Tracer(clock=FakeClock())
    wrapped = tracer.wrap("model.batch_iter", model.batch_iter)
    outer = tracer.begin("outer")
    seen = []
    for batch in wrapped(train, 4, 12, numkit.rng_stream(0, "stage1")):
        tracer.end(tracer.begin("body"))
        seen.append([p.pair_id for p in batch])
    tracer.end(outer)

    assert seen == plain
    iters = [s for s in tracer.spans if s[0] == "model.batch_iter"]
    bodies = [s for s in tracer.spans if s[0] == "body"]
    assert len(iters) == len(plain)  # the exhausting resumption is not a batch
    assert all(s[3] == outer for s in iters + bodies)  # bodies are not inside
    assert all(s[2] - s[1] == 1 for s in iters)


def test_flop_and_comparison_counts():
    lin = numkit.Linear(np.zeros((5, 3)), np.zeros(5))
    x = np.zeros((4, 3))
    assert bench_trace.linear_forward_gflop(lin, x) == 2 * 4 * 3 * 5 / 1e9
    assert bench_trace.linear_forward_gflop(lin, np.zeros(3)) == 2 * 3 * 5 / 1e9
    assert bench_trace.linear_backward_gflop(lin, (x,), np.zeros((4, 5))) == 4 * 4 * 3 * 5 / 1e9
    assert bench_trace.match_comparisons([object()] * 7, [object()] * 3) == 21

    tracer = Tracer()
    tracer.install()
    try:
        numkit.mlp_forward(numkit.Mlp(lin, numkit.Linear(np.zeros((2, 5)))), x)
    finally:
        tracer.restore()
    assert tracer.counts[("numkit.linear_forward", "gflop")] == pytest.approx(
        (2 * 4 * 3 * 5 + 2 * 4 * 5 * 2) / 1e9
    )
    names = [s[0] for s in tracer.spans]
    assert names == ["numkit.mlp_forward", "numkit.linear_forward", "numkit.linear_forward"]


@pytest.fixture()
def desk(monkeypatch, tmp_path):
    monkeypatch.setitem(bench_pipeline.WORKLOADS, "desk", DESK)
    pipe = bench_pipeline.Pipeline(str(tmp_path / "work"))
    pipe.write_base("desk", 0)
    return pipe


def test_measured_run_reports_every_end_to_end_metric(desk):
    metrics = bench_pipeline.measure(desk, seconds=0.0)
    assert metrics.keys() == bench_pipeline.END_TO_END.keys()
    assert desk.failed == 0 and not desk.problems
    # synth, train, the normalized eval, one round of synth and two evals,
    # synth again up to three; each eval also counts its queries
    assert desk.attempted == 3 + 1 + 3 * (1 + len(desk.queries))
    assert all(v > 0 for v in metrics.values())
    assert metrics["map_transfer_rel"] == desk.maps["transfer"] / desk.maps["direct"]
    assert len(desk.times["synth"]) == 3 and len(desk.times["eval_direct"]) == 1


def test_checks_keep_digests_not_the_test_set_or_the_inputs(desk):
    bench_pipeline.measure(desk, seconds=0.0)
    assert not hasattr(desk, "test")
    assert desk.ndet > 0 and len(desk.vocabularies) == 3
    assert all(len(v) == 64 for v in desk.synth_digests.values())
    assert all(len(v) == 64 for v in desk.first_results.values())


@pytest.mark.parametrize("traced_first", [False, True])
def test_traced_run_is_byte_identical_and_reports_every_layer_metric(desk, tmp_path, traced_first):
    spans = str(tmp_path / "spans.tsv")
    metrics = bench_pipeline.traced(desk, spans, traced_first)
    assert desk.failed == 0 and not desk.problems
    assert list(metrics) == list(bench_pipeline.PER_LAYER)
    assert metrics["model.train_stage1.steps"] > 0 and metrics["analogy.train_stage2.steps"] > 0
    # one pair_embeddings call per query and eval: three evals
    assert metrics["model.pair_embeddings.calls"] == 3 * len(desk.queries)
    assert metrics["data.load_dataset.pairs"] > 0
    with open(spans) as fh:
        assert fh.readline().split("\t")[:2] == ["index", "name"]


def test_output_checks_catch_a_wrong_results_file(desk):
    bench_pipeline.measure(desk, seconds=0.0)
    path = os.path.join(desk.run, "direct", "results.txt")
    with open(path) as fh:
        lines = fh.read().splitlines()
    good = bench_pipeline.check_results(path, desk.vocabularies, desk.ndet, desk.queries)
    assert good[1:] == (0, [])

    ndet = lines[0].split()[-1]
    bad_ndet = [lines[0][: -len(ndet)] + str(int(ndet) + 1)] + lines[1:]
    for text, bad in ((bad_ndet, 1), (lines[:-1] + ["map 0.5"], 0), (lines[1:], 1)):
        with open(path, "w") as fh:
            fh.write("\n".join(text) + "\n")
        _, n_bad, problems = bench_pipeline.check_results(path, desk.vocabularies, desk.ndet, desk.queries)
        assert n_bad == bad and problems

    assert desk.failed == 0
    with pytest.raises(bench_pipeline.Abort):
        desk.command(["eval", "--config", path + ".missing"])
    assert desk.failed == 1 and desk.problems


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    # every workload but cartesian, which runs by hand (see README.md)
    assert {w["name"] for w in spec["workloads"]} == bench_pipeline.WORKLOADS.keys() - {"cartesian"}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_pipeline.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench_pipeline.PER_LAYER


def test_run_without_the_source_tree_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "default", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""
