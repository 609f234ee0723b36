"""Tests for ``tools/output_digests.py``: the digest file and ``--compare``
on small canned output trees."""

import importlib
import os

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


@pytest.fixture
def output_digests(monkeypatch):
    monkeypatch.syspath_prepend(TOOLS)
    return importlib.import_module("output_digests")


BASE = {
    "eval/results.txt": "query s p o ap 0.5 npos 2 ndet 9\nmap 0.5\n",
    "eval/top_detections.txt": "query s p o rank 1 pair 7 image 3 score 0.9000000000000001\n"
    "query s p o rank 2 pair 4 image 3 score 0.25\n",
    "data/model.ckpt": "relembd1",
}


def tree(tool, root, files):
    """A run directory holding ``files`` (path -> text, or bytes) and their SHA256SUMS."""
    os.makedirs(root)
    for path, content in files.items():
        full = os.path.join(root, path)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        with open(full, "wb") as fh:
            fh.write(content if isinstance(content, bytes) else content.encode())
    lines = tool.digests(root)
    with open(os.path.join(root, "SHA256SUMS"), "w") as fh:
        fh.writelines(lines)
    return str(root)


def compare(tool, tmp_path, capsys, changes):
    a = tree(tool, tmp_path / "a", BASE)
    b = tree(tool, tmp_path / "b", {k: v for k, v in {**BASE, **changes}.items() if v is not None})
    code = tool.compare(a, b)
    return code, capsys.readouterr().out.splitlines()


def test_digests_list_every_file_sorted_by_path(output_digests, tmp_path):
    root = tree(output_digests, tmp_path / "a", BASE)
    with open(os.path.join(root, "SHA256SUMS")) as fh:
        paths = [line.split("  ")[1].rstrip("\n") for line in fh]
    assert paths == sorted(BASE)
    assert output_digests.read_sums(root).keys() == set(BASE)


def test_identical_trees_compare_equal(output_digests, tmp_path, capsys):
    code, lines = compare(output_digests, tmp_path, capsys, {})
    assert code == 0
    assert lines == [
        "0 of 3 common files differ; 0 numeric tokens differ, largest by 0 absolute, 0 relative;"
        " other differences: none"
    ]


def test_last_digit_scores_are_reported_not_refused(output_digests, tmp_path, capsys):
    top = BASE["eval/top_detections.txt"].replace("0.9000000000000001", "0.9000000000000002")
    top = top.replace("0.25", "0.25000000000000006")
    code, lines = compare(output_digests, tmp_path, capsys, {"eval/top_detections.txt": top})
    assert code == 0
    assert lines[0] == "eval/top_detections.txt: 2 numeric tokens differ, largest by 1.11e-16 absolute, 2.22e-16 relative"
    assert lines[-1].startswith("1 of 3 common files differ; 2 numeric tokens differ, largest by 1.11e-16 absolute,")
    assert lines[-1].endswith("other differences: none")


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"eval/results.txt": BASE["eval/results.txt"].replace("s p o", "s q o")},
         "eval/results.txt: token 3: 'p' against 'q'"),
        ({"eval/top_detections.txt": BASE["eval/top_detections.txt"].replace("pair 7", "pair 8")},
         "eval/top_detections.txt: token 8: '7' against '8'"),
        ({"eval/results.txt": BASE["eval/results.txt"] + "extra\n"},
         "eval/results.txt: 12 tokens against 13"),
        ({"eval/results.txt": BASE["eval/results.txt"].replace("map 0.5", "map nan")},
         "eval/results.txt: token 12: '0.5' against 'nan'"),
        ({"data/model.ckpt": b"relembd1\xff\x00"}, "data/model.ckpt: differs and is not text"),
        ({"inspect/sources.txt": "x\n"}, None),
        ({"data/model.ckpt": None}, None),
    ],
    ids=("word", "integer", "token_count", "nan", "binary", "only_in_b", "only_in_a"),
)
def test_any_other_difference_exits_1(output_digests, tmp_path, capsys, changes, message):
    code, lines = compare(output_digests, tmp_path, capsys, changes)
    assert code == 1
    assert lines[-1].endswith("other differences: yes")
    if message is None:
        [path] = changes
        side = "b" if changes[path] is not None else "a"
        assert lines[0] == f"{path}: only in {tmp_path / side}"
    else:
        assert lines[0] == message


def test_compare_from_the_command_line(output_digests, tmp_path, capsys):
    a = tree(output_digests, tmp_path / "a", BASE)
    b = tree(output_digests, tmp_path / "b", {**BASE, "eval/results.txt": "map 0.4\n"})
    assert output_digests.main(["--compare", a, a]) == 0
    assert output_digests.main(["--compare", a, b]) == 1
    with pytest.raises(SystemExit) as stop:
        output_digests.main(["--compare", a])
    assert "--compare OUT_A OUT_B" in str(stop.value)
