"""Run the whole relembed pipeline on one source tree and digest every file
it writes, so two trees can be compared byte for byte.

    python tools/output_digests.py SRC OUT [key=value ...]

SRC is the ``src`` directory of the tree to run; OUT is a new or empty
directory. The key=value arguments become the run's config file
(``OUT/base.cfg``); with none, every key keeps its default. Each command
runs as ``python -m relembed.cli`` in its own subprocess, with
``PYTHONPATH=SRC``, BLAS pinned to one thread and OUT as the working
directory. Every path is relative to OUT, so the effective configs do not
depend on where OUT is:

    synth                                         -> data/
    train                                         -> train/ (checkpoint in data/)
    eval --mode direct --top 20                   -> eval-direct/
    eval --mode transfer --top 20                 -> eval-transfer/
    a copy of the checkpoint, normalized          -> data/model-norm.ckpt
    eval --mode transfer --top 20 of that copy    -> eval-transfer-normalized/
    inspect embeddings                            -> inspect/embeddings.txt
    inspect sources <first held-out query>        -> inspect/sources.txt

Eval reads ``normalize_aggregation`` from the checkpoint, so the copy is
the trained checkpoint loaded and saved again by SRC's relembed (in a
subprocess like the commands) with only that key set to true; the
normalized eval's config sets the key too.

Then it writes ``OUT/SHA256SUMS``: one ``<sha256>  <path>`` line per file
it produced, sorted by relative path (the format ``sha256sum -c`` reads).
Standard library only; any failing command stops the run with exit 1.

    python tools/output_digests.py --compare OUT_A OUT_B

compares two finished runs. Every path whose SHA-256 differs between the
two ``SHA256SUMS`` is read as text and compared token by token (tokens are
split on whitespace). A numeric token is a real as relembed writes it
(``repr`` of a float: it has a point, an exponent, or is inf or nan); every
other token, integers included (ids, ranks, counts), must be equal. It
prints, per differing file and over all of them, how many numeric tokens
differ and the largest absolute and relative difference among them. It
exits 1 when a path is on one side only, a file is not text, the token
counts differ, a non-numeric token differs or a difference is not finite
(inf or nan on one side); finite numeric differences alone exit 0, and the
report gives their size.
"""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# the trained checkpoint with normalize_aggregation set: argv[1] -> argv[2]
NORMALIZE = """\
import sys
from relembed.checkpoint import load_checkpoint, save_checkpoint
model, gamma, seed = load_checkpoint(sys.argv[1])
model.cfg.normalize_aggregation = True
save_checkpoint(sys.argv[2], model, gamma, seed)
"""


def run(src: str, out: str, args: list[str], stdout_path: str | None = None, script: str | None = None):
    """``relembed ARGS``, or the Python source ``script`` with ARGS, importing SRC's relembed."""
    env = dict(os.environ, PYTHONPATH=src, **{var: "1" for var in THREAD_VARS})
    argv = [sys.executable, *(("-c", script) if script else ("-m", "relembed.cli")), *args]
    done = subprocess.run(argv, cwd=out, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        name = "script" if script else "relembed"
        sys.exit(f"output_digests: {name} {' '.join(args)} exited {done.returncode}\n{done.stderr}")
    if stdout_path is not None:
        os.makedirs(os.path.dirname(os.path.join(out, stdout_path)), exist_ok=True)
        with open(os.path.join(out, stdout_path), "w") as fh:
            fh.write(done.stdout)


def with_key(config_text: str, key: str, value: str) -> str:
    """The config text with ``key`` set to ``value``."""
    lines = [line for line in config_text.splitlines() if line.partition("=")[0].strip() != key]
    return "\n".join(lines + [f"{key} = {value}"]) + "\n"


def digests(out: str) -> list[str]:
    lines = []
    for root, _, files in os.walk(out):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            lines.append((os.path.relpath(path, out).replace(os.sep, "/"), digest))
    return [f"{digest}  {rel}\n" for rel, digest in sorted(lines)]


def real(token: str) -> float | None:
    """The value of a numeric token, None for any other token."""
    try:
        int(token)
        return None  # an integer is an id, a rank or a count
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        return None


def compare_tokens(a: str, b: str) -> tuple[int, float, float, str | None]:
    """(numeric tokens that differ, largest absolute and relative difference,
    the first other difference or None) between two texts."""
    ta, tb = a.split(), b.split()
    if len(ta) != len(tb):
        return 0, 0.0, 0.0, f"{len(ta)} tokens against {len(tb)}"
    count, most_abs, most_rel = 0, 0.0, 0.0
    for i, (x, y) in enumerate(zip(ta, tb)):
        if x == y:
            continue
        fx, fy = real(x), real(y)
        diff = None if fx is None or fy is None else abs(fx - fy)
        if diff is None or not diff < math.inf:  # a word, an integer, or inf or nan on one side
            return count, most_abs, most_rel, f"token {i + 1}: {x!r} against {y!r}"
        count += 1
        most_abs = max(most_abs, diff)
        most_rel = max(most_rel, diff / max(abs(fx), abs(fy)) if diff else 0.0)
    return count, most_abs, most_rel, None


def read_sums(out: str) -> dict[str, str]:
    """Relative path -> SHA-256 from ``OUT/SHA256SUMS``."""
    with open(os.path.join(out, "SHA256SUMS")) as fh:
        return {path: digest for digest, path in (line.rstrip("\n").split("  ", 1) for line in fh)}


def read_text(out: str, path: str) -> str:
    with open(os.path.join(out, path), encoding="utf-8") as fh:
        return fh.read()


def compare(out_a: str, out_b: str) -> int:
    """Print the differences between two runs' files; 1 when any is not numeric."""
    sums_a, sums_b = read_sums(out_a), read_sums(out_b)
    failed = False
    for path in sorted(sums_a.keys() ^ sums_b.keys()):
        print(f"{path}: only in {out_a if path in sums_a else out_b}")
        failed = True
    total, most_abs, most_rel = 0, 0.0, 0.0
    differ = [path for path in sorted(sums_a.keys() & sums_b.keys()) if sums_a[path] != sums_b[path]]
    for path in differ:
        try:
            count, file_abs, file_rel, other = compare_tokens(*(read_text(out, path) for out in (out_a, out_b)))
        except UnicodeDecodeError:
            other = "differs and is not text"
        if other is not None:
            print(f"{path}: {other}")
            failed = True
            continue
        print(f"{path}: {count} numeric tokens differ, largest by {file_abs:.3g} absolute, {file_rel:.3g} relative")
        total, most_abs, most_rel = total + count, max(most_abs, file_abs), max(most_rel, file_rel)
    print(
        f"{len(differ)} of {len(sums_a.keys() & sums_b.keys())} common files differ;"
        f" {total} numeric tokens differ, largest by {most_abs:.3g} absolute, {most_rel:.3g} relative;"
        f" other differences: {'yes' if failed else 'none'}"
    )
    return 1 if failed else 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["--compare"]:
        if len(argv) != 3:
            sys.exit(__doc__.split("\n\n")[-2])
        return compare(argv[1], argv[2])
    if len(argv) < 2 or any("=" not in kv for kv in argv[2:]):
        sys.exit(__doc__.split("\n\n")[1])
    src, out = os.path.abspath(argv[0]), argv[1]
    if os.path.isdir(out) and os.listdir(out):
        sys.exit(f"output_digests: {out} is not empty")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "base.cfg"), "w") as fh:
        for kv in argv[2:]:
            key, _, value = kv.partition("=")
            fh.write(f"{key.strip()} = {value.strip()}\n")

    run(src, out, ["synth", "--config", "base.cfg", "--out", "data"])
    run(src, out, ["train", "--config", "data/effective.cfg", "--out", "train"])
    trained = "train/effective.cfg"
    run(src, out, ["data/model.ckpt", "data/model-norm.ckpt"], script=NORMALIZE)
    with open(os.path.join(out, trained)) as fh:
        normalized = with_key(fh.read(), "normalize_aggregation", "true")
        normalized = with_key(normalized, "checkpoint", "data/model-norm.ckpt")
    with open(os.path.join(out, "normalized.cfg"), "w") as fh:
        fh.write(normalized)
    for mode, cfg, name in (
        ("direct", trained, "eval-direct"),
        ("transfer", trained, "eval-transfer"),
        ("transfer", "normalized.cfg", "eval-transfer-normalized"),
    ):
        run(src, out, ["eval", "--config", cfg, "--mode", mode, "--top", "20", "--out", name])
    run(src, out, ["inspect", "--config", trained, "embeddings"], "inspect/embeddings.txt")
    with open(os.path.join(out, "data", "heldout.txt")) as fh:
        query = fh.readline().split()
    run(src, out, ["inspect", "--config", trained, "sources", *query], "inspect/sources.txt")

    lines = digests(out)
    with open(os.path.join(out, "SHA256SUMS"), "w") as fh:
        fh.writelines(lines)
    print(f"{len(lines)} files digested into {os.path.join(out, 'SHA256SUMS')}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
