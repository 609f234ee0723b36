"""Run configuration: every knob of the pipeline in one flat key=value file.

Files hold one ``key = value`` per line; blank lines and ``#`` comments are
skipped. Unknown keys are rejected. ``emit`` writes a canonical form that
reparses to an equal config, and ``config_hash`` fingerprints it.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields

from .data import MOST_SIZE
from .features import BRANCH_KINDS

GAMMA_KINDS = ("absent", "zero", "linear", "deep")

# the smallest allowed value of every key bounded from below
LEAST = {
    "seed": 0, "embed_dim": 1, "branch_hidden": 1, "app_out": 1, "spatial_hidden": 1,
    "spatial_out": 1, "batch_size": 1, "stage1_epochs": 0, "stage2_epochs": 0,
    "k": 1, "analogy_weight": 0, "rare_threshold": 1, "synth_subjects": 1, "synth_predicates": 1,
    "synth_objects": 1, "synth_cluster_size": 1, "synth_families": 1,
    "synth_predicates_per_family": 1, "synth_train_pairs": 0, "synth_test_pairs": 0,
    "synth_heldout": 0, "synth_heldout_test_pairs": 0, "synth_appearance_dim": 1,
    "synth_noise": 0, "synth_word_noise": 0, "synth_negative_ratio": 0,
}
# the largest allowed value of every layer width, the batch size and the
# synthetic appearance width: MOST_SIZE (4096)
MOST = dict.fromkeys(
    ("embed_dim", "branch_hidden", "app_out", "spatial_hidden", "spatial_out", "batch_size",
     "synth_appearance_dim"),
    MOST_SIZE,
)

# the most rows a synthetic split may hold: synth_generate builds one Python
# row at a time, about 29,000 rows a second and 2 KB a row at the default
# appearance width, so a split at the ceiling takes about 10 s and 0.5 GB.
# validate bounds the default world's splits at 3,456 rows, wide's at 13,824
MOST_SPLIT_ROWS = 2**18


class ConfigError(ValueError):
    """Bad key, unparsable value, or inconsistent settings."""


@dataclass
class RunConfig:
    seed: int = 0

    # file locations (filled by the CLI, may stay empty for library use)
    train_data: str = ""
    test_data: str = ""
    word_table: str = ""
    queries: str = ""
    checkpoint: str = ""

    # model shape
    branches: str = "s,o,p,vp"
    embed_dim: int = 64
    branch_hidden: int = 64
    dropout: float = 0.5
    app_out: int = 300
    spatial_hidden: int = 400
    spatial_out: int = 400

    # optimization
    lr: float = 0.001
    batch_size: int = 64
    positive_fraction: float = 0.25
    stage1_epochs: int = 10
    stage2_epochs: int = 5
    vp_negatives: str = "observed"

    # analogy transfer
    gamma: str = "deep"
    k: int = 5
    alpha_s: float = 0.1
    alpha_p: float = 0.8
    alpha_o: float = 0.1
    analogy_weight: float = 1.0
    normalize_aggregation: bool = False
    rare_threshold: int = 10

    # evaluation
    iou_threshold: float = 0.5
    eval_mode: str = "direct"

    # synthetic benchmark
    synth_subjects: int = 6
    synth_predicates: int = 10
    synth_objects: int = 12
    synth_cluster_size: int = 3
    synth_families: int = 12
    synth_predicates_per_family: int = 2
    synth_train_pairs: int = 18
    synth_test_pairs: int = 4
    synth_heldout: int = 10
    synth_heldout_test_pairs: int = 24
    synth_appearance_dim: int = 20
    synth_noise: float = 0.05
    synth_word_noise: float = 0.06
    synth_negative_ratio: float = 1.0

    def branch_list(self) -> tuple[str, ...]:
        return tuple(b for b in self.branches.split(",") if b)

    def positives_per_batch(self) -> int:
        return round(self.batch_size * self.positive_fraction)

    def gamma_hidden_dim(self) -> int:
        """The hidden width of the deep Gamma."""
        return 3 * self.embed_dim

    def synth_config(self) -> RunConfig:
        """The config itself, which ``synth_generate`` reads; kept only
        because ``perfbench/test_perfbench.py`` still calls it."""
        return self


def _parse_value(name: str, kind: type, raw: str):
    if kind is bool:
        low = raw.lower()
        if low in ("true", "false"):
            return low == "true"
        raise ConfigError(f"{name}: expected true or false, got {raw!r}")
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{name}: cannot parse {raw!r} as {kind.__name__}") from None


def validate(cfg: RunConfig) -> RunConfig:
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value}")
    for key, least in LEAST.items():
        if getattr(cfg, key) < least:
            raise ConfigError(f"{key} must be >= {least}, got {getattr(cfg, key)}")
    for key, most in MOST.items():
        if getattr(cfg, key) > most:
            raise ConfigError(f"{key} must be <= {most}, got {getattr(cfg, key)}")
    if cfg.gamma == "deep" and cfg.gamma_hidden_dim() > MOST_SIZE:
        raise ConfigError(
            f"the deep gamma width 3 * embed_dim = {cfg.gamma_hidden_dim()} must be <= {MOST_SIZE}"
        )
    if cfg.synth_predicates_per_family > cfg.synth_predicates:
        raise ConfigError(
            f"synth_predicates_per_family must be <= synth_predicates = {cfg.synth_predicates},"
            f" got {cfg.synth_predicates_per_family}"
        )
    # one bound per key: the test split mixes the last two and stays below the larger
    triplets = cfg.synth_families * cfg.synth_predicates_per_family * cfg.synth_cluster_size
    for key in ("synth_train_pairs", "synth_test_pairs", "synth_heldout_test_pairs"):
        rows, ratio = triplets * getattr(cfg, key), cfg.synth_negative_ratio
        if rows > MOST_SPLIT_ROWS or rows * (1.0 + ratio) > MOST_SPLIT_ROWS:
            raise ConfigError(
                f"a synthetic split of {triplets} triplets x {key} = {getattr(cfg, key)}"
                f" x (1 + synth_negative_ratio = {ratio}) rows must be <= {MOST_SPLIT_ROWS}"
            )
    for key in ("train_data", "test_data", "word_table", "queries", "checkpoint"):
        if "\0" in getattr(cfg, key):
            raise ConfigError(f"{key}: a path cannot hold a NUL byte")
    active = cfg.branch_list()
    if not active:
        raise ConfigError("branches: at least one branch required")
    for b in active:
        if b not in BRANCH_KINDS:
            raise ConfigError(f"branches: unknown kind {b!r}, choose from {','.join(BRANCH_KINDS)}")
    if len(set(active)) != len(active):
        raise ConfigError("branches: duplicate kinds")
    # canonical ordering so equal sets compare and serialize equal
    cfg.branches = ",".join(b for b in BRANCH_KINDS if b in active)

    if not 0.0 <= cfg.dropout < 1.0:
        raise ConfigError(f"dropout must be in [0, 1), got {cfg.dropout}")
    if cfg.gamma not in GAMMA_KINDS:
        raise ConfigError(f"gamma: choose from {','.join(GAMMA_KINDS)}")
    if cfg.vp_negatives not in ("observed", "cartesian"):
        raise ConfigError("vp_negatives: choose observed or cartesian")
    if cfg.lr <= 0.0:
        raise ConfigError(f"lr must be > 0, got {cfg.lr}")
    if not 0.0 < cfg.positive_fraction <= 1.0:
        raise ConfigError("positive_fraction must be in (0, 1]")
    if cfg.positives_per_batch() < 1:
        raise ConfigError("batch_size * positive_fraction rounds to zero positives")
    alpha = cfg.alpha_s + cfg.alpha_p + cfg.alpha_o
    if abs(alpha - 1.0) > 1e-9:
        raise ConfigError(f"alpha_s + alpha_p + alpha_o must equal 1, got {alpha}")
    if not 0.0 < cfg.iou_threshold <= 1.0:
        raise ConfigError("iou_threshold must be in (0, 1]")
    if cfg.eval_mode not in ("direct", "transfer"):
        raise ConfigError("eval_mode: choose direct or transfer")
    return cfg


def parse_config(text: str, base: RunConfig | None = None, source: str = "<config>") -> RunConfig:
    cfg = RunConfig(**vars(base)) if base is not None else RunConfig()
    known = {f.name: f.type for f in fields(RunConfig)}  # type names: annotations are strings
    types = {"int": int, "float": float, "str": str, "bool": bool}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{source}:{lineno}: expected key = value, got {raw.strip()!r}")
        key, value = key.strip(), value.strip()
        if key not in known:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        try:
            setattr(cfg, key, _parse_value(key, types[known[key]], value))
        except ConfigError as e:
            raise ConfigError(f"{source}:{lineno}: {e}") from None
    try:
        return validate(cfg)
    except ConfigError as e:
        raise ConfigError(f"{source}: {e}") from None


def load_config(path: str, base: RunConfig | None = None) -> RunConfig:
    with open(path) as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise ConfigError(f"{path}: undecodable text: {e.reason}") from None
    return parse_config(text, base, source=path)


def emit_config(cfg: RunConfig) -> str:
    lines = []
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        lines.append(f"{f.name} = {text}")
    return "\n".join(lines) + "\n"


def write_config(cfg: RunConfig, path: str):
    with open(path, "w") as fh:
        fh.write(emit_config(cfg))


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(emit_config(cfg).encode()).hexdigest()
