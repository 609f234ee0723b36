"""Run configuration: every knob of the pipeline in one flat key=value file.

Files hold one ``key = value`` per line; blank lines and ``#`` comments are
skipped. Unknown keys are rejected. ``emit`` writes a canonical form that
reparses to an equal config, and ``config_hash`` fingerprints it.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields

from .data import SynthConfig
from .features import BRANCH_KINDS, SPATIAL_NORMS

GAMMA_KINDS = ("absent", "zero", "linear", "deep")


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
    spatial_norm: str = "area"
    finetune_words: bool = False

    # optimization
    lr: float = 0.001
    batch_size: int = 64
    positive_fraction: float = 0.25
    stage1_epochs: int = 10
    stage2_epochs: int = 5
    vp_negatives: str = "observed"

    # analogy transfer
    gamma: str = "deep"
    gamma_hidden: int = 0  # 0 means 3 * embed_dim
    k: int = 5
    alpha_s: float = 0.1
    alpha_p: float = 0.8
    alpha_o: float = 0.1
    analogy_weight: float = 1.0
    clamp_similarity: bool = True
    normalize_aggregation: bool = False
    similarity_input: str = "branches"
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
        return self.gamma_hidden if self.gamma_hidden > 0 else 3 * self.embed_dim

    def synth_config(self) -> SynthConfig:
        return SynthConfig(
            n_subjects=self.synth_subjects,
            n_predicates=self.synth_predicates,
            n_objects=self.synth_objects,
            cluster_size=self.synth_cluster_size,
            n_families=self.synth_families,
            predicates_per_family=self.synth_predicates_per_family,
            train_pairs_per_triplet=self.synth_train_pairs,
            test_pairs_per_triplet=self.synth_test_pairs,
            heldout_count=self.synth_heldout,
            heldout_test_pairs=self.synth_heldout_test_pairs,
            appearance_dim=self.synth_appearance_dim,
            noise=self.synth_noise,
            word_noise=self.synth_word_noise,
            negative_per_positive=self.synth_negative_ratio,
        )


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

    if cfg.embed_dim < 1 or cfg.branch_hidden < 1:
        raise ConfigError("embed_dim and branch_hidden must be >= 1")
    if not 0.0 <= cfg.dropout < 1.0:
        raise ConfigError(f"dropout must be in [0, 1), got {cfg.dropout}")
    if cfg.spatial_norm not in SPATIAL_NORMS:
        raise ConfigError(f"spatial_norm: choose from {','.join(SPATIAL_NORMS)}")
    if cfg.gamma not in GAMMA_KINDS:
        raise ConfigError(f"gamma: choose from {','.join(GAMMA_KINDS)}")
    if cfg.vp_negatives not in ("observed", "cartesian"):
        raise ConfigError("vp_negatives: choose observed or cartesian")
    if cfg.similarity_input not in ("branches", "words"):
        raise ConfigError("similarity_input: choose branches or words")
    if cfg.lr <= 0.0:
        raise ConfigError(f"lr must be > 0, got {cfg.lr}")
    if cfg.batch_size < 1:
        raise ConfigError("batch_size must be >= 1")
    if not 0.0 < cfg.positive_fraction <= 1.0:
        raise ConfigError("positive_fraction must be in (0, 1]")
    if cfg.positives_per_batch() < 1:
        raise ConfigError("batch_size * positive_fraction rounds to zero positives")
    if cfg.stage1_epochs < 0 or cfg.stage2_epochs < 0:
        raise ConfigError("epoch counts must be >= 0")
    if cfg.k < 1:
        raise ConfigError("k must be >= 1")
    alpha = cfg.alpha_s + cfg.alpha_p + cfg.alpha_o
    if abs(alpha - 1.0) > 1e-9:
        raise ConfigError(f"alpha_s + alpha_p + alpha_o must equal 1, got {alpha}")
    if cfg.analogy_weight < 0.0:
        raise ConfigError(f"analogy_weight must be >= 0, got {cfg.analogy_weight}")
    if cfg.rare_threshold < 1:
        raise ConfigError("rare_threshold must be >= 1")
    if not 0.0 < cfg.iou_threshold <= 1.0:
        raise ConfigError("iou_threshold must be in (0, 1]")
    if cfg.eval_mode not in ("direct", "transfer"):
        raise ConfigError("eval_mode: choose direct or transfer")
    for key in ("synth_noise", "synth_word_noise", "synth_negative_ratio"):
        if getattr(cfg, key) < 0.0:
            raise ConfigError(f"{key} must be >= 0, got {getattr(cfg, key)}")
    return cfg


def parse_config(text: str, base: RunConfig | None = None, source: str = "<config>") -> RunConfig:
    cfg = RunConfig(**vars(base)) if base is not None else RunConfig()
    known = {f.name: f.type for f in fields(RunConfig)}
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
        kind = known[key] if isinstance(known[key], type) else types[known[key]]
        try:
            setattr(cfg, key, _parse_value(key, kind, value))
        except ConfigError as e:
            raise ConfigError(f"{source}:{lineno}: {e}") from None
    try:
        return validate(cfg)
    except ConfigError as e:
        raise ConfigError(f"{source}: {e}") from None


def load_config(path: str, base: RunConfig | None = None) -> RunConfig:
    with open(path) as fh:
        return parse_config(fh.read(), base, source=path)


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
