"""Pipeline configuration: an INI file plus command-line overrides.

Relative paths, and the vocabulary of a `subword:<file>` BLEU tokenizer,
are resolved against the config file's directory, but the run-directory
hash is computed over the values as written, so moving a checkout does not
invalidate runs. Only the API key comes from the environment.
"""

from __future__ import annotations

import configparser
import hashlib
import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import metrics
from .errors import ConfigError

# §-free defaults: these mirror the published experimental constants
DEFAULTS = {
    "n": 10,
    "k_wp": 10,
    "k": 8,
    "tau": 0.90,
    "fallback_m": 20,
    "iterations": 1,
}


@dataclass(frozen=True)
class Policy:
    """Where a translation policy takes its in-context examples from."""

    pool: str  # none | mined | gold
    selector: str  # none | first_k | top_k | top_k_bm25
    # reads the w2w renderings, and the lexicon to render test sources
    # that w2w.jsonl lacks
    needs_lexicon: bool = False

    @property
    def ranked(self) -> bool:
        """Selections come best first, so shot_order can reverse them."""
        return self.selector in ("top_k", "top_k_bm25")


# every policy, in report order
POLICIES = {
    "zero_shot": Policy(pool="none", selector="none"),
    "uw2w": Policy(pool="none", selector="none", needs_lexicon=True),
    "random": Policy(pool="mined", selector="first_k"),
    "topk": Policy(pool="mined", selector="top_k"),
    "topk_bm25": Policy(pool="mined", selector="top_k_bm25"),
    "gold_kshot": Policy(pool="gold", selector="first_k"),
    "gold_bm25": Policy(pool="gold", selector="top_k_bm25"),
}

# fields that do not influence artifact bytes and stay out of the run hash
PLUMBING_FIELDS = {"output_dir", "cache_dir", "concurrency"}


@dataclass
class PipelineConfig:
    # languages
    source_code: str = ""
    target_code: str = ""
    source_name: str = ""
    target_name: str = ""
    # paths (resolved); empty string means "not provided"
    source_vocab: str = ""
    target_vocab: str = ""
    unlabeled: str = ""
    test_source: str = ""
    test_target: str = ""
    gold_dev_source: str = ""
    gold_dev_target: str = ""
    w2w_source: str = ""
    output_dir: str = "out"
    # backend
    backend_kind: str = "mock"  # mock | http
    base_url: str = ""
    model: str = ""
    llm_fixture: str = ""
    embedding_kind: str = "trigram"  # trigram | fixture | http
    embedding_fixture: str = ""
    embedding_base_url: str = ""
    embedding_model: str = ""
    embedding_dim: int = 256
    cache_dir: str = ".icl-cache"
    # max backend requests in flight, LLM and embedding together, in every
    # stage including translation
    concurrency: int = 1
    # mining constants
    n: int = DEFAULTS["n"]
    k_wp: int = DEFAULTS["k_wp"]
    k: int = DEFAULTS["k"]
    tau: float = DEFAULTS["tau"]
    fallback_m: int = DEFAULTS["fallback_m"]
    iterations: int = DEFAULTS["iterations"]
    vocab_size: int = 10000
    seed: int = 0
    temperature: float = 1.0
    sentence_decoding: str = "greedy"  # greedy | beam
    beam_width: int = 4
    max_word_tokens: int = 8
    max_sentence_tokens: int = 256
    shot_order: str = "best_last"  # best_last | best_first
    shot_strategy: str = "first_k"  # first_k | top_sim
    # prompt template overrides (empty = built-in)
    word_zero_shot_template: str = ""
    word_shot_header_template: str = ""
    sentence_header_template: str = ""
    # metrics
    chrf_char_ngram: int = 6
    chrf_word_ngram: int = 2
    chrf_beta: float = 2.0
    bleu_max_ngram: int = 4
    bleu_smoothing: str = "epsilon"
    bleu_tokenizer: str = "whitespace"
    # run
    policies: tuple[str, ...] = ()
    bm25_k1: float = 1.5
    bm25_b: float = 0.75
    # raw values as written in the INI, used for the stable run hash
    raw_semantic: dict = field(default_factory=dict, repr=False, compare=False)

    def semantic_dict(self) -> dict:
        """Everything that determines artifact bytes."""
        out = {}
        for f in fields(self):
            if f.name in PLUMBING_FIELDS or f.name == "raw_semantic":
                continue
            value = getattr(self, f.name)
            if f.name in self.raw_semantic:
                value = self.raw_semantic[f.name]
            if isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out

    def run_hash(self) -> str:
        canonical = json.dumps(
            self.semantic_dict(), sort_keys=True, ensure_ascii=False,
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]

    def effective_policies(self) -> tuple[str, ...]:
        if self.policies:
            return self.policies
        has_gold = bool(self.gold_dev_source and self.gold_dev_target)
        return tuple(
            name for name, p in POLICIES.items() if p.pool != "gold" or has_gold
        )

    def policy(self, name: str) -> Policy:
        """The table entry of `name`, which this config must be able to run."""
        policy = POLICIES.get(name)
        if policy is None:
            raise ConfigError(
                f"unknown policy {name!r}; expected one of {tuple(POLICIES)}"
            )
        has_gold = bool(self.gold_dev_source and self.gold_dev_target)
        if policy.pool == "gold" and not has_gold:
            raise ConfigError(
                f"policy {name!r} needs paths.gold_dev_source and "
                "paths.gold_dev_target"
            )
        return policy

    def chrf_config(self) -> metrics.ChrfConfig:
        """The chrF++ settings; raises ConfigError for invalid ones."""
        return metrics.ChrfConfig(
            char_ngram_max=self.chrf_char_ngram,
            word_ngram_max=self.chrf_word_ngram,
            beta=self.chrf_beta,
        )

    def bleu_config(self) -> metrics.BleuConfig:
        """The BLEU settings; raises ConfigError for invalid ones, an unknown
        tokenizer or a missing subword vocabulary."""
        return metrics.BleuConfig(
            max_ngram=self.bleu_max_ngram,
            smoothing=self.bleu_smoothing,
            tokenizer=self.bleu_tokenizer,
        )

    def validate(self) -> None:
        """Check field ranges and that every referenced path exists."""
        for name in ("source_code", "target_code"):
            if not getattr(self, name):
                raise ConfigError(f"missing config field: {_KEYS[name]}")
        checked_paths = _PATH_FIELDS - PLUMBING_FIELDS
        for name, key in _KEYS.items():
            value = getattr(self, name)
            if name in checked_paths and value and not Path(value).exists():
                raise ConfigError(f"{key}: path does not exist: {value}")
        for name in ("source_vocab", "target_vocab", "unlabeled",
                     "test_source", "test_target"):
            if not getattr(self, name):
                raise ConfigError(f"missing config field: {_KEYS[name]}")
        if self.backend_kind not in ("mock", "http"):
            raise ConfigError("backend.kind must be mock or http")
        if self.backend_kind == "mock" and not self.llm_fixture:
            raise ConfigError("backend.llm_fixture is required for the mock backend")
        if self.backend_kind == "http" and not self.base_url:
            raise ConfigError("backend.base_url is required for the http backend")
        if self.embedding_kind not in ("trigram", "fixture", "http"):
            raise ConfigError("backend.embedding must be trigram, fixture, or http")
        if self.embedding_kind == "fixture" and not self.embedding_fixture:
            raise ConfigError("backend.embedding_fixture is required")
        for name in ("n", "k_wp", "k", "fallback_m", "iterations", "vocab_size",
                     "max_word_tokens", "max_sentence_tokens", "embedding_dim"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{_KEYS[name]} must be >= 1 (got {value})")
        if not 0.0 <= self.tau <= 1.0:
            raise ConfigError(f"mining.tau must be in [0, 1] (got {self.tau})")
        if self.fallback_m < self.k:
            raise ConfigError("mining.fallback_m must be >= mining.k")
        if self.temperature <= 0:
            raise ConfigError("mining.temperature must be positive")
        if self.sentence_decoding not in ("greedy", "beam"):
            raise ConfigError("mining.sentence_decoding must be greedy or beam")
        if self.sentence_decoding == "beam" and self.beam_width < 1:
            raise ConfigError(f"mining.beam_width must be >= 1 (got {self.beam_width})")
        if self.shot_order not in ("best_last", "best_first"):
            raise ConfigError("mining.shot_order must be best_last or best_first")
        if self.shot_strategy not in ("first_k", "top_sim"):
            raise ConfigError("mining.shot_strategy must be first_k or top_sim")
        if self.bm25_k1 < 0:
            raise ConfigError(f"mining.bm25_k1 must be >= 0 (got {self.bm25_k1})")
        if not 0.0 <= self.bm25_b <= 1.0:
            raise ConfigError(f"mining.bm25_b must be in [0, 1] (got {self.bm25_b})")
        if self.concurrency < 1:
            raise ConfigError("backend.concurrency must be >= 1")
        try:
            self.chrf_config()
            self.bleu_config()
        except ConfigError as exc:
            raise ConfigError(f"metrics: {exc}") from None
        for name in self.effective_policies():
            self.policy(name)


_SECTION_FIELDS = {
    "languages": {
        "source": "source_code",
        "target": "target_code",
        "source_name": "source_name",
        "target_name": "target_name",
    },
    "paths": {
        "source_vocab": "source_vocab",
        "target_vocab": "target_vocab",
        "unlabeled": "unlabeled",
        "test_source": "test_source",
        "test_target": "test_target",
        "gold_dev_source": "gold_dev_source",
        "gold_dev_target": "gold_dev_target",
        "w2w_source": "w2w_source",
        "output_dir": "output_dir",
    },
    "backend": {
        "kind": "backend_kind",
        "base_url": "base_url",
        "model": "model",
        "llm_fixture": "llm_fixture",
        "embedding": "embedding_kind",
        "embedding_fixture": "embedding_fixture",
        "embedding_base_url": "embedding_base_url",
        "embedding_model": "embedding_model",
        "embedding_dim": "embedding_dim",
        "cache_dir": "cache_dir",
        "concurrency": "concurrency",
    },
    "mining": {
        "n": "n",
        "k_wp": "k_wp",
        "k": "k",
        "tau": "tau",
        "fallback_m": "fallback_m",
        "iterations": "iterations",
        "vocab_size": "vocab_size",
        "seed": "seed",
        "temperature": "temperature",
        "sentence_decoding": "sentence_decoding",
        "beam_width": "beam_width",
        "max_word_tokens": "max_word_tokens",
        "max_sentence_tokens": "max_sentence_tokens",
        "shot_order": "shot_order",
        "shot_strategy": "shot_strategy",
        "bm25_k1": "bm25_k1",
        "bm25_b": "bm25_b",
    },
    "prompts": {
        "word_zero_shot": "word_zero_shot_template",
        "word_shot_header": "word_shot_header_template",
        "sentence_header": "sentence_header_template",
    },
    "metrics": {
        "chrf_char_ngram": "chrf_char_ngram",
        "chrf_word_ngram": "chrf_word_ngram",
        "chrf_beta": "chrf_beta",
        "bleu_max_ngram": "bleu_max_ngram",
        "bleu_smoothing": "bleu_smoothing",
        "bleu_tokenizer": "bleu_tokenizer",
    },
    "run": {
        "policies": "policies",
    },
}

_PATH_FIELDS = {
    "source_vocab", "target_vocab", "unlabeled", "test_source", "test_target",
    "gold_dev_source", "gold_dev_target", "w2w_source", "output_dir",
    "llm_fixture", "embedding_fixture", "cache_dir",
}

# the "section.key" name of each field, in _SECTION_FIELDS order
_KEYS = {
    field_name: f"{section}.{key}"
    for section, mapping in _SECTION_FIELDS.items()
    for key, field_name in mapping.items()
}

# annotations are strings under `from __future__ import annotations`
_INT_FIELDS = {f.name for f in fields(PipelineConfig) if f.type == "int"}
_FLOAT_FIELDS = {f.name for f in fields(PipelineConfig) if f.type == "float"}


def _resolve(base_dir: Path, path: str) -> str:
    return path if Path(path).is_absolute() else str((base_dir / path).resolve())


def load_config(path: str | Path, overrides: dict | None = None) -> PipelineConfig:
    """Parse an INI config file and apply command-line overrides."""
    config_path = Path(path)
    if not config_path.exists():
        raise ConfigError(f"config file not found: {config_path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read(config_path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {config_path}: {exc}") from exc

    config = PipelineConfig()
    base_dir = config_path.parent
    raw_semantic: dict = {}

    for section, mapping in _SECTION_FIELDS.items():
        if not parser.has_section(section):
            continue
        for key in parser.options(section):
            if key not in mapping:
                raise ConfigError(f"unknown config key [{section}] {key}")
            field_name = mapping[key]
            raw = parser.get(section, key).strip()
            value: object = raw
            if field_name == "policies":
                value = tuple(p.strip() for p in raw.split(",") if p.strip())
            elif field_name in _INT_FIELDS:
                try:
                    value = int(raw)
                except ValueError:
                    raise ConfigError(f"[{section}] {key} must be an integer") from None
            elif field_name in _FLOAT_FIELDS:
                try:
                    value = float(raw)
                except ValueError:
                    raise ConfigError(f"[{section}] {key} must be a number") from None
            vocab = metrics.subword_vocab(raw) if field_name == "bleu_tokenizer" else None
            if field_name in _PATH_FIELDS and raw:
                if field_name not in PLUMBING_FIELDS:
                    raw_semantic[field_name] = raw
                value = _resolve(base_dir, raw)
            elif vocab:
                raw_semantic[field_name] = raw
                value = "subword:" + _resolve(base_dir, vocab)
            setattr(config, field_name, value)

    config.raw_semantic = raw_semantic

    overrides = overrides or {}
    for name, value in overrides.items():
        if value is None:
            continue
        if not hasattr(config, name):
            raise ConfigError(f"unknown override {name!r}")
        setattr(config, name, value)
        if name not in PLUMBING_FIELDS and name in raw_semantic:
            # override replaces the file's raw value in the hash as well
            raw_semantic[name] = str(value)
    return config
