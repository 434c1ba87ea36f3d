"""Pipeline configuration: an INI file plus command-line overrides.

The INI file has seven sections: [languages], [paths], [backend], [mining],
[prompts], [metrics] and [run]. Each `PipelineConfig` field declares, once,
its `section.key` in the file, whether it is a path, and the bounds or
choices that `validate()` checks. A key that no field declares is
rejected, in whatever section it appears.

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


def _ini(key: str, default, *, path: bool = False, least=None, most=None,
         above=None, choices: tuple = ()):
    """A config field read from INI key `key` ("section.name").

    A `path` is resolved against the config file's directory. `validate()`
    checks `least` and `most` (inclusive), `above` (exclusive) and `choices`.
    """
    return field(default=default, metadata={
        "key": key, "path": path, "least": least, "most": most,
        "above": above, "choices": choices,
    })


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
    source_code: str = _ini("languages.source", "")
    target_code: str = _ini("languages.target", "")
    source_name: str = _ini("languages.source_name", "")
    target_name: str = _ini("languages.target_name", "")
    # an empty path means "not provided"
    source_vocab: str = _ini("paths.source_vocab", "", path=True)
    target_vocab: str = _ini("paths.target_vocab", "", path=True)
    unlabeled: str = _ini("paths.unlabeled", "", path=True)
    test_source: str = _ini("paths.test_source", "", path=True)
    test_target: str = _ini("paths.test_target", "", path=True)
    gold_dev_source: str = _ini("paths.gold_dev_source", "", path=True)
    gold_dev_target: str = _ini("paths.gold_dev_target", "", path=True)
    w2w_source: str = _ini("paths.w2w_source", "", path=True)
    output_dir: str = _ini("paths.output_dir", "out", path=True)
    backend_kind: str = _ini("backend.kind", "mock", choices=("mock", "http"))
    base_url: str = _ini("backend.base_url", "")
    model: str = _ini("backend.model", "")
    llm_fixture: str = _ini("backend.llm_fixture", "", path=True)
    embedding_kind: str = _ini(
        "backend.embedding", "trigram", choices=("trigram", "fixture", "http")
    )
    embedding_fixture: str = _ini("backend.embedding_fixture", "", path=True)
    embedding_base_url: str = _ini("backend.embedding_base_url", "")
    embedding_model: str = _ini("backend.embedding_model", "")
    embedding_dim: int = _ini("backend.embedding_dim", 256, least=1)
    cache_dir: str = _ini("backend.cache_dir", ".icl-cache", path=True)
    # max requests in flight to network (HTTP) backends, LLM and embedding
    # together, in every stage including translation; requests to local
    # backends (mock, trigram, fixture) run one at a time on the calling thread
    concurrency: int = _ini("backend.concurrency", 1, least=1)
    # n, k_wp, k, tau and fallback_m (m) default to the published constants
    n: int = _ini("mining.n", 10, least=1)
    k_wp: int = _ini("mining.k_wp", 10, least=1)
    k: int = _ini("mining.k", 8, least=1)
    tau: float = _ini("mining.tau", 0.90, least=0, most=1)
    fallback_m: int = _ini("mining.fallback_m", 20, least=1)
    iterations: int = _ini("mining.iterations", 1, least=1)
    vocab_size: int = _ini("mining.vocab_size", 10000, least=1)
    seed: int = _ini("mining.seed", 0)
    temperature: float = _ini("mining.temperature", 1.0, above=0)
    sentence_decoding: str = _ini(
        "mining.sentence_decoding", "greedy", choices=("greedy", "beam")
    )
    # checked only under beam decoding
    beam_width: int = _ini("mining.beam_width", 4)
    max_word_tokens: int = _ini("mining.max_word_tokens", 8, least=1)
    max_sentence_tokens: int = _ini("mining.max_sentence_tokens", 256, least=1)
    shot_order: str = _ini(
        "mining.shot_order", "best_last", choices=("best_last", "best_first")
    )
    shot_strategy: str = _ini(
        "mining.shot_strategy", "first_k", choices=("first_k", "top_sim")
    )
    # prompt template overrides (empty = built-in)
    word_zero_shot_template: str = _ini("prompts.word_zero_shot", "")
    word_shot_header_template: str = _ini("prompts.word_shot_header", "")
    sentence_header_template: str = _ini("prompts.sentence_header", "")
    # checked by chrf_config() and bleu_config()
    chrf_char_ngram: int = _ini("metrics.chrf_char_ngram", 6)
    chrf_word_ngram: int = _ini("metrics.chrf_word_ngram", 2)
    chrf_beta: float = _ini("metrics.chrf_beta", 2.0)
    bleu_max_ngram: int = _ini("metrics.bleu_max_ngram", 4)
    bleu_smoothing: str = _ini("metrics.bleu_smoothing", "epsilon")
    bleu_tokenizer: str = _ini("metrics.bleu_tokenizer", "whitespace")
    policies: tuple[str, ...] = _ini("run.policies", ())
    bm25_k1: float = _ini("mining.bm25_k1", 1.5, least=0)
    bm25_b: float = _ini("mining.bm25_b", 0.75, least=0, most=1)
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
                f"policy {name!r} needs {_KEYS['gold_dev_source']} and "
                f"{_KEYS['gold_dev_target']}"
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
        """Check required fields, each field's declared bounds, choices and
        path, and the rules that tie fields together."""
        for name in ("source_code", "target_code", "source_vocab", "target_vocab",
                     "unlabeled", "test_source", "test_target"):
            if not getattr(self, name):
                raise ConfigError(f"missing config field: {_KEYS[name]}")
        for f in fields(self):
            meta, value = f.metadata, getattr(self, f.name)
            if not meta:
                continue
            key = meta["key"]
            if (meta["path"] and value and f.name not in PLUMBING_FIELDS
                    and not Path(value).exists()):
                raise ConfigError(f"{key}: path does not exist: {value}")
            if meta["choices"] and value not in meta["choices"]:
                raise ConfigError(
                    f"{key} must be one of {', '.join(meta['choices'])} "
                    f"(got {value!r})"
                )
            # written as `not ...` so that NaN fails every bound
            if meta["least"] is not None and not value >= meta["least"]:
                raise ConfigError(f"{key} must be >= {meta['least']} (got {value})")
            if meta["most"] is not None and not value <= meta["most"]:
                raise ConfigError(f"{key} must be <= {meta['most']} (got {value})")
            if meta["above"] is not None and not value > meta["above"]:
                raise ConfigError(f"{key} must be > {meta['above']} (got {value})")
        if self.backend_kind == "mock" and not self.llm_fixture:
            raise ConfigError(f"{_KEYS['llm_fixture']} is required for the mock backend")
        if self.backend_kind == "http" and not self.base_url:
            raise ConfigError(f"{_KEYS['base_url']} is required for the http backend")
        if self.embedding_kind == "fixture" and not self.embedding_fixture:
            raise ConfigError(
                f"{_KEYS['embedding_fixture']} is required for the fixture embedder"
            )
        if self.embedding_kind == "http" and not (self.embedding_base_url
                                                  or self.base_url):
            raise ConfigError(
                f"{_KEYS['embedding_base_url']} (or {_KEYS['base_url']}) is "
                "required for the http embedder"
            )
        if self.fallback_m < self.k:
            raise ConfigError(
                f"{_KEYS['fallback_m']} must be >= {_KEYS['k']} "
                f"(got {self.fallback_m} < {self.k})"
            )
        if self.sentence_decoding == "beam" and self.beam_width < 1:
            raise ConfigError(
                f"{_KEYS['beam_width']} must be >= 1 under beam decoding "
                f"(got {self.beam_width})"
            )
        try:
            self.chrf_config()
            self.bleu_config()
        except ConfigError as exc:
            raise ConfigError(f"metrics: {exc}") from None
        for name in self.effective_policies():
            self.policy(name)


# each field by its "section.key", and each "section.key" by field name
_FIELDS = {f.metadata["key"]: f for f in fields(PipelineConfig) if f.metadata}
_KEYS = {f.name: key for key, f in _FIELDS.items()}

# annotations are strings under `from __future__ import annotations`
_NUMBERS = {"int": (int, "an integer"), "float": (float, "a number")}


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

    for section in parser.sections():
        for key in parser.options(section):
            f = _FIELDS.get(f"{section}.{key}")
            if f is None:
                raise ConfigError(f"unknown config key [{section}] {key}")
            raw = parser.get(section, key).strip()
            value: object = raw
            if f.name == "policies":
                value = tuple(p.strip() for p in raw.split(",") if p.strip())
            elif f.type in _NUMBERS:
                parse, kind = _NUMBERS[f.type]
                try:
                    value = parse(raw)
                except ValueError:
                    raise ConfigError(
                        f"[{section}] {key} must be {kind} (got {raw!r})"
                    ) from None
            vocab = metrics.subword_vocab(raw) if f.name == "bleu_tokenizer" else None
            if f.metadata["path"] and raw:
                if f.name not in PLUMBING_FIELDS:
                    raw_semantic[f.name] = raw
                value = _resolve(base_dir, raw)
            elif vocab:
                raw_semantic[f.name] = raw
                value = "subword:" + _resolve(base_dir, vocab)
            setattr(config, f.name, value)

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
