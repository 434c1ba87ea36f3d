"""Core generation/embedding types shared by all backend implementations."""

from __future__ import annotations

import functools
import logging
import math
import operator
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Protocol, Sequence

from ..errors import BackendError

if TYPE_CHECKING:
    from .cache import CachingEmbedder, CachingLLM

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DecodingMode:
    """One of random_sampling(temperature, seed), greedy, or beam(width)."""

    kind: str
    temperature: float = 1.0
    seed: int = 0
    width: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("random_sampling", "greedy", "beam"):
            raise BackendError(f"unknown decoding kind {self.kind!r}")
        if self.kind == "random_sampling" and self.temperature <= 0:
            raise BackendError("random_sampling needs temperature > 0")
        if self.kind == "beam" and self.width < 1:
            raise BackendError("beam width must be >= 1")

    @classmethod
    def random_sampling(cls, temperature: float = 1.0, seed: int = 0) -> "DecodingMode":
        return cls(kind="random_sampling", temperature=temperature, seed=seed)

    @classmethod
    def greedy(cls) -> "DecodingMode":
        return cls(kind="greedy")

    @classmethod
    def beam(cls, width: int) -> "DecodingMode":
        return cls(kind="beam", width=width)

    def to_payload(self) -> dict:
        payload: dict = {"kind": self.kind}
        if self.kind == "random_sampling":
            payload["temperature"] = self.temperature
            payload["seed"] = self.seed
        elif self.kind == "beam":
            payload["width"] = self.width
        return payload


@dataclass(frozen=True)
class StopCondition:
    """Client-side completion truncation.

    `at_whitespace` implements the stop-at-space rule for single-word
    generation: leading whitespace is ignored, the text is cut at the first
    internal whitespace. `substrings` cut at the earliest occurrence of any
    entry; the stop text itself is excluded from the result.
    """

    substrings: tuple[str, ...] = ()
    at_whitespace: bool = False

    @classmethod
    def whitespace(cls) -> "StopCondition":
        return cls(at_whitespace=True)

    @classmethod
    def at(cls, *substrings: str) -> "StopCondition":
        return cls(substrings=tuple(substrings))

    def truncate(self, text: str) -> str:
        if self.at_whitespace:
            parts = text.split()
            return parts[0] if parts else ""
        cut = len(text)
        for stop in self.substrings:
            pos = text.find(stop)
            if pos != -1:
                cut = min(cut, pos)
        return text[:cut].strip()

    def to_payload(self) -> dict:
        return {"substrings": list(self.substrings), "at_whitespace": self.at_whitespace}


@dataclass(frozen=True)
class GenerationRequest:
    prompt: str
    num_samples: int = 1
    mode: DecodingMode = DecodingMode.greedy()
    stop: StopCondition = StopCondition()
    max_new_tokens: int = 64

    def __post_init__(self) -> None:
        if not self.prompt:
            raise BackendError("prompt must be non-empty")
        if self.num_samples < 1:
            raise BackendError("num_samples must be >= 1")
        if self.mode.kind == "greedy" and self.num_samples != 1:
            raise BackendError("greedy decoding yields exactly one sample")
        if self.max_new_tokens < 1:
            raise BackendError("max_new_tokens must be >= 1")

    def to_payload(self) -> dict:
        return {
            "prompt": self.prompt,
            "num_samples": self.num_samples,
            "mode": self.mode.to_payload(),
            "stop": self.stop.to_payload(),
            "max_new_tokens": self.max_new_tokens,
        }


@dataclass(frozen=True)
class ScoredCompletion:
    text: str
    sequence_score: float


def finalize_completions(
    raw: Sequence[ScoredCompletion], request: GenerationRequest
) -> list[ScoredCompletion]:
    """Apply the stop condition, drop empties, sort by descending score.

    Sorting is stable, so ties keep generation order. At most
    request.num_samples completions are returned.
    """
    truncated = [
        ScoredCompletion(request.stop.truncate(c.text), c.sequence_score) for c in raw
    ]
    kept = [c for c in truncated if c.text]
    kept.sort(key=lambda c: -c.sequence_score)
    return kept[: request.num_samples]


@dataclass(frozen=True)
class EmbeddingVector:
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise BackendError("embedding vector must be non-empty")
        if not all(map(math.isfinite, self.values)):
            raise BackendError("embedding vector contains non-finite values")

    @property
    def dim(self) -> int:
        return len(self.values)

    @functools.cached_property
    def norm(self) -> float:
        return math.sqrt(math.fsum(a * a for a in self.values))


def cosine(u: EmbeddingVector, v: EmbeddingVector) -> float:
    """Cosine similarity, clamped to [-1, 1] against rounding."""
    if u.dim != v.dim:
        raise BackendError(f"dim mismatch: {u.dim} vs {v.dim}")
    dot = math.fsum(map(operator.mul, u.values, v.values))
    norm_u, norm_v = u.norm, v.norm
    if norm_u == 0.0 or norm_v == 0.0:
        raise BackendError("cosine undefined for a zero vector")
    return max(-1.0, min(1.0, dot / (norm_u * norm_v)))


class LLMBackend(Protocol):
    backend_id: str
    model_id: str

    def generate(self, request: GenerationRequest) -> list[ScoredCompletion]: ...


class EmbeddingBackend(Protocol):
    backend_id: str
    model_id: str

    def embed(self, text: str) -> EmbeddingVector: ...


class SimilarityScorer:
    """sim(x, y) = cosine(embed(x), embed(y)), with embeddings memoized.

    `sims` scores many pairs: it first embeds the distinct texts not yet
    memoized through one `embed_all` of the caching embedder, then takes
    the cosine of each distinct pair once.
    """

    def __init__(self, embedder: CachingEmbedder):
        self.embedder = embedder
        self._memo: dict[str, EmbeddingVector] = {}

    def embedding(self, text: str) -> EmbeddingVector:
        if not text:
            raise BackendError("cannot embed empty text")
        cached = self._memo.get(text)
        if cached is None:
            cached = self.embedder.embed(text)
            self._memo[text] = cached
        return cached

    def sim(self, x: str, y: str) -> float:
        return cosine(self.embedding(x), self.embedding(y))

    def sims(self, pairs: Iterable[tuple[str, str]]) -> list[float]:
        """The similarity of each pair; raises the first embedding error
        in input order."""
        pairs = list(pairs)
        texts = dict.fromkeys(text for pair in pairs for text in pair)
        missing = [text for text in texts if text not in self._memo]
        for text, vector in zip(missing, self.embedder.embed_all(missing)):
            if isinstance(vector, BackendError):
                raise vector
            self._memo[text] = vector
        scored = {pair: self.sim(*pair) for pair in dict.fromkeys(pairs)}
        return [scored[pair] for pair in pairs]


def generate_each(
    llm: CachingLLM,
    requests: Sequence[GenerationRequest],
    what: str = "requests",
) -> list[list[ScoredCompletion]]:
    """Completions per request, in order; `[]` for a request that failed.

    This is the failure policy of every LLM fan-out in the pipeline. Each
    distinct request is sent once, through one `generate_all`. A request
    whose call raises BackendError yields no completions, and each
    distinct failed request is logged once, so a caller treats a failure
    as an empty generation, and one summary warning gives the share that
    failed (counted as passed, repeats included), the distinct count and
    the count per exception class. When more than half of `requests`
    failed, one BackendError aborts the stage instead: it names the share
    that failed and the first failure in input order, from which it is
    chained. Failures are not cached, so a stage that runs again sends
    them again. `what` names the requests in these messages, for example
    "word translations".
    """
    distinct = list(dict.fromkeys(requests))
    by_request = dict(zip(distinct, llm.generate_all(distinct)))
    for request, outcome in by_request.items():
        if isinstance(outcome, BackendError):
            log.warning("one of the %s failed (prompt ends %r): %s",
                        what, request.prompt[-60:], outcome)
    outcomes = [by_request[request] for request in requests]
    failed = [outcome for outcome in outcomes if isinstance(outcome, BackendError)]
    if len(failed) * 2 > len(outcomes):
        raise BackendError(
            f"{len(failed)}/{len(outcomes)} {what} failed; aborting "
            f"(first: {failed[0]})"
        ) from failed[0]
    if failed:
        classes = sorted(Counter(type(exc).__name__ for exc in failed).items())
        log.warning(
            "%d/%d %s failed (%d distinct; %s); their outputs are empty",
            len(failed), len(outcomes), what,
            sum(isinstance(by_request[r], BackendError) for r in distinct),
            ", ".join(f"{name}: {count}" for name, count in classes),
        )
    return [[] if isinstance(o, BackendError) else o for o in outcomes]
