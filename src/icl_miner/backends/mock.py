"""Deterministic fixture-driven backends for offline runs and tests."""

from __future__ import annotations

import hashlib
import json
import math
import unicodedata
from pathlib import Path

from ..corpus import read_written_lines
from ..errors import BackendError
from .base import (
    EmbeddingVector,
    GenerationRequest,
    ScoredCompletion,
    finalize_completions,
)


class MockLLMBackend:
    """Serves completions from a JSONL fixture keyed by exact prompt text.

    One record per prompt: {"prompt": ..., "completions": [{"text": ...,
    "score": ...}, ...]}. A prompt absent from the fixture is an error,
    never a silent fallback.
    """

    backend_id = "mock"
    remote = False

    def __init__(self, fixture_path: str | Path, model_id: str = "mock-model"):
        self.model_id = model_id
        self.fixture_path = str(fixture_path)
        self._responses: dict[str, list[ScoredCompletion]] = {}
        for lineno, line in enumerate(read_written_lines(fixture_path), start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                completions = [
                    ScoredCompletion(c["text"], float(c["score"]))
                    for c in record["completions"]
                ]
                self._responses[record["prompt"]] = completions
            except (KeyError, ValueError, TypeError) as exc:
                raise BackendError(
                    f"{fixture_path}:{lineno}: bad fixture record: {exc}"
                ) from exc

    def generate(self, request: GenerationRequest) -> list[ScoredCompletion]:
        completions = self._responses.get(request.prompt)
        if completions is None:
            raise BackendError(
                f"unfixtured prompt ({self.fixture_path}): {request.prompt!r}"
            )
        return finalize_completions(completions, request)


class FixtureEmbeddingBackend:
    """Embeddings from a JSONL fixture: {"text": ..., "vector": [...]}."""

    backend_id = "mock-embed"
    remote = False

    def __init__(self, fixture_path: str | Path, model_id: str = "mock-embed-model"):
        self.model_id = model_id
        self.fixture_path = str(fixture_path)
        self._vectors: dict[str, EmbeddingVector] = {}
        for line in read_written_lines(fixture_path):
            if not line.strip():
                continue
            record = json.loads(line)
            self._vectors[record["text"]] = EmbeddingVector(
                tuple(float(v) for v in record["vector"])
            )

    def embed(self, text: str) -> EmbeddingVector:
        if not text:
            raise BackendError("cannot embed empty text")
        vector = self._vectors.get(text)
        if vector is None:
            raise BackendError(f"unfixtured embedding text: {text!r}")
        return vector


class TrigramHashEmbedder:
    """Deterministic character-trigram hashing embedder.

    Definition (fixed; tests replicate it independently): NFC-normalize the
    text, wrap it as "\\x02" + text + "\\x03", take every character trigram,
    hash each with SHA-256, and use the digest modulo 2*dim to pick a bucket
    in [0, dim) with sign +1 for values < dim and -1 otherwise. Trigram
    counts accumulate into the signed buckets and the vector is
    L2-normalized.
    """

    backend_id = "trigram-hash"
    remote = False

    def __init__(self, dim: int = 256, model_id: str = "trigram-256"):
        if dim < 1:
            raise BackendError("embedding dim must be >= 1")
        self.dim = dim
        self.model_id = model_id

    def embed(self, text: str) -> EmbeddingVector:
        if not text:
            raise BackendError("cannot embed empty text")
        wrapped = "\x02" + unicodedata.normalize("NFC", text) + "\x03"
        values = [0.0] * self.dim
        for i in range(len(wrapped) - 2):
            trigram = wrapped[i : i + 3]
            digest = hashlib.sha256(trigram.encode("utf-8")).digest()
            bucket = int.from_bytes(digest[:8], "big") % (2 * self.dim)
            if bucket < self.dim:
                values[bucket] += 1.0
            else:
                values[bucket - self.dim] -= 1.0
        norm = math.sqrt(math.fsum(v * v for v in values))
        if norm == 0.0:
            # signed counts can cancel; fall back to a deterministic unit axis
            fallback = int.from_bytes(
                hashlib.sha256(wrapped.encode("utf-8")).digest()[:8], "big"
            ) % self.dim
            values[fallback] = 1.0
            norm = 1.0
        return EmbeddingVector(tuple(v / norm for v in values))
