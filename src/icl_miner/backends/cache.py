"""Persistent response cache keyed by request fingerprints.

One JSON file per fingerprint under the cache root. Writes go through a
temp file plus atomic rename so concurrent workers never observe partial
entries; corrupt entries are treated as misses with a warning. The caching
wrappers let one request per fingerprint through at a time, so identical
requests in flight together reach the backend once.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
import threading
from contextlib import contextmanager
from pathlib import Path

from .base import (
    EmbeddingBackend,
    EmbeddingVector,
    GenerationRequest,
    LLMBackend,
    ScoredCompletion,
)

log = logging.getLogger(__name__)


def fingerprint(backend_id: str, model_id: str, payload: dict) -> str:
    """SHA-256 over the canonical JSON of (backend, model, request fields)."""
    canonical = json.dumps(
        {"backend": backend_id, "model": model_id, "request": payload},
        sort_keys=True,
        ensure_ascii=False,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResponseCache:
    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def contains(self, key: str) -> bool:
        return self._path(key).exists()

    def get(self, key: str) -> dict | None:
        path = self._path(key)
        try:
            raw = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except OSError as exc:
            log.warning("cache read failed for %s: %s", key, exc)
            return None
        try:
            return json.loads(raw)
        except ValueError:
            log.warning("corrupt cache entry %s treated as a miss", key)
            return None

    def put(self, key: str, payload: dict) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        data = json.dumps(payload, sort_keys=True, ensure_ascii=False)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(data)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise


class _SingleFlight:
    """Per-key mutual exclusion: one holder per key, the others wait.

    A caller that held the key while it looked up, fetched and stored an
    entry leaves it cached, so a waiter that takes the key next finds a
    hit. After a failure nothing is cached, and the waiter makes its own
    call.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._held: dict[str, threading.Event] = {}

    @contextmanager
    def hold(self, key: str):
        while True:
            with self._lock:
                done = self._held.get(key)
                if done is None:
                    done = self._held[key] = threading.Event()
                    break
            done.wait()
        try:
            yield
        finally:
            with self._lock:
                del self._held[key]
            done.set()


class _CachingWrapper:
    """Cache lookup, single flight and storage shared by the caching wrappers.

    A subclass names, in `_payload`, the request fields its keys hash.
    """

    def __init__(self, backend: LLMBackend | EmbeddingBackend, cache: ResponseCache):
        self.backend = backend
        self.cache = cache
        self.backend_id = backend.backend_id
        self.model_id = backend.model_id
        self._flights = _SingleFlight()

    def _key(self, query) -> str:
        return fingerprint(self.backend_id, self.model_id, self._payload(query))

    def cached(self, query) -> bool:
        """Whether the cache already holds the answer to `query`."""
        return self.cache.contains(self._key(query))

    def _get_or_fetch(self, query, fetch, encode, decode):
        """The cached answer to `query`, else `fetch(query)`, stored encoded."""
        key = self._key(query)
        with self._flights.hold(key):
            hit = self.cache.get(key)
            if hit is not None:
                return decode(hit)
            answer = fetch(query)
            self.cache.put(key, encode(answer))
            return answer


class CachingLLM(_CachingWrapper):
    """LLM wrapper that serves repeated requests from the cache."""

    def _payload(self, request: GenerationRequest) -> dict:
        return request.to_payload()

    def generate(self, request: GenerationRequest) -> list[ScoredCompletion]:
        return self._get_or_fetch(
            request, self.backend.generate,
            lambda completions: {"completions": [
                {"text": c.text, "score": c.sequence_score} for c in completions
            ]},
            lambda hit: [
                ScoredCompletion(c["text"], float(c["score"]))
                for c in hit["completions"]
            ],
        )


class CachingEmbedder(_CachingWrapper):
    """Embedding wrapper with the same persistent-cache discipline."""

    def _payload(self, text: str) -> dict:
        return {"embed": text}

    def embed(self, text: str) -> EmbeddingVector:
        return self._get_or_fetch(
            text, self.backend.embed,
            lambda vector: {"vector": list(vector.values)},
            lambda hit: EmbeddingVector(tuple(float(v) for v in hit["vector"])),
        )
