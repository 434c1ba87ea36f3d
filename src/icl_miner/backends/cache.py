"""Persistent response cache keyed by request fingerprints.

Entries live in append-only segment files under the cache root, one line
per entry; `ResponseCache` documents the format and its limits. The caching
wrappers answer a list of distinct requests at once: they look every one
up on the calling thread and send only the misses to the backend.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from ..errors import BackendError
from .base import (
    EmbeddingBackend,
    EmbeddingVector,
    GenerationRequest,
    LLMBackend,
    ScoredCompletion,
)

log = logging.getLogger(__name__)

_KEY_LEN = 64  # hex digits of a SHA-256 fingerprint


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
    """Fingerprint -> JSON payload, stored in append-only segment files.

    Each instance (one per process in a run) appends to its own
    `<root>/seg-<pid>-<time_ns>.jsonl`, created at its first put, so a run
    that only hits the cache writes nothing. An entry is one line,
    `<64-hex key> <json>` and a newline, so a scan reads the key without
    decoding the value. A put writes its line in one `os.write` on a descriptor opened
    with `O_APPEND` for that put alone, so no descriptor stays open.
    Writes are not fsynced.

    Opening the cache reads every segment once, in name order, into an
    in-memory index of where each value lies; if a key appears twice the
    later line wins (backends are deterministic, so both hold the same
    answer). A last line without its newline is a write torn by a killed
    run and is skipped. `get` reads the value bytes back, and an unreadable
    or undecodable value is a miss with a warning.

    A process sees only the entries other processes wrote before it opened
    the cache, so two runs at once may both send one request. Entries in the
    old one-file-per-entry layout (`xx/<key>.json`) are not read: they are
    misses.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._segment: Path | None = None  # this instance's, made at its first put
        self._index: dict[str, tuple[Path, int, int]] = {}  # key -> segment, offset, length
        for segment in sorted(self.root.glob("seg-*.jsonl")):
            self._scan(segment)

    def _scan(self, segment: Path) -> None:
        try:
            data = segment.read_bytes()
        except OSError as exc:
            log.warning("unreadable cache segment %s skipped: %s", segment, exc)
            return
        start = 0
        while (end := data.find(b"\n", start)) >= 0:
            if data[start + _KEY_LEN:start + _KEY_LEN + 1] == b" ":
                key = data[start:start + _KEY_LEN].decode("ascii", "replace")
                value = start + _KEY_LEN + 1
                self._index[key] = (segment, value, end - value)
            start = end + 1

    def get(self, key: str) -> dict | None:
        entry = self._index.get(key)
        if entry is None:
            return None
        segment, offset, length = entry
        try:
            fd = os.open(segment, os.O_RDONLY)
            try:
                raw = os.pread(fd, length, offset)
            finally:
                os.close(fd)
        except OSError as exc:
            log.warning("cache read failed for %s: %s", key, exc)
            return None
        try:
            return json.loads(raw)
        except ValueError:
            log.warning("corrupt cache entry %s treated as a miss", key)
            return None

    def put(self, key: str, payload: dict) -> None:
        value = json.dumps(payload, sort_keys=True, ensure_ascii=False).encode("utf-8")
        line = b"%s %s\n" % (key.encode("ascii"), value)
        with self._lock:
            if self._segment is None:
                self._segment = self.root / f"seg-{os.getpid()}-{time.time_ns()}.jsonl"
            fd = os.open(self._segment, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
            try:
                if os.write(fd, line) != len(line):
                    raise OSError(f"short write to cache segment {self._segment}")
                end = os.lseek(fd, 0, os.SEEK_CUR)
            finally:
                os.close(fd)
            self._index[key] = (self._segment, end - len(value) - 1, len(value))


class _CachingWrapper:
    """Cache lookup, fan-out and storage shared by the caching wrappers.

    A subclass names, in `_payload`, the request fields its keys hash, and
    how an answer is stored (`_encode`) and read back (`_decode`). Up to
    `max_workers` misses are sent at once; give more than 1 only to a
    backend that waits on a network.
    """

    def __init__(
        self, backend: LLMBackend | EmbeddingBackend, cache: ResponseCache,
        max_workers: int = 1,
    ):
        self.backend = backend
        self.cache = cache
        self.max_workers = max_workers
        self.backend_id = backend.backend_id
        self.model_id = backend.model_id

    def _answer_all(self, queries: list, fetch) -> list:
        """The answer to each of the distinct `queries`, in order, or the
        BackendError that `fetch` raised for it.

        Each query is fingerprinted once and looked up on the calling
        thread; only the misses go to `fetch`, from worker threads when
        more than one may be in flight. Answers are stored as they come
        back, in input order; a failure is not stored, so the next call
        sends it again.
        """
        keys = [
            fingerprint(self.backend_id, self.model_id, self._payload(query))
            for query in queries
        ]
        answers = [
            None if hit is None else self._decode(hit)
            for hit in map(self.cache.get, keys)
        ]
        misses = [i for i, answer in enumerate(answers) if answer is None]

        def attempt(i: int):
            try:
                return fetch(queries[i])
            except BackendError as exc:
                return exc

        def store(fetched) -> list:
            for i, answer in zip(misses, fetched):
                if not isinstance(answer, BackendError):
                    self.cache.put(keys[i], self._encode(answer))
                answers[i] = answer
            return answers

        if self.max_workers > 1 and len(misses) > 1:
            with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
                return store(pool.map(attempt, misses))
        return store(map(attempt, misses))

    def _answer(self, query, fetch):
        [answer] = self._answer_all([query], fetch)
        if isinstance(answer, BackendError):
            raise answer
        return answer


class CachingLLM(_CachingWrapper):
    """LLM wrapper that serves repeated requests from the cache."""

    def _payload(self, request: GenerationRequest) -> dict:
        return request.to_payload()

    def _encode(self, completions: list[ScoredCompletion]) -> dict:
        return {"completions": [
            {"text": c.text, "score": c.sequence_score} for c in completions
        ]}

    def _decode(self, hit: dict) -> list[ScoredCompletion]:
        return [
            ScoredCompletion(c["text"], float(c["score"])) for c in hit["completions"]
        ]

    def generate_all(
        self, requests: list[GenerationRequest]
    ) -> list[list[ScoredCompletion] | BackendError]:
        """The completions of each distinct request, or its BackendError."""
        return self._answer_all(requests, self.backend.generate)

    def generate(self, request: GenerationRequest) -> list[ScoredCompletion]:
        return self._answer(request, self.backend.generate)


class CachingEmbedder(_CachingWrapper):
    """Embedding wrapper with the same persistent-cache discipline."""

    def _payload(self, text: str) -> dict:
        return {"embed": text}

    def _encode(self, vector: EmbeddingVector) -> dict:
        return {"vector": list(vector.values)}

    def _decode(self, hit: dict) -> EmbeddingVector:
        return EmbeddingVector(tuple(map(float, hit["vector"])))

    def embed_all(self, texts: list[str]) -> list[EmbeddingVector | BackendError]:
        """The vector of each distinct text, or its BackendError."""
        return self._answer_all(texts, self.backend.embed)

    def embed(self, text: str) -> EmbeddingVector:
        return self._answer(text, self.backend.embed)
