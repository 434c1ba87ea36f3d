"""Persistent response cache keyed by request fingerprints.

Entries live in append-only segment files under the cache root, one line
per entry; `ResponseCache` documents the format and its limits. The caching
wrappers let one request per fingerprint through at a time, so identical
requests in flight together reach the backend once.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import time
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
    run and is skipped. `contains` is an index lookup; `get` reads the value
    bytes back, and an unreadable or undecodable value is a miss with a
    warning.

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

    def contains(self, key: str) -> bool:
        return key in self._index

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
