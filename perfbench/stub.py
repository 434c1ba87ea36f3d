"""OpenAI-compatible completions and embeddings server backed by the oracle.

Run as its own process:

    python3 perfbench/stub.py --seed 1 --params '{"vocab_size": 60, ...}' \
        --latency-ms 20 --fail-once 4

It prints `listening <port>` once it accepts connections. Every POST sleeps
the injected latency before answering. The first `--fail-once` completion
prompts to arrive among those whose hash falls under FAIL_SHARE get one 503
and succeed on the client's retry. No permanent 4xx is ever sent: the
pipeline's translate stage has no handler for one and would abort.

GET /stats returns the counters of StubState (`distinct` counts request
bodies seen for the first time, so a retry or a duplicate is not counted
again); POST /reset zeroes them and
restores the 503 budget, so every timed run sees the same failures; POST
/dump {"path": ...} writes every prompt answered so far as a mock-backend
fixture (JSONL).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import threading
import time
import zlib
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workload import Language, LanguageParams, unit  # noqa: E402

EMBED_DIM = 64
FAIL_SHARE = 0.02  # completion prompts eligible for an injected 503


def embed(text: str) -> list[float]:
    """Signed character-trigram hashing into EMBED_DIM buckets, unit norm."""
    wrapped = "\x02" + text + "\x03"
    values = [0.0] * EMBED_DIM
    for i in range(len(wrapped) - 2):
        bucket = zlib.crc32(wrapped[i : i + 3].encode("utf-8")) % (2 * EMBED_DIM)
        values[bucket % EMBED_DIM] += 1.0 if bucket < EMBED_DIM else -1.0
    norm = math.sqrt(sum(v * v for v in values))
    if norm == 0.0:
        values[zlib.crc32(wrapped.encode("utf-8")) % EMBED_DIM] = norm = 1.0
    return [v / norm for v in values]


class StubState:
    def __init__(self, language: Language, latency_s: float, fail_once: int):
        self.language = language
        self.latency_s = latency_s
        self.fail_once = fail_once
        self.lock = threading.Lock()
        self.records: dict[str, list[tuple[str, float]]] = {}
        self.reset()

    def reset(self) -> None:
        self.fail_left = self.fail_once
        self.failed_keys: set[str] = set()
        self.bodies: set[bytes] = set()
        self.stats = {
            "requests": 0, "distinct": 0, "completions": 0, "embeddings": 0, "retries": 0,
            "inflight": 0, "max_inflight": 0, "handling_s": 0.0,
        }

    def enter(self, path: str, body: bytes) -> None:
        key = hashlib.blake2b(path.encode("utf-8") + b"\0" + body, digest_size=16).digest()
        with self.lock:
            self.stats["requests"] += 1
            self.bodies.add(key)
            self.stats["distinct"] = len(self.bodies)
            self.stats["inflight"] += 1
            self.stats["max_inflight"] = max(
                self.stats["max_inflight"], self.stats["inflight"]
            )

    def leave(self, elapsed: float) -> None:
        with self.lock:
            self.stats["inflight"] -= 1
            self.stats["handling_s"] += elapsed

    def fails_once(self, prompt: str) -> bool:
        if unit(self.language.seed, "fail", prompt) >= FAIL_SHARE:
            return False
        with self.lock:
            if self.fail_left <= 0 or prompt in self.failed_keys:
                return False
            self.fail_left -= 1
            self.failed_keys.add(prompt)
            self.stats["retries"] += 1
            return True


class Handler(BaseHTTPRequestHandler):
    state: StubState

    def _send(self, status: int, payload: dict) -> None:
        data = json.dumps(payload).encode("utf-8")
        reason = self.responses.get(status, ("",))[0]
        head = (
            f"HTTP/1.0 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n"
            "Connection: close\r\n\r\n"
        ).encode("ascii")
        # one write: headers and body in separate segments would meet the
        # client's delayed ACK and stall each request by about 40 ms
        self.wfile.write(head + data)
        self.close_connection = True

    def do_GET(self) -> None:
        state = self.state
        with state.lock:
            stats = dict(state.stats)
        self._send(200, stats)

    def do_POST(self) -> None:
        state = self.state
        raw = self.rfile.read(int(self.headers["Content-Length"]))
        body = json.loads(raw)
        if self.path == "/dump":
            self._dump(body["path"])
            return
        if self.path == "/reset":
            with state.lock:
                state.reset()
            self._send(200, {})
            return
        started = time.perf_counter()
        state.enter(self.path, raw)
        try:
            status, payload = self._answer(body)
            time.sleep(state.latency_s)
        finally:
            # leave before answering: once the client has the answer it may
            # send its next request, which must not overlap this one here
            state.leave(time.perf_counter() - started)
        self._send(status, payload)

    def _answer(self, body: dict) -> tuple[int, dict]:
        state = self.state
        if self.path.endswith("/embeddings"):
            vector = embed(body["input"][0])
            with state.lock:
                state.stats["embeddings"] += 1
            return 200, {"data": [{"embedding": vector}]}
        if not self.path.endswith("/completions"):
            return 404, {"error": self.path}
        prompt = body["prompt"]
        if state.fails_once(prompt):
            return 503, {"error": "injected transient failure"}
        completions = state.language.answer(prompt)
        with state.lock:
            state.stats["completions"] += 1
            state.records[prompt] = completions
        return 200, {
            "choices": [
                {"text": text, "logprobs": {"token_logprobs": [score]}}
                for text, score in completions
            ]
        }

    def _dump(self, path: str) -> None:
        with self.state.lock:
            records = dict(self.state.records)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for prompt in sorted(records):
                completions = [
                    {"text": text, "score": score} for text, score in records[prompt]
                ]
                fh.write(json.dumps(
                    {"prompt": prompt, "completions": completions},
                    ensure_ascii=False, sort_keys=True,
                ))
                fh.write("\n")
        self._send(200, {"prompts": len(records)})

    def log_message(self, *args) -> None:
        pass


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--params", required=True, help="LanguageParams as JSON")
    parser.add_argument("--latency-ms", type=float, default=0.0)
    parser.add_argument("--fail-once", type=int, default=0)
    args = parser.parse_args()
    language = Language(LanguageParams(**json.loads(args.params)), args.seed)
    Handler.state = StubState(language, args.latency_ms / 1000.0, args.fail_once)
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    print(f"listening {server.server_port}", flush=True)
    server.serve_forever(poll_interval=0.05)


if __name__ == "__main__":
    main()
