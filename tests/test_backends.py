from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import time
import unicodedata
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from icl_miner.backends import (
    CachingEmbedder,
    CachingLLM,
    DecodingMode,
    EmbeddingVector,
    FixtureEmbeddingBackend,
    GenerationRequest,
    HttpEmbeddingBackend,
    HttpLLMBackend,
    MockLLMBackend,
    ResponseCache,
    ScoredCompletion,
    SimilarityScorer,
    StopCondition,
    TrigramHashEmbedder,
    cosine,
    fingerprint,
    parallel_map,
)
from icl_miner.backends import http
from icl_miner.backends.base import generate_each
from icl_miner.errors import BackendError, BackendRejected

from conftest import repo_root


# Puts n entries, then dies in the middle of writing one more line.
CHILD_PUTS_THEN_DIES = """
import glob
import os
from icl_miner.backends import ResponseCache
cache = ResponseCache({root!r})
for i in range({n}):
    cache.put(f"{{i:064x}}", {{"i": i}})
[segment] = glob.glob(os.path.join({root!r}, "seg-*.jsonl"))
fd = os.open(segment, os.O_WRONLY | os.O_APPEND)
os.write(fd, b"f" * 64 + b' {{"i": ')
os._exit(137)
"""


def segments(root):
    return sorted(root.glob("seg-*.jsonl"))


def write_llm_fixture(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


@pytest.fixture
def simple_fixture(tmp_path):
    path = tmp_path / "llm.jsonl"
    write_llm_fixture(
        path,
        [
            {
                "prompt": "P",
                "completions": [
                    {"text": "chat", "score": -1.0},
                    {"text": "chien", "score": -2.5},
                ],
            },
            {
                "prompt": "Q",
                "completions": [{"text": " le chat noir", "score": -3.0}],
            },
        ],
    )
    return path


class TestDecodingMode:
    def test_greedy_single_sample_enforced(self):
        with pytest.raises(BackendError):
            GenerationRequest(prompt="x", num_samples=3, mode=DecodingMode.greedy())

    def test_temperature_must_be_positive(self):
        with pytest.raises(BackendError):
            DecodingMode.random_sampling(temperature=0.0)

    def test_beam_width_validated(self):
        with pytest.raises(BackendError):
            DecodingMode.beam(0)


class TestStopCondition:
    def test_whitespace_rule_ignores_leading_space(self):
        stop = StopCondition.whitespace()
        assert stop.truncate(" cat et chien") == "cat"

    def test_substring_stop_excluded(self):
        stop = StopCondition.at("\n")
        assert stop.truncate(" the cat\nthe dog") == "the cat"

    def test_no_stop_just_strips(self):
        assert StopCondition().truncate("  text  ") == "text"


class TestMockLLM:
    def test_fixture_echo_in_order(self, simple_fixture):
        backend = MockLLMBackend(simple_fixture)
        request = GenerationRequest(
            prompt="P",
            num_samples=2,
            mode=DecodingMode.random_sampling(seed=0),
        )
        completions = backend.generate(request)
        assert [c.text for c in completions] == ["chat", "chien"]
        assert [c.sequence_score for c in completions] == [-1.0, -2.5]

    def test_greedy_returns_exactly_one(self, simple_fixture):
        backend = MockLLMBackend(simple_fixture)
        request = GenerationRequest(prompt="P", num_samples=1)
        assert len(backend.generate(request)) == 1

    def test_unfixtured_prompt_is_an_error(self, simple_fixture):
        backend = MockLLMBackend(simple_fixture)
        with pytest.raises(BackendError, match="unfixtured prompt"):
            backend.generate(GenerationRequest(prompt="missing"))

    def test_whitespace_stop_applied(self, simple_fixture):
        backend = MockLLMBackend(simple_fixture)
        request = GenerationRequest(
            prompt="Q", num_samples=1, stop=StopCondition.whitespace()
        )
        assert backend.generate(request)[0].text == "le"

    def test_call_counter(self, simple_fixture):
        backend = MockLLMBackend(simple_fixture)
        assert backend.call_count == 0
        backend.generate(GenerationRequest(prompt="P"))
        backend.generate(GenerationRequest(prompt="Q"))
        assert backend.call_count == 2

    def test_repeated_calls_identical(self, simple_fixture):
        backend = MockLLMBackend(simple_fixture)
        request = GenerationRequest(
            prompt="P", num_samples=2, mode=DecodingMode.random_sampling(seed=1)
        )
        assert backend.generate(request) == backend.generate(request)


def replicate_trigram_definition(text: str, dim: int) -> list[float]:
    """Independent re-implementation of the published trigram-hash spec."""
    wrapped = "\x02" + unicodedata.normalize("NFC", text) + "\x03"
    values = [0.0] * dim
    for i in range(len(wrapped) - 2):
        digest = hashlib.sha256(wrapped[i : i + 3].encode("utf-8")).digest()
        bucket = int.from_bytes(digest[:8], "big") % (2 * dim)
        if bucket < dim:
            values[bucket] += 1.0
        else:
            values[bucket - dim] -= 1.0
    norm = math.sqrt(sum(v * v for v in values))
    return [v / norm for v in values]


class TestTrigramHashEmbedder:
    def test_deterministic(self):
        embedder = TrigramHashEmbedder()
        assert embedder.embed("abc") == embedder.embed("abc")

    def test_unit_norm(self):
        vector = TrigramHashEmbedder().embed("the quick brown fox")
        norm = math.sqrt(sum(v * v for v in vector.values))
        assert norm == pytest.approx(1.0, abs=1e-9)

    def test_matches_published_definition(self):
        embedder = TrigramHashEmbedder(dim=64)
        for text in ("abc", "hello world", "ünïcödé"):
            expected = replicate_trigram_definition(text, 64)
            assert list(embedder.embed(text).values) == pytest.approx(expected)

    def test_unrelated_strings_not_identical(self):
        embedder = TrigramHashEmbedder()
        sim = cosine(embedder.embed("completely unrelated"), embedder.embed("zzz qqq"))
        assert sim < 1.0

    def test_empty_text_rejected(self):
        with pytest.raises(BackendError):
            TrigramHashEmbedder().embed("")

    def test_single_char_text_works(self):
        vector = TrigramHashEmbedder().embed("a")
        assert vector.dim == 256


class TestCosine:
    def test_self_similarity_is_1(self):
        v = EmbeddingVector((0.3, -0.4, 0.5))
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_is_0(self):
        assert cosine(EmbeddingVector((1.0, 0.0)), EmbeddingVector((0.0, 1.0))) == 0.0

    def test_hand_computed_value(self):
        # 32 / sqrt(14 * 77), evaluated by hand as the oracle
        got = cosine(EmbeddingVector((1.0, 2.0, 3.0)), EmbeddingVector((4.0, 5.0, 6.0)))
        assert got == pytest.approx(0.974631846, abs=1e-9)

    def test_dim_mismatch(self):
        with pytest.raises(BackendError):
            cosine(EmbeddingVector((1.0,)), EmbeddingVector((1.0, 2.0)))

    def test_zero_vector_rejected(self):
        with pytest.raises(BackendError):
            cosine(EmbeddingVector((0.0, 0.0)), EmbeddingVector((1.0, 0.0)))

    def test_clamped_range(self):
        v = EmbeddingVector(tuple(0.1 * i for i in range(1, 30)))
        assert -1.0 <= cosine(v, v) <= 1.0


class TestSimilarityScorer:
    def test_identical_input_sim_1(self):
        scorer = SimilarityScorer(TrigramHashEmbedder())
        assert scorer.sim("same text", "same text") == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self):
        scorer = SimilarityScorer(TrigramHashEmbedder())
        assert scorer.sim("one text", "two text") == scorer.sim("two text", "one text")

    def test_empty_text_rejected(self):
        scorer = SimilarityScorer(TrigramHashEmbedder())
        with pytest.raises(BackendError):
            scorer.sim("", "x")

    def test_memoizes_embeddings(self):
        calls = []

        class CountingEmbedder:
            backend_id = "count"
            model_id = "count"

            def embed(self, text):
                calls.append(text)
                return EmbeddingVector((1.0, 0.0))

        scorer = SimilarityScorer(CountingEmbedder())
        scorer.sim("a", "b")
        scorer.sim("a", "b")
        assert calls == ["a", "b"]

    def test_sims_embeds_distinct_texts_concurrently(self):
        calls, in_flight, peak = [], [0], [0]
        lock = threading.Lock()

        class SlowEmbedder:
            backend_id = "slow"
            model_id = "slow"

            def embed(self, text):
                with lock:
                    calls.append(text)
                    in_flight[0] += 1
                    peak[0] = max(peak[0], in_flight[0])
                time.sleep(0.05)
                with lock:
                    in_flight[0] -= 1
                return EmbeddingVector((float(ord(text)), 1.0))

        scorer = SimilarityScorer(SlowEmbedder(), max_workers=3)
        pairs = [("a", "b"), ("b", "c"), ("a", "c"), ("d", "a")]
        assert scorer.sims(pairs) == [scorer.sim(x, y) for x, y in pairs]
        assert sorted(calls) == ["a", "b", "c", "d"]
        assert 1 < peak[0] <= 3


class TestParallelMap:
    def test_order_kept_and_local_items_run_in_calling_thread(self):
        threads = {}

        def fn(x):
            threads[x] = threading.get_ident()
            time.sleep(0.01)
            return x * 10

        items = list(range(8))
        got = parallel_map(fn, items, max_workers=3, local=lambda x: x % 2 == 0)
        assert got == [x * 10 for x in items]
        caller = threading.get_ident()
        assert all(threads[x] == caller for x in items if x % 2 == 0)
        assert all(threads[x] != caller for x in items if x % 2 == 1)


class TestGenerateEach:
    def test_distinct_requests_once_and_cache_hits_in_calling_thread(self):
        calls = []

        class FakeLLM:
            def cached(self, request):
                return request.prompt == "hit"

            def generate(self, request):
                calls.append((request.prompt, threading.get_ident()))
                time.sleep(0.01)
                if request.prompt == "bad":
                    raise BackendError("down")
                return [ScoredCompletion(request.prompt.upper(), 0.0)]

        prompts = ["hit", "b", "bad", "b", "hit"]
        got = generate_each(
            FakeLLM(), [GenerationRequest(prompt=p) for p in prompts], max_workers=2
        )
        assert [r[0].text if r else None for r in got] == [
            "HIT", "B", None, "B", "HIT"
        ]
        assert sorted(prompt for prompt, _ in calls) == ["b", "bad", "hit"]
        caller = threading.get_ident()
        assert all((thread == caller) == (p == "hit") for p, thread in calls)

    class Failing:
        """Raw backend that rejects every prompt starting with "bad"."""

        backend_id, model_id = "failing", "m"

        def __init__(self):
            self.calls = []

        def generate(self, request):
            self.calls.append(request.prompt)
            if request.prompt.startswith("bad"):
                raise BackendRejected(f"rejected {request.prompt}")
            return [ScoredCompletion(request.prompt.upper(), 0.0)]

    @pytest.mark.parametrize("max_workers", [1, 4])
    def test_exactly_half_failing_is_tolerated_and_one_more_aborts(self, max_workers):
        def run(prompts):
            requests = [GenerationRequest(prompt=p) for p in prompts]
            return generate_each(self.Failing(), requests, max_workers, "lines")

        got = run(["ok", "bad", "ok2", "bad"])
        ok, ok2 = [ScoredCompletion("OK", 0.0)], [ScoredCompletion("OK2", 0.0)]
        assert got == [ok, [], ok2, []]
        # repeats count as passed: one distinct failure is 3 of 5 requests
        with pytest.raises(BackendError, match="3/5 lines failed; aborting"):
            run(["ok", "bad", "ok2", "bad", "bad"])

    @pytest.mark.parametrize("max_workers", [1, 4])
    def test_abort_is_chained_from_first_failure_in_input_order(self, max_workers):
        class SlowFirst(self.Failing):
            def generate(self, request):
                if request.prompt == "bad-first":
                    time.sleep(0.05)  # the later failure comes back first
                return super().generate(request)

        prompts = ("ok", "bad-first", "bad-second")
        requests = [GenerationRequest(prompt=p) for p in prompts]
        with pytest.raises(BackendError, match=r"2/3 .* rejected bad-first") as info:
            generate_each(SlowFirst(), requests, max_workers)
        assert isinstance(info.value.__cause__, BackendRejected)
        assert str(info.value.__cause__) == "rejected bad-first"

    def test_failed_request_is_sent_once_and_not_cached(self, tmp_path, caplog):
        backend = self.Failing()
        llm = CachingLLM(backend, ResponseCache(tmp_path / "cache"))
        bad, ok = GenerationRequest(prompt="bad"), GenerationRequest(prompt="ok")
        got = generate_each(llm, [bad, ok, bad, ok], max_workers=4)
        assert got == [[], [ScoredCompletion("OK", 0.0)]] * 2
        assert sorted(backend.calls) == ["bad", "ok"]
        assert len(caplog.records) == 1 and "rejected bad" in caplog.text
        assert llm.cached(ok) and not llm.cached(bad)
        # a second call gets the success from the cache and sends the failure again
        generate_each(llm, [bad, ok], max_workers=4)
        assert sorted(backend.calls) == ["bad", "bad", "ok"]


class TestFixtureEmbedding:
    def test_serves_fixture_vectors(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text(
            json.dumps({"text": "hello", "vector": [1.0, 0.0]}) + "\n",
            encoding="utf-8",
        )
        backend = FixtureEmbeddingBackend(path)
        assert backend.embed("hello").values == (1.0, 0.0)
        with pytest.raises(BackendError, match="unfixtured"):
            backend.embed("other")


class TestResponseCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        cache.put("ab" * 32, {"x": [1, 2]})
        assert cache.get("ab" * 32) == {"x": [1, 2]}

    def test_miss_returns_none(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        assert cache.get("cd" * 32) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path, caplog):
        cache = ResponseCache(tmp_path / "cache")
        key = "ef" * 32
        cache.put(key, {"ok": True})
        [segment] = segments(tmp_path / "cache")
        line = f'{key} {{"ok": true}}\n'.encode()
        assert segment.read_bytes() == line
        # same length, so the recorded offset and length still frame the value
        segment.write_bytes(line.replace(b'{"ok": true}', b"{broken!!!!}"))
        assert cache.get(key) is None
        assert "corrupt cache entry" in caplog.text

    def test_later_line_of_a_key_wins_on_reopen(self, tmp_path):
        root = tmp_path / "cache"
        cache = ResponseCache(root)
        cache.put("ab" * 32, {"n": 1})
        cache.put("ab" * 32, {"n": 2})
        assert cache.get("ab" * 32) == {"n": 2}
        assert ResponseCache(root).get("ab" * 32) == {"n": 2}

    def test_torn_last_line_is_skipped_on_reopen(self, tmp_path):
        root = tmp_path / "cache"
        ResponseCache(root).put("01" * 32, {"n": 1})
        [segment] = segments(root)
        with open(segment, "ab") as fh:
            fh.write(b"02" * 32 + b' {"n": ')
        reopened = ResponseCache(root)
        assert reopened.get("01" * 32) == {"n": 1}
        assert not reopened.contains("02" * 32)
        reopened.put("02" * 32, {"n": 2})
        assert reopened.get("02" * 32) == {"n": 2}
        assert ResponseCache(root).get("02" * 32) == {"n": 2}

    def test_concurrent_puts_read_back_from_a_fresh_cache(self, tmp_path):
        root = tmp_path / "cache"
        cache = ResponseCache(root)
        keys = [[f"{t:02x}{i:02x}".ljust(64, "0") for i in range(50)] for t in range(8)]

        def put_all(thread_keys):
            for key in thread_keys:
                cache.put(key, {"key": key, "pad": "x" * (int(key[:4], 16) % 97)})

        threads = [threading.Thread(target=put_all, args=(k,)) for k in keys]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        fresh = ResponseCache(root)
        for key in (key for thread_keys in keys for key in thread_keys):
            got = fresh.get(key)
            assert got["key"] == key and got == cache.get(key)
        assert len(segments(root)) == 1

    def test_serving_hits_creates_no_segment(self, tmp_path):
        root = tmp_path / "cache"
        ResponseCache(root).put("ab" * 32, {"x": 1})
        before = segments(root)
        reader = ResponseCache(root)
        assert reader.contains("ab" * 32) and reader.get("ab" * 32) == {"x": 1}
        assert reader.get("cd" * 32) is None
        assert segments(root) == before

    def test_reopened_cache_sees_another_instances_puts(self, tmp_path):
        root = tmp_path / "cache"
        first, second = ResponseCache(root), ResponseCache(root)
        first.put("ab" * 32, {"from": "first"})
        second.put("cd" * 32, {"from": "second"})
        third = ResponseCache(root)
        assert third.get("ab" * 32) == {"from": "first"}
        assert third.get("cd" * 32) == {"from": "second"}
        # an instance opened before a put does not see it
        assert not first.contains("cd" * 32)

    def test_old_layout_entry_is_a_miss(self, tmp_path):
        root = tmp_path / "cache"
        key = "ab" * 32
        (root / "ab").mkdir(parents=True)
        (root / "ab" / f"{key}.json").write_text('{"x": 1}', encoding="utf-8")
        cache = ResponseCache(root)
        assert not cache.contains(key)
        assert cache.get(key) is None

    def test_entries_survive_a_killed_writer(self, tmp_path):
        root = tmp_path / "cache"
        child = CHILD_PUTS_THEN_DIES.format(root=str(root), n=20)
        env = {**os.environ, "PYTHONPATH": str(repo_root() / "src")}
        done = subprocess.run(
            [sys.executable, "-c", child], env=env,
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 137, done.stderr
        cache = ResponseCache(root)
        for i in range(20):
            assert cache.get(f"{i:064x}") == {"i": i}
        assert not cache.contains("f" * 64)
        assert cache.get("f" * 64) is None

    def test_fingerprint_sensitive_to_temperature(self):
        request_a = GenerationRequest(
            prompt="p", num_samples=2, mode=DecodingMode.random_sampling(0.7, 1)
        )
        request_b = GenerationRequest(
            prompt="p", num_samples=2, mode=DecodingMode.random_sampling(0.9, 1)
        )
        assert fingerprint("b", "m", request_a.to_payload()) != fingerprint(
            "b", "m", request_b.to_payload()
        )

    def test_fingerprint_sensitive_to_seed_and_model(self):
        request = GenerationRequest(prompt="p")
        assert fingerprint("b", "m1", request.to_payload()) != fingerprint(
            "b", "m2", request.to_payload()
        )
        seeded_a = GenerationRequest(
            prompt="p", mode=DecodingMode.random_sampling(1.0, seed=1)
        )
        seeded_b = GenerationRequest(
            prompt="p", mode=DecodingMode.random_sampling(1.0, seed=2)
        )
        assert fingerprint("b", "m", seeded_a.to_payload()) != fingerprint(
            "b", "m", seeded_b.to_payload()
        )


class TestCachingWrappers:
    def test_second_call_hits_cache(self, tmp_path, simple_fixture):
        backend = MockLLMBackend(simple_fixture)
        caching = CachingLLM(backend, ResponseCache(tmp_path / "cache"))
        request = GenerationRequest(prompt="P", num_samples=2,
                                    mode=DecodingMode.random_sampling(seed=0))
        first = caching.generate(request)
        second = caching.generate(request)
        assert first == second
        assert backend.call_count == 1

    def test_cache_shared_across_instances(self, tmp_path, simple_fixture):
        cache_dir = tmp_path / "cache"
        request = GenerationRequest(prompt="P", num_samples=2,
                                    mode=DecodingMode.random_sampling(seed=0))
        CachingLLM(MockLLMBackend(simple_fixture), ResponseCache(cache_dir)).generate(
            request
        )
        fresh_backend = MockLLMBackend(simple_fixture)
        fresh = CachingLLM(fresh_backend, ResponseCache(cache_dir))
        fresh.generate(request)
        assert fresh_backend.call_count == 0

    def test_embedding_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        calls = []

        class CountingEmbedder:
            backend_id = "count"
            model_id = "count"

            def embed(self, text):
                calls.append(text)
                return EmbeddingVector((0.6, 0.8))

        caching = CachingEmbedder(CountingEmbedder(), ResponseCache(cache_dir))
        assert caching.embed("x") == caching.embed("x")
        assert calls == ["x"]

    def test_concurrent_generates_consistent(self, tmp_path, simple_fixture):
        backend = MockLLMBackend(simple_fixture)
        caching = CachingLLM(backend, ResponseCache(tmp_path / "cache"))
        request = GenerationRequest(prompt="P", num_samples=2,
                                    mode=DecodingMode.random_sampling(seed=0))
        results = []

        def call():
            results.append(caching.generate(request))

        threads = [threading.Thread(target=call) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r == results[0] for r in results)

    @staticmethod
    def _slow_backend(fail_first: bool = False):
        """LLM and embedder in one: each call sleeps, then counts itself."""

        class SlowBackend:
            backend_id = "slow"
            model_id = "slow"

            def __init__(self):
                self.calls = 0
                self.lock = threading.Lock()

            def _call(self):
                time.sleep(0.05)
                with self.lock:
                    self.calls += 1
                    if fail_first and self.calls == 1:
                        raise BackendError("transient")

            def generate(self, request):
                self._call()
                return [ScoredCompletion("chat", -1.0)]

            def embed(self, text):
                self._call()
                return EmbeddingVector((0.6, 0.8))

        return SlowBackend()

    @staticmethod
    def _in_threads(fn, n=6):
        """Run fn in n threads at once, switching threads often."""
        results, errors = [], []

        def run():
            try:
                results.append(fn())
            except BackendError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=run) for _ in range(n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        return results, errors

    def test_identical_generates_in_flight_reach_backend_once(self, tmp_path):
        backend = self._slow_backend()
        caching = CachingLLM(backend, ResponseCache(tmp_path / "cache"))
        results, errors = self._in_threads(
            lambda: caching.generate(GenerationRequest(prompt="P"))
        )
        assert backend.calls == 1
        assert not errors
        assert results == [[ScoredCompletion("chat", -1.0)]] * 6

    def test_identical_embeds_in_flight_reach_backend_once(self, tmp_path):
        backend = self._slow_backend()
        caching = CachingEmbedder(backend, ResponseCache(tmp_path / "cache"))
        results, errors = self._in_threads(lambda: caching.embed("x"))
        assert backend.calls == 1
        assert not errors
        assert results == [EmbeddingVector((0.6, 0.8))] * 6

    def test_failure_is_not_shared_with_waiters(self, tmp_path):
        backend = self._slow_backend(fail_first=True)
        caching = CachingLLM(backend, ResponseCache(tmp_path / "cache"))
        results, errors = self._in_threads(
            lambda: caching.generate(GenerationRequest(prompt="P"))
        )
        # the failed call is not cached: the next waiter calls again and
        # the rest read its cached result
        assert backend.calls == 2
        assert len(errors) == 1
        assert len(results) == 5


# --------------------------------------------------------------------------
# HTTP backend against a local stub server
# --------------------------------------------------------------------------


class _StubHandler(BaseHTTPRequestHandler):
    fail_next = 0
    fail_status = 503
    requests_seen: list = []
    auth_seen: list = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        type(self).requests_seen.append((self.path, body))
        type(self).auth_seen.append(self.headers.get("Authorization"))
        if type(self).fail_next > 0:
            type(self).fail_next -= 1
            self.send_response(type(self).fail_status)
            self.end_headers()
            return
        if self.path.endswith("/completions"):
            payload = {
                "choices": [
                    {
                        "text": " chat",
                        "logprobs": {"token_logprobs": [-0.5, -0.25]},
                    },
                    {"text": " chien", "logprobs": None},
                ][: body.get("n", 1)]
            }
        else:
            payload = {"data": [{"embedding": [0.6, 0.8]}]}
        data = json.dumps(payload).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    _StubHandler.fail_next = 0
    _StubHandler.fail_status = 503
    _StubHandler.requests_seen = []
    _StubHandler.auth_seen = []
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1"
    server.shutdown()
    server.server_close()


class TestHttpBackend:
    def test_generate_parses_logprob_scores(self, stub_server):
        backend = HttpLLMBackend(stub_server, "test-model", api_key="k")
        request = GenerationRequest(
            prompt="The Avalian word \"luma\" in Zorvan is:",
            num_samples=2,
            mode=DecodingMode.random_sampling(0.8, seed=7),
            stop=StopCondition.whitespace(),
        )
        completions = backend.generate(request)
        assert [c.text for c in completions] == ["chat", "chien"]
        assert completions[0].sequence_score == pytest.approx(-0.75)
        assert completions[1].sequence_score == -2.0  # provider rank fallback

    def test_request_carries_sampling_fields(self, stub_server):
        backend = HttpLLMBackend(stub_server, "test-model", api_key="k")
        backend.generate(
            GenerationRequest(
                prompt="p", num_samples=2,
                mode=DecodingMode.random_sampling(0.8, seed=7),
            )
        )
        path, body = _StubHandler.requests_seen[-1]
        assert path.endswith("/completions")
        assert body["model"] == "test-model"
        assert body["n"] == 2
        assert body["temperature"] == 0.8
        assert body["seed"] == 7

    def test_retries_on_5xx(self, stub_server, monkeypatch):
        monkeypatch.setattr(http, "RETRY_BASE_DELAY", 0.0)
        _StubHandler.fail_next = 2
        backend = HttpLLMBackend(stub_server, "test-model", api_key="k")
        completions = backend.generate(GenerationRequest(prompt="p"))
        assert completions  # succeeded on the third attempt

    def test_gives_up_after_retries(self, stub_server, monkeypatch):
        monkeypatch.setattr(http, "RETRY_BASE_DELAY", 0.0)
        _StubHandler.fail_next = 5
        backend = HttpLLMBackend(stub_server, "test-model", api_key="k")
        with pytest.raises(BackendError, match="failed after 3 attempts"):
            backend.generate(GenerationRequest(prompt="p"))

    def test_4xx_is_rejected_without_retry(self, stub_server, monkeypatch):
        monkeypatch.setattr(http, "RETRY_BASE_DELAY", 0.0)
        _StubHandler.fail_next, _StubHandler.fail_status = 1, 400
        backend = HttpLLMBackend(stub_server, "test-model", api_key="k")
        with pytest.raises(BackendRejected, match="rejected request \\(400\\)"):
            backend.generate(GenerationRequest(prompt="p"))
        assert len(_StubHandler.requests_seen) == 1
        assert BackendRejected.exit_code == BackendError.exit_code

    def test_5xx_is_retried(self, stub_server, monkeypatch):
        monkeypatch.setattr(http, "RETRY_BASE_DELAY", 0.0)
        _StubHandler.fail_next, _StubHandler.fail_status = 1, 500
        backend = HttpEmbeddingBackend(stub_server, "embed-model", api_key="k")
        assert backend.embed("bonjour").values == (0.6, 0.8)
        assert len(_StubHandler.requests_seen) == 2

    def test_embeddings_endpoint(self, stub_server):
        backend = HttpEmbeddingBackend(stub_server, "embed-model", api_key="k")
        assert backend.embed("bonjour").values == (0.6, 0.8)

    def test_bearer_token_sent_only_with_a_key(self, stub_server, monkeypatch):
        monkeypatch.delenv(http.API_KEY_ENV, raising=False)
        for api_key in ("k", None):
            HttpLLMBackend(stub_server, "m", api_key=api_key).generate(
                GenerationRequest(prompt="p")
            )
            HttpEmbeddingBackend(stub_server, "e", api_key=api_key).embed("x")
        assert _StubHandler.auth_seen == ["Bearer k", "Bearer k", None, None]
