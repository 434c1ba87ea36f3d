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
from hypothesis import given
from hypothesis import strategies as st

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
)
from icl_miner.backends import cache as cache_module
from icl_miner.backends import http
from icl_miner.backends.base import generate_each
from icl_miner.errors import BackendError, BackendRejected

from conftest import behind_cache, repo_root, trigram_scorer


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


def stored_keys(root) -> set[str]:
    """The key of every complete entry line in any segment under `root`."""
    return {
        line[:64].decode("ascii")
        for segment in segments(root)
        for line in segment.read_bytes().split(b"\n")[:-1]
    }


def absent(cache: ResponseCache, key: str) -> bool:
    """`key` is a miss that no segment stores (not a corrupt stored entry)."""
    return cache.get(key) is None and key not in stored_keys(cache.root)


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


def three_pass_cosine(u: EmbeddingVector, v: EmbeddingVector) -> float:
    """The former cosine: dot product and both norms in separate fsum passes."""
    if u.dim != v.dim:
        raise BackendError(f"dim mismatch: {u.dim} vs {v.dim}")
    dot = math.fsum(a * b for a, b in zip(u.values, v.values))
    norm_u = math.sqrt(math.fsum(a * a for a in u.values))
    norm_v = math.sqrt(math.fsum(b * b for b in v.values))
    if norm_u == 0.0 or norm_v == 0.0:
        raise BackendError("cosine undefined for a zero vector")
    return max(-1.0, min(1.0, dot / (norm_u * norm_v)))


coordinates = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
vector_pairs = st.integers(min_value=1, max_value=24).flatmap(
    lambda dim: st.tuples(
        st.lists(coordinates, min_size=dim, max_size=dim),
        st.lists(coordinates, min_size=dim, max_size=dim),
    )
)


class TestCosine:
    @given(vector_pairs)
    def test_equals_three_pass_formula_bit_for_bit(self, pair):
        u, v = (EmbeddingVector(tuple(values)) for values in pair)
        try:
            expected = three_pass_cosine(u, v)
        except BackendError as exc:
            with pytest.raises(BackendError, match=str(exc)):
                cosine(u, v)
            return
        assert cosine(u, v) == expected
        assert cosine(u, v) == expected  # again, with both norms memoized
        assert cosine(v, u) == three_pass_cosine(v, u)

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
        with pytest.raises(BackendError, match="dim mismatch: 1 vs 2"):
            cosine(EmbeddingVector((1.0,)), EmbeddingVector((1.0, 2.0)))

    def test_zero_vector_rejected(self):
        with pytest.raises(BackendError, match="cosine undefined for a zero vector"):
            cosine(EmbeddingVector((0.0, 0.0)), EmbeddingVector((1.0, 0.0)))

    def test_clamped_range(self):
        v = EmbeddingVector(tuple(0.1 * i for i in range(1, 30)))
        assert -1.0 <= cosine(v, v) <= 1.0


class TestSimilarityScorer:
    def test_identical_input_sim_1(self, tmp_path):
        scorer = trigram_scorer(tmp_path)
        assert scorer.sim("same text", "same text") == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self, tmp_path):
        scorer = trigram_scorer(tmp_path)
        assert scorer.sim("one text", "two text") == scorer.sim("two text", "one text")

    def test_empty_text_rejected(self, tmp_path):
        scorer = trigram_scorer(tmp_path)
        with pytest.raises(BackendError):
            scorer.sim("", "x")
        with pytest.raises(BackendError, match="cannot embed empty text"):
            scorer.sims([("x", "")])

    def test_memoizes_embeddings(self, tmp_path):
        calls = []

        class CountingEmbedder:
            backend_id = "count"
            model_id = "count"

            def embed(self, text):
                calls.append(text)
                return EmbeddingVector((1.0, 0.0))

        scorer = SimilarityScorer(behind_cache(CountingEmbedder(), tmp_path))
        scorer.sim("a", "b")
        scorer.sim("a", "b")
        assert calls == ["a", "b"]

    def test_sims_embeds_distinct_texts_concurrently(self, tmp_path):
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

        scorer = SimilarityScorer(behind_cache(SlowEmbedder(), tmp_path, max_workers=3))
        pairs = [("a", "b"), ("b", "c"), ("a", "c"), ("d", "a")]
        assert scorer.sims(pairs) == [scorer.sim(x, y) for x, y in pairs]
        assert sorted(calls) == ["a", "b", "c", "d"]
        assert 1 < peak[0] <= 3


class TestGenerateEach:
    def test_distinct_requests_once_and_cache_hits_in_calling_thread(self, tmp_path):
        calls = []

        class FakeLLM:
            backend_id, model_id = "fake", "m"

            def generate(self, request):
                calls.append((request.prompt, threading.get_ident()))
                time.sleep(0.01)
                if request.prompt == "bad":
                    raise BackendError("down")
                return [ScoredCompletion(request.prompt.upper(), 0.0)]

        llm = behind_cache(FakeLLM(), tmp_path, max_workers=2)
        llm.generate(GenerationRequest(prompt="hit"))
        calls.clear()
        prompts = ["hit", "b", "bad", "b", "hit"]
        got = generate_each(llm, [GenerationRequest(prompt=p) for p in prompts])
        assert [r[0].text if r else None for r in got] == [
            "HIT", "B", None, "B", "HIT"
        ]
        # the hit is answered from the cache; the two misses go to workers
        assert sorted(prompt for prompt, _ in calls) == ["b", "bad"]
        assert threading.get_ident() not in {thread for _, thread in calls}

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
    def test_exactly_half_failing_is_tolerated_and_one_more_aborts(
        self, tmp_path, max_workers
    ):
        def run(prompts):
            requests = [GenerationRequest(prompt=p) for p in prompts]
            llm = behind_cache(self.Failing(), tmp_path, max_workers)
            return generate_each(llm, requests, "lines")

        got = run(["ok", "bad", "ok2", "bad"])
        ok, ok2 = [ScoredCompletion("OK", 0.0)], [ScoredCompletion("OK2", 0.0)]
        assert got == [ok, [], ok2, []]
        # repeats count as passed: one distinct failure is 3 of 5 requests
        with pytest.raises(BackendError, match="3/5 lines failed; aborting"):
            run(["ok", "bad", "ok2", "bad", "bad"])

    @pytest.mark.parametrize("max_workers", [1, 4])
    def test_abort_is_chained_from_first_failure_in_input_order(
        self, tmp_path, max_workers
    ):
        class SlowFirst(self.Failing):
            def generate(self, request):
                if request.prompt == "bad-first":
                    time.sleep(0.05)  # the later failure comes back first
                return super().generate(request)

        prompts = ("ok", "bad-first", "bad-second")
        requests = [GenerationRequest(prompt=p) for p in prompts]
        with pytest.raises(BackendError, match=r"2/3 .* rejected bad-first") as info:
            generate_each(behind_cache(SlowFirst(), tmp_path, max_workers), requests)
        assert isinstance(info.value.__cause__, BackendRejected)
        assert str(info.value.__cause__) == "rejected bad-first"

    def test_failed_request_is_sent_once_and_not_cached(self, tmp_path, caplog):
        backend = self.Failing()
        llm = behind_cache(backend, tmp_path, max_workers=4)
        bad, ok = GenerationRequest(prompt="bad"), GenerationRequest(prompt="ok")
        got = generate_each(llm, [bad, ok, bad, ok])
        assert got == [[], [ScoredCompletion("OK", 0.0)]] * 2
        assert sorted(backend.calls) == ["bad", "ok"]
        failures = [r for r in caplog.records if "rejected bad" in r.getMessage()]
        assert len(failures) == 1  # the distinct failure, logged once
        ok_key, bad_key = (
            fingerprint("failing", "m", request.to_payload()) for request in (ok, bad)
        )
        assert llm.cache.get(ok_key) == {"completions": [{"text": "OK", "score": 0.0}]}
        assert absent(llm.cache, bad_key)
        # a second call gets the success from the cache and sends the failure again
        generate_each(llm, [bad, ok])
        assert sorted(backend.calls) == ["bad", "bad", "ok"]

    def test_each_distinct_request_is_fingerprinted_once(self, tmp_path, monkeypatch):
        hashed = []

        def counting(backend_id, model_id, payload):
            hashed.append(json.dumps(payload, sort_keys=True))
            return fingerprint(backend_id, model_id, payload)

        # remote backends are the ones a pipeline sends from worker threads
        class RemoteLLM(self.Failing):
            remote = True

        class RemoteEmbedder:
            backend_id, model_id, remote = "embed", "m", True

            def embed(self, text):
                return EmbeddingVector((float(ord(text)), 1.0))

        monkeypatch.setattr(cache_module, "fingerprint", counting)
        cache = ResponseCache(tmp_path / "cache")
        llm = CachingLLM(RemoteLLM(), cache, max_workers=4)
        scorer = SimilarityScorer(CachingEmbedder(RemoteEmbedder(), cache, max_workers=4))
        requests = [GenerationRequest(prompt=p) for p in ("a", "b", "a", "c")]
        for run in ("cold", "warm"):  # misses, then hits
            hashed.clear()
            generate_each(llm, requests)
            assert len(hashed) == len(set(hashed)) == 3, run
        hashed.clear()
        scorer.sims([("a", "b"), ("b", "c"), ("c", "a")])
        assert len(hashed) == len(set(hashed)) == 3

    @pytest.mark.parametrize("max_workers", [1, 4])
    def test_partial_failure_is_summed_up_once(self, tmp_path, caplog, max_workers):
        bad, ok, fine = (GenerationRequest(prompt=p) for p in ("bad", "ok", "fine"))
        llm = behind_cache(self.Failing(), tmp_path, max_workers)
        generate_each(llm, [ok, fine], "lines")
        assert caplog.records == []
        generate_each(llm, [bad, ok, bad, fine], "lines")
        summaries = [r.getMessage() for r in caplog.records if "/4 lines" in r.getMessage()]
        assert summaries == [
            "2/4 lines failed (1 distinct; BackendRejected: 2); their outputs are empty"
        ]


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
        assert absent(reopened, "02" * 32)
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
        assert reader.get("ab" * 32) == {"x": 1}
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
        # an instance opened before a put does not see it, although the
        # stored entry is intact (third read it)
        assert first.get("cd" * 32) is None
        assert "cd" * 32 in stored_keys(root)

    def test_old_layout_entry_is_a_miss(self, tmp_path):
        root = tmp_path / "cache"
        key = "ab" * 32
        (root / "ab").mkdir(parents=True)
        (root / "ab" / f"{key}.json").write_text('{"x": 1}', encoding="utf-8")
        cache = ResponseCache(root)
        assert absent(cache, key)

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
        assert absent(cache, "f" * 64)

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
    def test_second_call_hits_cache(self, tmp_path, simple_fixture, llm_calls):
        backend = MockLLMBackend(simple_fixture)
        caching = CachingLLM(backend, ResponseCache(tmp_path / "cache"))
        request = GenerationRequest(prompt="P", num_samples=2,
                                    mode=DecodingMode.random_sampling(seed=0))
        first = caching.generate(request)
        second = caching.generate(request)
        assert first == second
        assert len(llm_calls) == 1

    def test_cache_shared_across_instances(self, tmp_path, simple_fixture, llm_calls):
        cache_dir = tmp_path / "cache"
        request = GenerationRequest(prompt="P", num_samples=2,
                                    mode=DecodingMode.random_sampling(seed=0))
        CachingLLM(MockLLMBackend(simple_fixture), ResponseCache(cache_dir)).generate(
            request
        )
        assert len(llm_calls) == 1
        fresh = CachingLLM(MockLLMBackend(simple_fixture), ResponseCache(cache_dir))
        fresh.generate(request)
        assert len(llm_calls) == 1

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


class TestAnswerAll:
    """The one lookup-then-fetch path of both caching wrappers."""

    class Slow:
        """LLM and embedder in one: each call sleeps and records how many
        calls were in flight at once; prompts and texts starting with "bad"
        are rejected."""

        backend_id, model_id = "slow", "m"

        def __init__(self):
            self.sent, self.threads = [], set()
            self.in_flight = self.peak = 0
            self.lock = threading.Lock()

        def _call(self, query):
            with self.lock:
                self.sent.append(query)
                self.threads.add(threading.get_ident())
                self.in_flight += 1
                self.peak = max(self.peak, self.in_flight)
            time.sleep(0.02)
            with self.lock:
                self.in_flight -= 1
            if query.startswith("bad"):
                raise BackendRejected(f"rejected {query}")

        def generate(self, request):
            self._call(request.prompt)
            return [ScoredCompletion(request.prompt.upper(), -1.0)]

        def embed(self, text):
            self._call(text)
            return EmbeddingVector((float(len(text)), 1.0))

    def test_hits_are_read_on_the_calling_thread(self, tmp_path, monkeypatch):
        backend = self.Slow()
        llm = CachingLLM(backend, ResponseCache(tmp_path / "cache"), max_workers=4)
        requests = [GenerationRequest(prompt=p) for p in ("a", "b", "c", "d")]
        llm.generate_all(requests[:2])
        readers = set()
        get = ResponseCache.get

        def recording(cache, key):
            readers.add(threading.get_ident())
            return get(cache, key)

        monkeypatch.setattr(ResponseCache, "get", recording)
        backend.threads.clear()
        got = llm.generate_all(requests)
        assert [completions[0].text for completions in got] == ["A", "B", "C", "D"]
        assert backend.sent == ["a", "b", "c", "d"]  # c and d once each
        caller = threading.get_ident()
        assert readers == {caller}
        assert caller not in backend.threads

    def test_at_most_max_workers_misses_in_flight(self, tmp_path):
        backend = self.Slow()
        embedder = CachingEmbedder(backend, ResponseCache(tmp_path / "cache"), 3)
        texts = [f"text {i}" for i in range(8)]
        assert embedder.embed_all(texts) == [backend.embed(t) for t in texts]
        assert 1 < backend.peak <= 3

    @pytest.mark.parametrize("max_workers, prompts", [
        (1, ("a", "b", "c")),  # one in flight
        (4, ("a",)),  # one miss
    ])
    def test_no_executor_for_one_worker_or_one_miss(
        self, tmp_path, monkeypatch, max_workers, prompts
    ):
        pools = []
        monkeypatch.setattr(cache_module, "ThreadPoolExecutor",
                            lambda *a, **k: pools.append(k))
        backend = self.Slow()
        llm = CachingLLM(backend, ResponseCache(tmp_path / "cache"), max_workers)
        got = llm.generate_all([GenerationRequest(prompt=p) for p in prompts])
        assert [completions[0].text for completions in got] == [p.upper() for p in prompts]
        assert pools == []
        assert backend.threads == {threading.get_ident()}

    def test_each_query_is_fingerprinted_once(self, tmp_path, monkeypatch):
        hashed = []

        def counting(backend_id, model_id, payload):
            hashed.append(payload["embed"])
            return fingerprint(backend_id, model_id, payload)

        monkeypatch.setattr(cache_module, "fingerprint", counting)
        embedder = CachingEmbedder(self.Slow(), ResponseCache(tmp_path / "cache"), 4)
        for run in ("cold", "warm"):  # misses, then hits
            hashed.clear()
            embedder.embed_all(["x", "y", "z"])
            assert hashed == ["x", "y", "z"], run

    @pytest.mark.parametrize("max_workers", [1, 4])
    def test_failure_is_returned_not_stored_and_sent_again(self, tmp_path, max_workers):
        backend = self.Slow()
        llm = CachingLLM(backend, ResponseCache(tmp_path / "cache"), max_workers)
        bad, ok = GenerationRequest(prompt="bad"), GenerationRequest(prompt="ok")
        failure, answer = llm.generate_all([bad, ok])
        assert isinstance(failure, BackendRejected)
        assert str(failure) == "rejected bad"
        assert answer == [ScoredCompletion("OK", -1.0)]
        assert absent(llm.cache, fingerprint("slow", "m", bad.to_payload()))
        with pytest.raises(BackendRejected, match="rejected bad"):
            llm.generate(bad)
        assert llm.generate(ok) == answer
        assert backend.sent == ["bad", "ok", "bad"]


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

    @pytest.mark.parametrize("width, num_samples, best_of", [(4, 2, 4), (2, 5, 5)])
    def test_beam_request_payload(self, monkeypatch, width, num_samples, best_of):
        sent = []

        def post(path, payload):
            sent.append((path, payload))
            return {"choices": [{"text": " chat"}]}

        backend = HttpLLMBackend("http://127.0.0.1:1/v1", "test-model", api_key="k")
        monkeypatch.setattr(backend, "_post", post)
        backend.generate(GenerationRequest(
            prompt="p", num_samples=num_samples, mode=DecodingMode.beam(width),
        ))
        [(path, payload)] = sent
        assert path == "completions"
        assert payload["use_beam_search"] is True
        assert payload["best_of"] == best_of
        assert payload["temperature"] == 0.0
        assert payload["n"] == num_samples

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
