from __future__ import annotations

import json
import math
import random
from collections import Counter
from unittest import mock

import pytest

from icl_miner import bm25

from icl_miner.backends import MockLLMBackend, SimilarityScorer, TrigramHashEmbedder
from icl_miner.bm25 import tokenize
from icl_miner.config import PipelineConfig
from icl_miner.corpus import LanguageSpec
from icl_miner.errors import ConfigError, DataError
from icl_miner.prompts import sentence_translation_prompt
from icl_miner.sentence_mining import (
    Bm25Candidates,
    MinedPool,
    SentencePair,
    back_translate,
    bm25_candidates,
    mine_examples,
    read_pool,
    select_backtranslation_shots,
    select_random,
    select_topk,
    select_topk_bm25_with_audit,
    write_pool,
)
from icl_miner.w2w import W2wCorpus

AVA = LanguageSpec(code="ava_Latn", display_name="Avalian")
ZOR = LanguageSpec(code="zor_Latn", display_name="Zorvan")


def make_pool(sims, texts=None, origin="mined"):
    pairs = tuple(
        SentencePair(
            source_text=(texts[i] if texts else f"source {i}"),
            target_text=f"target {i}",
            similarity=s,
            origin=origin,
        )
        for i, s in enumerate(sims)
    )
    return MinedPool(pairs=pairs)


def make_w2w(entries):
    return W2wCorpus(pairs=tuple(entries), copied_through=tuple(0 for _ in entries))


class TestBacktranslationShots:
    scorer = SimilarityScorer(TrigramHashEmbedder())

    def test_first_k_orientation(self):
        w2w = make_w2w([(f"orig {i}", f"rend {i}") for i in range(10)])
        shots = select_backtranslation_shots(w2w, 3, self.scorer)
        # source side is the target-language rendering, target the original
        assert shots == [("rend 0", "orig 0"), ("rend 1", "orig 1"), ("rend 2", "orig 2")]

    def test_fewer_entries_than_k(self):
        w2w = make_w2w([("a", "b"), ("c", "d")])
        assert len(select_backtranslation_shots(w2w, 5, self.scorer)) == 2

    def test_top_sim_strategy(self):
        w2w = make_w2w([("apple pie", "zzz"), ("same text", "same text")])
        shots = select_backtranslation_shots(w2w, 1, self.scorer, strategy="top_sim")
        assert shots == [("same text", "same text")]

    def test_unknown_strategy(self):
        with pytest.raises(DataError):
            select_backtranslation_shots(
                make_w2w([("a", "b")]), 1, self.scorer, strategy="best"
            )


def backtranslation_backend(tmp_path, d_u, shots, rule):
    path = tmp_path / "bt.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for sentence in d_u:
            prompt = sentence_translation_prompt(
                sentence, ZOR.display_name, AVA.display_name, shots
            )
            fh.write(
                json.dumps(
                    {
                        "prompt": prompt,
                        "completions": [{"text": rule(sentence), "score": -1.0}],
                    },
                    ensure_ascii=False,
                )
            )
            fh.write("\n")
    return MockLLMBackend(path)


class TestBackTranslate:
    def setup_method(self):
        self.shots = [("rend a", "orig a")]
        self.scorer = SimilarityScorer(TrigramHashEmbedder())

    def test_pool_size_matches_corpus(self, tmp_path):
        sentences = [f"zorvan sentence {i}" for i in range(9)]
        llm = backtranslation_backend(
            tmp_path, sentences, self.shots, lambda s: s.replace("zorvan", "avalian")
        )
        d_u = tuple(sentences)
        pool = back_translate(d_u, self.shots, llm, self.scorer, AVA, ZOR)
        assert len(pool) == 9
        assert pool.iteration == 1

    def test_pairs_oriented_and_scored(self, tmp_path):
        llm = backtranslation_backend(
            tmp_path, ["zor text"], self.shots, lambda s: "ava text"
        )
        d_u = ("zor text",)
        pool = back_translate(d_u, self.shots, llm, self.scorer, AVA, ZOR)
        pair = pool.pairs[0]
        assert pair.source_text == "ava text"
        assert pair.target_text == "zor text"
        assert -1.0 <= pair.similarity <= 1.0

    def test_copy_generation_still_forms_pair(self, tmp_path):
        llm = backtranslation_backend(tmp_path, ["same"], self.shots, lambda s: s)
        d_u = ("same",)
        pool = back_translate(d_u, self.shots, llm, self.scorer, AVA, ZOR)
        assert pool.pairs[0].similarity == pytest.approx(1.0)

    def test_empty_generation_dropped(self, tmp_path):
        llm = backtranslation_backend(
            tmp_path, ["a", "b"], self.shots, lambda s: "" if s == "a" else "ok"
        )
        d_u = ("a", "b")
        pool = back_translate(d_u, self.shots, llm, self.scorer, AVA, ZOR)
        assert len(pool) == 1


    def test_repeated_sentence_sent_once(self, tmp_path):
        sentences = ["zor a", "zor b", "zor a", "zor a"]
        llm = backtranslation_backend(
            tmp_path, sentences, self.shots, lambda s: s.replace("zor", "ava")
        )
        d_u = tuple(sentences)
        pool = back_translate(d_u, self.shots, llm, self.scorer, AVA, ZOR)
        texts = [p.source_text for p in pool.pairs]
        assert texts == ["ava a", "ava b", "ava a", "ava a"]
        assert llm.call_count == 2


class TestSelectRandom:
    def test_first_k_convention(self):
        pool = make_pool([0.5] * 10)
        assert select_random(pool, 3) == list(pool.pairs[:3])

    def test_k_larger_than_pool(self):
        pool = make_pool([0.5] * 4)
        assert select_random(pool, 10) == list(pool.pairs)

    def test_deterministic(self):
        pool = make_pool([0.1, 0.2, 0.3])
        assert select_random(pool, 2) == select_random(pool, 2)


class TestSelectTopk:
    def test_descending_similarity(self):
        pool = make_pool([0.2, 0.95, 0.5])
        out = select_topk(pool, 2)
        assert [p.similarity for p in out] == [0.95, 0.5]

    def test_full_sort_when_k_equals_pool(self):
        pool = make_pool([0.3, 0.9, 0.1, 0.6])
        out = select_topk(pool, 4)
        assert [p.similarity for p in out] == [0.9, 0.6, 0.3, 0.1]

    def test_ties_keep_pool_order(self):
        pool = make_pool([0.5, 0.5, 0.9])
        out = select_topk(pool, 3)
        assert [p.source_text for p in out] == ["source 2", "source 0", "source 1"]

    def test_matches_bruteforce(self):
        rng = random.Random(3)
        for _ in range(30):
            sims = [rng.choice([0.1, 0.4, 0.6, 0.9]) for _ in range(rng.randint(1, 60))]
            pool = make_pool(sims)
            k = rng.randint(1, len(sims))
            expected = [
                p for _, p in sorted(
                    enumerate(pool.pairs), key=lambda item: (-item[1].similarity, item[0])
                )
            ][:k]
            assert select_topk(pool, k) == expected

    def test_unscored_pool_rejected(self):
        pool = MinedPool(pairs=(SentencePair(source_text="a", target_text="b"),))
        with pytest.raises(DataError):
            select_topk(pool, 1)


# independent BM25 oracle (duplicated on purpose; see test_bm25 for the base)
def oracle_bm25_scores(docs, query, k1=1.5, b=0.75):
    token_docs = [tokenize(d) for d in docs]
    n = len(token_docs)
    avg_len = sum(len(d) for d in token_docs) / n
    out = []
    for toks in token_docs:
        tf = Counter(toks)
        total = 0.0
        for term in tokenize(query):
            f = tf.get(term, 0)
            if f == 0:
                continue
            df = sum(1 for other in token_docs if term in set(other))
            idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
            total += idf * f * (k1 + 1.0) / (
                f + k1 * (1.0 - b + b * len(toks) / avg_len)
            )
        out.append(total)
    return out


def oracle_topk_bm25(pool: MinedPool, query: str, k, tau, fallback_m):
    candidates = [i for i, p in enumerate(pool.pairs) if p.similarity > tau]
    if len(candidates) < k:
        order = sorted(
            range(len(pool.pairs)),
            key=lambda i: (-pool.pairs[i].similarity, i),
        )
        candidates = sorted(order[:fallback_m])
    docs = [pool.pairs[i].source_text for i in candidates]
    scores = oracle_bm25_scores(docs, query)
    ranked = sorted(
        range(len(candidates)),
        key=lambda j: (-scores[j], -pool.pairs[candidates[j]].similarity, j),
    )
    return [candidates[j] for j in ranked[:k]]


WORDS = ["cat", "dog", "bird", "fish", "tree", "rock", "moon", "star"]


def select_bm25(pool, query, k, tau=0.9, fallback_m=20):
    return select_topk_bm25_with_audit(bm25_candidates(pool, k, tau, fallback_m), query)


class TestSelectTopkBm25:
    def test_threshold_path_respects_tau(self):
        texts = ["cat cat", "cat dog", "dog dog", "cat bird"]
        pool = make_pool([0.95, 0.2, 0.95, 0.92], texts=texts)
        out, audit = select_bm25(pool, "cat", k=2, tau=0.9, fallback_m=3)
        assert not audit.used_fallback
        assert all(p.similarity > 0.9 for p in out)
        assert 1 not in audit.pool_indices  # below-threshold pair excluded

    def test_fallback_when_threshold_starves(self):
        pool = make_pool([0.5, 0.6, 0.4, 0.7, 0.3], texts=["cat"] * 5)
        out, audit = select_bm25(pool, "cat", k=2, tau=0.9, fallback_m=3)
        assert audit.used_fallback
        # top fallback_m by similarity: indices 3 (0.7), 1 (0.6), 0 (0.5)
        assert set(audit.pool_indices) <= {0, 1, 3}
        assert len(out) == 2

    def test_tau_zero_is_pure_bm25_over_scored_pool(self):
        texts = ["moon star", "cat dog", "cat cat"]
        pool = make_pool([0.5, 0.6, 0.7], texts=texts)
        out, _ = select_bm25(pool, "cat", k=3, tau=0.0, fallback_m=3)
        assert [p.source_text for p in out] == ["cat cat", "cat dog", "moon star"]

    def test_exact_query_match_ranks_first(self):
        texts = ["cat dog bird", "fish tree rock", "moon star cat"]
        pool = make_pool([0.95, 0.95, 0.95], texts=texts)
        out, _ = select_bm25(pool, "fish tree rock", k=1, tau=0.5, fallback_m=3)
        assert out[0].source_text == "fish tree rock"

    def test_matches_bruteforce_oracle(self):
        rng = random.Random(17)
        for _ in range(30):
            size = rng.randint(1, 60)
            sims = [rng.choice([0.2, 0.5, 0.8, 0.95]) for _ in range(size)]
            texts = [
                " ".join(rng.choices(WORDS, k=rng.randint(1, 8))) for _ in range(size)
            ]
            pool = make_pool(sims, texts=texts)
            k = rng.randint(1, min(8, size))
            tau = rng.choice([0.0, 0.6, 0.9])
            fallback_m = max(k, rng.randint(k, 20))
            # one prepared candidate set serves every query
            candidates = bm25_candidates(pool, k, tau, fallback_m)
            for _ in range(10):
                query = " ".join(rng.choices(WORDS, k=rng.randint(1, 4)))
                _, audit = select_topk_bm25_with_audit(candidates, query)
                assert list(audit.pool_indices) == oracle_topk_bm25(
                    pool, query, k, tau, fallback_m
                )

    def test_ties_keep_the_order_of_a_stable_full_sort(self):
        rng = random.Random(23)
        for _ in range(2000):
            size = rng.randint(1, 40)
            pool = make_pool([0.5] * size)
            # few distinct scores, so most candidates tie with another
            scores = [rng.choice([0.0, 0.5, 1.25, 2.0]) for _ in range(size)]
            ids = tuple(rng.sample(range(size), size))
            k = rng.randint(1, size + 2)
            index = bm25.build_index([pool.pairs[i].source_text for i in ids])
            candidates = Bm25Candidates(pool, k, ids, index, False)
            with mock.patch.object(bm25, "score_all", lambda index, query: scores):
                out, audit = select_topk_bm25_with_audit(candidates, "query")
            top = sorted(range(size), key=lambda j: -scores[j])[:k]
            assert audit.pool_indices == tuple(ids[j] for j in top)
            assert audit.bm25_scores == tuple(scores[j] for j in top)
            assert out == [pool.pairs[ids[j]] for j in top]

    def test_pure_function_repeatable(self):
        pool = make_pool([0.95, 0.91, 0.92], texts=["cat", "dog", "cat dog"])
        candidates = bm25_candidates(pool, k=2, tau=0.9, fallback_m=2)
        first = select_topk_bm25_with_audit(candidates, "cat")
        second = select_topk_bm25_with_audit(candidates, "cat")
        assert first == second

    def test_raising_tau_never_grows_candidates(self):
        pool = make_pool([0.1, 0.35, 0.55, 0.75, 0.95], texts=["cat"] * 5)
        sizes = []
        for tau in (0.0, 0.3, 0.5, 0.7, 0.9):
            sizes.append(sum(1 for p in pool.pairs if p.similarity > tau))
        assert sizes == sorted(sizes, reverse=True)

    def test_empty_query_rejected(self):
        pool = make_pool([0.9], texts=["cat"])
        with pytest.raises(DataError):
            select_bm25(pool, "", k=1)


class TestPolicyValidation:
    """The selection constants and policy names are checked by the config
    that feeds them to the selectors."""

    @staticmethod
    def _config(tmp_path, **changes):
        paths = {}
        for name in ("source_vocab", "target_vocab", "unlabeled",
                     "test_source", "test_target", "llm_fixture"):
            path = tmp_path / name
            path.write_text("word\n", encoding="utf-8")
            paths[name] = str(path)
        return PipelineConfig(
            source_code=AVA.code, target_code=ZOR.code, backend_kind="mock",
            **paths, **changes,
        )

    def test_tau_range(self, tmp_path):
        for tau in (1.5, -0.1):
            with pytest.raises(ConfigError, match="tau"):
                self._config(tmp_path, tau=tau).validate()
        for tau in (0.0, 1.0):
            self._config(tmp_path, tau=tau).validate()

    def test_unknown_kind(self, tmp_path):
        config = self._config(tmp_path)
        config.validate()
        with pytest.raises(ConfigError, match="unknown policy"):
            config.policy("nearest")
        with pytest.raises(ConfigError, match="unknown policy"):
            self._config(tmp_path, policies=("nearest",)).validate()


class TestMineExamples:
    def _setup(self, tmp_path, iterations):
        sentences = [f"zor {i} text" for i in range(6)]
        w2w = make_w2w([(f"ava {i} text", f"zrend {i} text") for i in range(4)])
        scorer = SimilarityScorer(TrigramHashEmbedder())
        shots1 = select_backtranslation_shots(w2w, 2, scorer)
        rule = lambda s: s.replace("zor", "ava")
        records = {}
        # iteration 1 prompts use w2w shots
        for sentence in sentences:
            prompt = sentence_translation_prompt(
                sentence, ZOR.display_name, AVA.display_name, shots1
            )
            records[prompt] = rule(sentence)
        # iteration 2 prompts use the reversed top-k of iteration 1's pool;
        # compute them by simulating iteration 1 locally
        pairs = [
            SentencePair(
                source_text=rule(s), target_text=s,
                similarity=scorer.sim(rule(s), s),
            )
            for s in sentences
        ]
        pool1 = MinedPool(pairs=tuple(pairs))
        shots2 = [(p.target_text, p.source_text) for p in select_topk(pool1, 2)]
        for sentence in sentences:
            prompt = sentence_translation_prompt(
                sentence, ZOR.display_name, AVA.display_name, shots2
            )
            records[prompt] = rule(sentence)

        path = tmp_path / "mine.jsonl"
        with path.open("w", encoding="utf-8") as fh:
            for prompt, text in records.items():
                fh.write(
                    json.dumps(
                        {"prompt": prompt, "completions": [{"text": text, "score": -1.0}]},
                        ensure_ascii=False,
                    )
                    + "\n"
                )
        llm = MockLLMBackend(path)
        d_u = tuple(sentences)
        return d_u, w2w, llm, SimilarityScorer(TrigramHashEmbedder())

    def test_single_iteration_equals_back_translate(self, tmp_path):
        d_u, w2w, llm, scorer = self._setup(tmp_path, 1)
        pool = mine_examples(d_u, w2w, 2, llm, scorer, AVA, ZOR, iterations=1)
        shots = select_backtranslation_shots(w2w, 2, scorer)
        direct = back_translate(d_u, shots, llm, scorer, AVA, ZOR)
        assert pool.pairs == direct.pairs
        assert pool.iteration == 1

    def test_two_iterations_tagged_and_reproducible(self, tmp_path):
        d_u, w2w, llm, scorer = self._setup(tmp_path, 2)
        pool_a = mine_examples(d_u, w2w, 2, llm, scorer, AVA, ZOR, iterations=2)
        pool_b = mine_examples(d_u, w2w, 2, llm, scorer, AVA, ZOR, iterations=2)
        assert pool_a.iteration == 2
        assert pool_a.pairs == pool_b.pairs

    def test_iterations_must_be_positive(self, tmp_path):
        d_u, w2w, llm, scorer = self._setup(tmp_path, 1)
        with pytest.raises(DataError):
            mine_examples(d_u, w2w, 2, llm, scorer, AVA, ZOR, iterations=0)


class TestPoolIO:
    def test_round_trip(self, tmp_path):
        pool = make_pool([0.25, 0.75], texts=["alpha beta", "gamma"])
        path = tmp_path / "pool.jsonl"
        write_pool(path, pool)
        assert read_pool(path) == pool

    def test_round_trip_keeps_unicode_line_breaks(self, tmp_path):
        # json.dumps(ensure_ascii=False) leaves these characters unescaped
        texts = ["alpha\x85beta", "gamma\u2028delta\u2029", "eps\x1cilon\x0b"]
        pool = make_pool([0.25, 0.75, 0.5], texts=texts)
        path = tmp_path / "pool.jsonl"
        write_pool(path, pool)
        assert read_pool(path) == pool

    def test_empty_pool_file_rejected(self, tmp_path):
        path = tmp_path / "pool.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataError):
            read_pool(path)
