from __future__ import annotations

import math
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from icl_miner.bm25 import build_index, score_all, tokenize
from icl_miner.errors import DataError
from icl_miner.sentence_mining import (
    MinedPool,
    SentencePair,
    bm25_candidates,
    select_topk_bm25_with_audit,
)

# ---------------------------------------------------------------------------
# independent brute-force oracle: implements the documented formula directly
# ---------------------------------------------------------------------------


def oracle_scores(docs: list[str], query: str, k1=1.5, b=0.75) -> list[float]:
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
            total += idf * f * (k1 + 1.0) / (f + k1 * (1.0 - b + b * len(toks) / avg_len))
        out.append(total)
    return out


def oracle_top_k(docs: list[str], query: str, k: int) -> list[tuple[int, float]]:
    scores = oracle_scores(docs, query)
    order = sorted(range(len(docs)), key=lambda i: (-scores[i], i))
    return [(i, scores[i]) for i in order[:k]]


def top_k(docs: list[str], query: str, k: int) -> list[tuple[int, float]]:
    """BM25 top-k through TopK+BM25 selection.

    With equal similarities and tau 0, every document is a candidate, in
    doc-id order.
    """
    pool = MinedPool(tuple(SentencePair(d, "t", similarity=1.0) for d in docs))
    _, audit = select_topk_bm25_with_audit(bm25_candidates(pool, k, 0.0, k), query)
    return list(zip(audit.pool_indices, audit.bm25_scores))


WORDS = ["cat", "dog", "bird", "fish", "tree", "rock", "moon", "star", "rain", "wind"]
ABSENT = ["zebra", "kite"]  # in no generated document


def random_corpus(rng: random.Random, max_docs=200, max_tokens=30) -> list[str]:
    n_docs = rng.randint(1, max_docs)
    return [
        " ".join(rng.choices(WORDS, k=rng.randint(1, max_tokens)))
        for _ in range(n_docs)
    ]


class TestTokenize:
    def test_casefolds_and_drops_punctuation(self):
        assert tokenize("The cat, the CAT.") == ["the", "cat", "the", "cat"]

    def test_empty_string(self):
        assert tokenize("") == []

    def test_hyphen_splits(self):
        assert tokenize("a1-b2") == ["a1", "b2"]


class TestBuildIndex:
    def test_counts(self):
        index = build_index(["a b", "a"])
        assert index.avg_len == 1.5
        assert index.doc_freq == {"a": 2, "b": 1}

    def test_single_doc_avg_len(self):
        index = build_index(["x y z"])
        assert index.avg_len == 3.0

    def test_all_empty_docs_error(self):
        with pytest.raises(DataError):
            build_index(["...", "!!"])

    def test_no_docs_error(self):
        with pytest.raises(DataError):
            build_index([])

    def test_stats_match_naive_recount(self):
        rng = random.Random(11)
        for _ in range(20):
            docs = random_corpus(rng, max_docs=30, max_tokens=10)
            index = build_index(docs)
            token_docs = [tokenize(d) for d in docs]
            assert index.avg_len == sum(map(len, token_docs)) / len(token_docs)
            expected_df = Counter()
            for toks in token_docs:
                expected_df.update(set(toks))
            assert index.doc_freq == dict(expected_df)


class TestScore:
    def test_disjoint_terms_score_zero(self):
        index = build_index(["cat dog", "bird"])
        assert score_all(index, "fish tree") == [0.0, 0.0]

    def test_hand_computed_case(self):
        # N=2, docs ["a b","c"], query "a", doc 0; value frozen from the
        # formula oracle in this module's header comment
        index = build_index(["a b", "c"])
        assert score_all(index, "a")[0] == pytest.approx(0.6027366787477785, abs=1e-12)

    def test_additive_over_disjoint_query_terms(self):
        index = build_index(["cat dog bird fish", "cat cat"])
        combined = score_all(index, "cat bird")
        parts = zip(score_all(index, "cat"), score_all(index, "bird"))
        assert combined == pytest.approx([a + b for a, b in parts], abs=1e-12)

    def test_scores_non_negative_random(self):
        rng = random.Random(5)
        for _ in range(20):
            docs = random_corpus(rng, max_docs=20, max_tokens=8)
            index = build_index(docs)
            query = " ".join(rng.choices(WORDS, k=3))
            assert all(s >= 0.0 for s in score_all(index, query))

    def test_matches_bruteforce_oracle(self):
        # the index adds the same summands in query-token order, so the
        # floats are equal, not just close
        rng = random.Random(29)
        for _ in range(25):
            docs = random_corpus(rng, max_docs=50, max_tokens=12)
            index = build_index(docs)
            for _ in range(5):
                query = " ".join(rng.choices(WORDS, k=rng.randint(1, 5)))
                assert score_all(index, query) == oracle_scores(docs, query)

    def test_repeated_and_absent_query_terms_match_oracle(self):
        rng = random.Random(37)
        for _ in range(25):
            docs = random_corpus(rng, max_docs=50, max_tokens=12)
            index = build_index(docs)
            for _ in range(5):
                terms = rng.choices(WORDS + ABSENT, k=rng.randint(1, 4))
                query = " ".join(terms + rng.choices(terms, k=rng.randint(1, 4)))
                assert score_all(index, query) == oracle_scores(docs, query)
        index = build_index(["cat dog", "dog dog bird"])
        assert score_all(index, "zebra kite") == [0.0, 0.0]
        assert score_all(index, "dog zebra dog") == oracle_scores(
            ["cat dog", "dog dog bird"], "dog zebra dog"
        )


class TestTopK:
    def test_full_ranking_when_k_equals_n(self):
        docs = ["cat cat", "cat dog", "dog dog"]
        result = top_k(docs, "cat", k=3)
        assert len(result) == 3
        assert [doc_id for doc_id, _ in result][:2] == [0, 1]

    def test_all_zero_scores_keep_id_order(self):
        result = top_k(["a", "b", "c"], "zzz", k=2)
        assert result == [(0, 0.0), (1, 0.0)]

    def test_matches_bruteforce_oracle(self):
        rng = random.Random(23)
        for _ in range(25):
            docs = random_corpus(rng, max_docs=50, max_tokens=12)
            query = " ".join(rng.choices(WORDS, k=rng.randint(1, 5)))
            k = rng.randint(1, len(docs))
            got = top_k(docs, query, k)
            expected = oracle_top_k(docs, query, k)
            assert [doc_id for doc_id, _ in got] == [d for d, _ in expected]
            assert [score for _, score in got] == [s for _, s in expected]

    def test_prefix_property(self):
        rng = random.Random(31)
        docs = random_corpus(rng, max_docs=30, max_tokens=10)
        shorter = top_k(docs, "cat dog", k=5)
        longer = top_k(docs, "cat dog", k=6)
        assert longer[:5] == shorter


@given(
    st.lists(
        st.lists(st.sampled_from(WORDS), min_size=1, max_size=8).map(" ".join),
        min_size=1,
        max_size=15,
    ),
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=4).map(" ".join),
)
def test_adding_a_document_keeps_other_term_freqs(docs, query):
    # only N, df, avg_len may change; per-doc frequencies are intrinsic
    index_before = build_index(docs)
    index_after = build_index(docs + ["cat moon"])
    for i in range(len(docs)):
        assert Counter(index_before.documents[i]) == Counter(index_after.documents[i])
