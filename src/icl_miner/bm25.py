"""Okapi BM25 ranking over small candidate sets.

An index is built once per candidate set (the similarity-filtered pool,
hundreds of documents at most) and then scores every query against it, so
construction favors simplicity over incremental updates. The idf uses the
non-negative Lucene variant,

    idf(t) = ln((N - df(t) + 0.5) / (df(t) + 0.5) + 1)

which keeps scores >= 0 even on tiny candidate sets, and

    score(q, d) = sum_t idf(t) * f(t,d) * (k1 + 1)
                  / (f(t,d) + k1 * (1 - b + b * |d| / avg_len))

summed over query term occurrences t (query term multiplicity counts).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from .errors import DataError
from .tokens import word_tokens


def tokenize(text: str) -> list[str]:
    """Casefolded Unicode word tokens; punctuation dropped."""
    return word_tokens(text, casefold=True)


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 1.5
    b: float = 0.75


@dataclass(frozen=True)
class Bm25Index:
    documents: tuple[tuple[str, ...], ...]
    doc_freq: dict[str, int]
    avg_len: float
    params: Bm25Params
    _term_freqs: tuple[Counter, ...] = field(repr=False, compare=False, default=())
    _idf: dict[str, float] = field(repr=False, compare=False, default_factory=dict)

    def __len__(self) -> int:
        return len(self.documents)


def build_index(
    docs: "list[str] | tuple[str, ...]", params: Bm25Params = Bm25Params()
) -> Bm25Index:
    """Compute document statistics for BM25 scoring."""
    if not docs:
        raise DataError("BM25 index needs at least one document")
    token_lists = [tokenize(d) for d in docs]
    total_len = sum(len(toks) for toks in token_lists)
    if total_len == 0:
        raise DataError("all documents tokenized to empty; avg_len would be 0")
    avg_len = total_len / len(token_lists)
    term_freqs = tuple(Counter(toks) for toks in token_lists)
    doc_freq: Counter = Counter()
    for tf in term_freqs:
        doc_freq.update(tf.keys())
    n = len(token_lists)
    idf = {
        t: math.log((n - df + 0.5) / (df + 0.5) + 1.0) for t, df in doc_freq.items()
    }
    return Bm25Index(
        documents=tuple(tuple(toks) for toks in token_lists),
        doc_freq=dict(doc_freq),
        avg_len=avg_len,
        params=params,
        _term_freqs=term_freqs,
        _idf=idf,
    )


def _score_tokens(index: Bm25Index, query_tokens: "list[str]", doc_id: int) -> float:
    tf = index._term_freqs[doc_id]
    doc_len = len(index.documents[doc_id])
    k1, b = index.params.k1, index.params.b
    norm = k1 * (1.0 - b + b * doc_len / index.avg_len)
    total = 0.0
    for term in query_tokens:
        f = tf.get(term, 0)
        if f == 0:
            continue
        total += index._idf[term] * f * (k1 + 1.0) / (f + norm)
    return total


def score_all(index: Bm25Index, query: str) -> list[float]:
    """BM25 score of every document, in index order; absent terms add 0."""
    query_tokens = tokenize(query)
    return [
        _score_tokens(index, query_tokens, doc_id) for doc_id in range(len(index))
    ]
