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

The index holds weighted postings: per term, the documents containing it,
in document order, and beside them each one's whole summand above. Scoring
starts every document at 0.0 and adds the postings of each query token in
query order, repeats included. A document's score is therefore the same
floats summed in the same order as the formula, and documents sharing no
term with the query are never visited.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from .errors import DataError
from .tokens import segment


def tokenize(text: str) -> list[str]:
    """Casefolded Unicode word tokens; punctuation dropped."""
    return [token.casefold() for token, is_word in segment(text) if is_word]


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
    # term -> (doc ids, weights), parallel and in doc order; a weight is the
    # term's whole BM25 summand for that document
    postings: dict[str, tuple[tuple[int, ...], tuple[float, ...]]] = field(
        repr=False, compare=False, default_factory=dict
    )

    def __len__(self) -> int:
        return len(self.documents)


def build_index(
    docs: "list[str] | tuple[str, ...]", params: Bm25Params = Bm25Params()
) -> Bm25Index:
    """Compute document statistics and weighted postings for BM25 scoring."""
    if not docs:
        raise DataError("BM25 index needs at least one document")
    token_lists = [tokenize(d) for d in docs]
    total_len = sum(len(toks) for toks in token_lists)
    if total_len == 0:
        raise DataError("all documents tokenized to empty; avg_len would be 0")
    avg_len = total_len / len(token_lists)
    term_freqs = [Counter(toks) for toks in token_lists]
    doc_freq: Counter = Counter()
    for tf in term_freqs:
        doc_freq.update(tf.keys())
    n = len(token_lists)
    idf = {
        t: math.log((n - df + 0.5) / (df + 0.5) + 1.0) for t, df in doc_freq.items()
    }
    k1, b = params.k1, params.b
    doc_ids: dict[str, list[int]] = {t: [] for t in doc_freq}
    weights: dict[str, list[float]] = {t: [] for t in doc_freq}
    for doc_id, (toks, tf) in enumerate(zip(token_lists, term_freqs)):
        norm = k1 * (1.0 - b + b * len(toks) / avg_len)
        for term, f in tf.items():
            doc_ids[term].append(doc_id)
            weights[term].append(idf[term] * f * (k1 + 1.0) / (f + norm))
    return Bm25Index(
        documents=tuple(tuple(toks) for toks in token_lists),
        doc_freq=dict(doc_freq),
        avg_len=avg_len,
        params=params,
        postings={t: (tuple(doc_ids[t]), tuple(weights[t])) for t in doc_freq},
    )


_NO_POSTINGS: tuple[tuple[int, ...], tuple[float, ...]] = ((), ())


def score_all(index: Bm25Index, query: str) -> list[float]:
    """BM25 score of every document, in index order; absent terms add 0."""
    scores = [0.0] * len(index)
    postings = index.postings
    for term in tokenize(query):
        doc_ids, weights = postings.get(term, _NO_POSTINGS)
        for doc_id, weight in zip(doc_ids, weights):
            scores[doc_id] += weight
    return scores
