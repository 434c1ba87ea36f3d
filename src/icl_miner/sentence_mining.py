"""Phase 2: back-translate unlabeled sentences and select in-context examples.

The unlabeled target-language corpus is translated back into the source
language by the reversed `Translator`, with the word-by-word renderings as
in-context examples, giving a pool of pseudo-parallel pairs scored by
cross-lingual embedding similarity. Three selectors pick examples from the
pool: Random (first k, the reproducible convention), TopK (highest
similarity), and TopK+BM25 (similarity threshold filter, with a top-m
fallback when the threshold leaves fewer than k candidates, then lexical
BM25 ranking against the query). Only the BM25 ranking depends on the
query: the similarity order is computed once per pool, and the filtered
candidates and their BM25 index once per pool and selection constants
(`bm25_candidates`). Each distinct query is ranked once per candidate set;
a repeated query reuses that ranking.
"""

from __future__ import annotations

import heapq
import json
import logging
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Sequence

from . import bm25
from .backends.base import SimilarityScorer
from .corpus import read_written_lines, write_jsonl
from .errors import DataError
from .prompts import Translator
from .w2w import W2wCorpus

log = logging.getLogger(__name__)

ORIGIN_MINED = "mined"
ORIGIN_GOLD = "gold"


@dataclass(frozen=True)
class SentencePair:
    source_text: str
    target_text: str
    similarity: float | None = None
    origin: str = ORIGIN_MINED

    def __post_init__(self) -> None:
        if not self.source_text or not self.target_text:
            raise DataError("sentence pair sides must be non-empty")

    def as_shot(self) -> tuple[str, str]:
        return (self.source_text, self.target_text)


@dataclass(frozen=True)
class MinedPool:
    pairs: tuple[SentencePair, ...]
    iteration: int = 1

    def __len__(self) -> int:
        return len(self.pairs)

    @cached_property
    def by_similarity(self) -> tuple[int, ...]:
        """Pool indices by descending similarity; ties keep pool order."""
        if any(p.similarity is None for p in self.pairs):
            raise DataError("pool is not fully scored")
        return tuple(
            sorted(range(len(self.pairs)), key=lambda i: -self.pairs[i].similarity)
        )


@dataclass(frozen=True)
class SelectionAudit:
    """Which pool entries a selection returned, for the per-query audit log."""

    pool_indices: tuple[int, ...]
    bm25_scores: tuple[float, ...] | None = None
    used_fallback: bool = False


def select_backtranslation_shots(
    w2w: W2wCorpus,
    k: int,
    scorer: SimilarityScorer,
    strategy: str = "first_k",
) -> list[tuple[str, str]]:
    """(rendering, original) shots for translating target -> source.

    The shot's source side is the word-by-word rendering (target language)
    and its target side is the original sentence, i.e. the reverse of the
    translation that produced it. Default picks the first k entries; the
    "top_sim" strategy ranks entries by rendering/original similarity.
    """
    if not len(w2w):
        raise DataError("w2w corpus is empty")
    entries = list(w2w.pairs)
    if strategy == "top_sim":
        similarities = scorer.sims(
            (rendering, original) for original, rendering in entries
        )
        ranked = sorted(zip(similarities, entries), key=lambda item: -item[0])
        entries = [entry for _, entry in ranked]
    elif strategy != "first_k":
        raise DataError(f"unknown shot strategy {strategy!r}")
    if len(entries) < k:
        log.warning("only %d w2w entries available (k=%d)", len(entries), k)
    return [(rendering, original) for original, rendering in entries[:k]]


def back_translate(
    d_u: Sequence[str],
    shots: Sequence[tuple[str, str]],
    translator: Translator,
    scorer: SimilarityScorer,
    iteration: int = 1,
) -> MinedPool:
    """Translate each unlabeled target sentence into the source language
    with the reverse of the source-to-target `translator`.

    Shots are (source, target) tuples oriented target -> source: each
    shows a target-language sentence, then its source-language rendering.
    Each resulting pair keeps the generated text as source and the natural
    sentence as target, scored with the cross-lingual similarity function.
    A sentence whose back-translation is empty or failed (see
    `generate_each`) is dropped.
    """
    if not len(d_u):
        raise DataError("unlabeled corpus is empty")
    texts = translator.reverse().sentences(
        d_u, [shots] * len(d_u), "back-translations"
    )
    kept: list[tuple[str, str]] = []
    dropped: list[str] = []
    for sentence, text in zip(d_u, texts):
        if text:
            kept.append((text, sentence))
        else:
            dropped.append(sentence)
    _warn_pairs("no back-translation; dropped", dropped)
    pairs = tuple(
        SentencePair(
            source_text=text,
            target_text=sentence,
            similarity=similarity,
            origin=ORIGIN_MINED,
        )
        for (text, sentence), similarity in zip(kept, scorer.sims(kept))
    )
    _warn_pairs(
        "back-translation equals its input",
        [sentence for text, sentence in kept if text == sentence],
    )
    return MinedPool(pairs=pairs, iteration=iteration)


def _warn_pairs(message: str, sentences: list[str]) -> None:
    """One warning for the pairs of `sentences`, if any: how many pairs, how
    many distinct sentences, and the first one."""
    if sentences:
        log.warning(
            "%s: %d pairs, %d distinct, e.g. %r", message,
            len(sentences), len(set(sentences)), sentences[0][:40],
        )


def select_random(pool: MinedPool, k: int) -> list[SentencePair]:
    """First k pairs in pool order (the reproducible 'random' convention)."""
    if not len(pool):
        raise DataError("pool is empty")
    return list(pool.pairs[:k])


def select_topk(pool: MinedPool, k: int) -> list[SentencePair]:
    """k pairs with the highest similarity, descending; ties keep pool order."""
    if not len(pool):
        raise DataError("pool is empty")
    return [pool.pairs[i] for i in pool.by_similarity[:k]]


@dataclass(frozen=True)
class Bm25Candidates:
    """The query-independent half of TopK+BM25 selection over one pool.

    `ids` are the candidates' pool indices by descending similarity, ties
    in pool order; `index` covers their source sides in that order.
    `ranked` memoizes, per query text, the pool indices and BM25 scores of
    the query's k best candidates, so each distinct query is ranked once.
    """

    pool: MinedPool
    k: int
    ids: tuple[int, ...]
    index: bm25.Bm25Index
    used_fallback: bool
    ranked: dict[str, tuple[tuple[int, ...], tuple[float, ...]]] = field(
        default_factory=dict, compare=False, repr=False
    )


def bm25_candidates(
    pool: MinedPool,
    k: int,
    tau: float,
    fallback_m: int,
    params: bm25.Bm25Params = bm25.Bm25Params(),
) -> Bm25Candidates:
    """Pairs with similarity strictly above tau, indexed for BM25.

    When fewer than k pairs pass the threshold, the top fallback_m pairs
    by similarity are the candidates instead.
    """
    if not len(pool):
        raise DataError("pool is empty")
    ids = tuple(i for i in pool.by_similarity if pool.pairs[i].similarity > tau)
    used_fallback = len(ids) < k
    if used_fallback:
        ids = pool.by_similarity[:fallback_m]
    index = bm25.build_index([pool.pairs[i].source_text for i in ids], params)
    return Bm25Candidates(pool, k, ids, index, used_fallback)


def select_topk_bm25_with_audit(
    candidates: Bm25Candidates, query: str
) -> tuple[list[SentencePair], SelectionAudit]:
    """The k candidates with the highest BM25 score against the query.

    Ties go by similarity, then pool order: the candidates come in that
    order, and `heapq.nlargest` keeps the k best in the order of a stable
    descending sort without sorting the rest. A query is scored only the
    first time it is seen on `candidates`; a repeat reads the ranking from
    `candidates.ranked` and gets a new list of pairs.
    """
    if not query:
        raise DataError("query must be non-empty")
    ranked = candidates.ranked.get(query)
    if ranked is None:
        scores = bm25.score_all(candidates.index, query)
        top = heapq.nlargest(candidates.k, range(len(scores)), key=scores.__getitem__)
        ranked = candidates.ranked[query] = (
            tuple(candidates.ids[j] for j in top),
            tuple(scores[j] for j in top),
        )
    ids, scores = ranked
    audit = SelectionAudit(
        pool_indices=ids, bm25_scores=scores, used_fallback=candidates.used_fallback
    )
    return [candidates.pool.pairs[i] for i in ids], audit


def mine_examples(
    d_u: Sequence[str],
    w2w: W2wCorpus,
    k: int,
    translator: Translator,
    scorer: SimilarityScorer,
    iterations: int = 1,
    shot_strategy: str = "first_k",
) -> MinedPool:
    """Run back-translation for one or more rounds and return the final pool.

    Rounds after the first reuse the previous pool's global top-k pairs
    (reversed to target -> source orientation) as shots.
    """
    if iterations < 1:
        raise DataError("iterations must be >= 1")
    shots = select_backtranslation_shots(w2w, k, scorer, shot_strategy)
    for iteration in range(1, iterations + 1):
        if iteration > 1:
            shots = [(p.target_text, p.source_text) for p in select_topk(pool, k)]
        pool = back_translate(d_u, shots, translator, scorer, iteration)
    return pool


def write_pool(path: str | Path, pool: MinedPool) -> None:
    """JSONL records {source, target, sim, origin, iteration}."""
    write_jsonl(
        path,
        (
            {
                "source": pair.source_text,
                "target": pair.target_text,
                "sim": pair.similarity,
                "origin": pair.origin,
                "iteration": pool.iteration,
            }
            for pair in pool.pairs
        ),
    )


def read_pool(path: str | Path) -> MinedPool:
    pairs: list[SentencePair] = []
    iteration = 1
    for line in read_written_lines(path):
        if not line.strip():
            continue
        record = json.loads(line)
        iteration = int(record.get("iteration", 1))
        pairs.append(
            SentencePair(
                source_text=record["source"],
                target_text=record["target"],
                similarity=record["sim"],
                origin=record.get("origin", ORIGIN_MINED),
            )
        )
    if not pairs:
        raise DataError(f"empty mined pool: {path}")
    return MinedPool(pairs=tuple(pairs), iteration=iteration)
