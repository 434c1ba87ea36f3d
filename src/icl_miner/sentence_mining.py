"""Phase 2: back-translate unlabeled sentences and select in-context examples.

The unlabeled target-language corpus is translated back into the source
language with the word-by-word renderings as in-context examples, giving a
pool of pseudo-parallel pairs scored by cross-lingual embedding similarity.
Three per-query selection policies pick examples from the pool: Random
(first k, the reproducible convention), TopK (highest similarity), and
TopK+BM25 (similarity threshold filter, then lexical BM25 ranking against
the query, with a top-m fallback when the threshold leaves fewer than k
candidates).
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from . import bm25
from .backends.base import (
    DecodingMode,
    GenerationRequest,
    LLMBackend,
    SimilarityScorer,
    StopCondition,
    parallel_map,
)
from .corpus import LanguageSpec, MonolingualCorpus
from .errors import BackendError, DataError
from .prompts import PromptTemplates, sentence_translation_prompt
from .w2w import W2wCorpus

log = logging.getLogger(__name__)

ORIGIN_MINED = "mined"
ORIGIN_W2W_SHOT = "w2w_shot"
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

    def flipped(self) -> "SentencePair":
        return SentencePair(
            source_text=self.target_text,
            target_text=self.source_text,
            similarity=self.similarity,
            origin=self.origin,
        )


@dataclass(frozen=True)
class MinedPool:
    pairs: tuple[SentencePair, ...]
    iteration: int = 1

    def __len__(self) -> int:
        return len(self.pairs)

    def require_scored(self) -> None:
        if any(p.similarity is None for p in self.pairs):
            raise DataError("pool is not fully scored")


@dataclass(frozen=True)
class SelectionPolicy:
    kind: str  # random | topk | topk_bm25
    k: int = 8
    tau: float = 0.90
    fallback_m: int = 20

    def __post_init__(self) -> None:
        if self.kind not in ("random", "topk", "topk_bm25"):
            raise DataError(f"unknown selection policy {self.kind!r}")
        if self.k < 1:
            raise DataError("policy k must be >= 1")
        if not 0.0 <= self.tau <= 1.0:
            raise DataError("tau must be in [0, 1]")
        if self.fallback_m < self.k:
            raise DataError("fallback_m must be >= k")


@dataclass(frozen=True)
class SelectionAudit:
    """Which pool entries a selection returned, for the per-query audit log."""

    pool_indices: tuple[int, ...]
    bm25_scores: tuple[float, ...] | None = None
    used_fallback: bool = False


def select_backtranslation_shots(
    w2w: W2wCorpus,
    k: int,
    strategy: str = "first_k",
    scorer: SimilarityScorer | None = None,
) -> list[SentencePair]:
    """Package w2w entries as shots for translating target -> source.

    The shot's source side is the word-by-word rendering (target language)
    and its target side is the original sentence, i.e. the reverse of the
    translation that produced it. Default picks the first k entries; the
    "top_sim" strategy ranks entries by rendering/original similarity.
    """
    if not len(w2w):
        raise DataError("w2w corpus is empty")
    entries = list(w2w.pairs)
    if strategy == "top_sim":
        if scorer is None:
            raise DataError("top_sim shot strategy needs a similarity scorer")
        similarities = scorer.sims(
            (rendering, original) for original, rendering in entries
        )
        ranked = sorted(zip(similarities, entries), key=lambda item: -item[0])
        entries = [entry for _, entry in ranked]
    elif strategy != "first_k":
        raise DataError(f"unknown shot strategy {strategy!r}")
    if len(entries) < k:
        log.warning("only %d w2w entries available (k=%d)", len(entries), k)
    return [
        SentencePair(
            source_text=rendering,
            target_text=original,
            origin=ORIGIN_W2W_SHOT,
        )
        for original, rendering in entries[:k]
    ]


def back_translate(
    d_u: MonolingualCorpus,
    shots: Sequence[SentencePair],
    llm: LLMBackend,
    scorer: SimilarityScorer,
    source_lang: LanguageSpec,
    target_lang: LanguageSpec,
    templates: PromptTemplates = PromptTemplates(),
    decoding: DecodingMode = DecodingMode.greedy(),
    max_sentence_tokens: int = 256,
    max_workers: int = 1,
    iteration: int = 1,
) -> MinedPool:
    """Translate each unlabeled target sentence into the source language.

    Shots must be oriented target -> source. Each resulting pair keeps the
    generated text as source and the natural sentence as target, scored
    with the cross-lingual similarity function.
    """
    if not len(d_u):
        raise DataError("unlabeled corpus is empty")
    shot_pairs = [p.as_shot() for p in shots]

    def worker(sentence: str):
        prompt = sentence_translation_prompt(
            sentence,
            target_lang.display_name,
            source_lang.display_name,
            shot_pairs,
            templates,
        )
        request = GenerationRequest(
            prompt=prompt,
            num_samples=1,
            mode=decoding,
            stop=StopCondition.at("\n"),
            max_new_tokens=max_sentence_tokens,
        )
        try:
            completions = llm.generate(request)
        except BackendError as exc:
            log.warning("back-translation failed for %r: %s", sentence[:40], exc)
            return sentence, None
        return sentence, completions[0].text if completions else ""

    results = parallel_map(worker, d_u.sentences, max_workers=max_workers)
    failures = sum(1 for _, text in results if text is None)
    if failures * 2 > len(d_u):
        raise BackendError(
            f"{failures}/{len(d_u)} back-translations failed; aborting"
        )
    kept: list[tuple[str, str]] = []
    for sentence, text in results:
        if text is None:
            continue
        if not text:
            log.warning("empty back-translation dropped for %r", sentence[:40])
            continue
        kept.append((text, sentence))
    pairs: list[SentencePair] = []
    for (text, sentence), similarity in zip(kept, scorer.sims(kept)):
        if similarity == 1.0:
            log.warning("back-translation equals its input: %r", sentence[:40])
        pairs.append(
            SentencePair(
                source_text=text,
                target_text=sentence,
                similarity=similarity,
                origin=ORIGIN_MINED,
            )
        )
    return MinedPool(pairs=tuple(pairs), iteration=iteration)


def select_random(pool: MinedPool, k: int) -> list[SentencePair]:
    """First k pairs in pool order (the reproducible 'random' convention)."""
    if not len(pool):
        raise DataError("pool is empty")
    return list(pool.pairs[:k])


def select_topk(pool: MinedPool, k: int) -> list[SentencePair]:
    """k pairs with the highest similarity, descending; ties keep pool order."""
    if not len(pool):
        raise DataError("pool is empty")
    pool.require_scored()
    ranked = sorted(pool.pairs, key=lambda p: -p.similarity)
    return ranked[:k]


def select_topk_bm25_with_audit(
    pool: MinedPool,
    query: str,
    policy: SelectionPolicy,
    index_builder: Callable[[list[str]], bm25.Bm25Index] | None = None,
) -> tuple[list[SentencePair], SelectionAudit]:
    """Similarity-threshold filter, then BM25 ranking against the query.

    Candidates are pairs with similarity strictly above tau; when fewer
    than k remain, the top fallback_m pairs by similarity are used instead.
    The BM25 index covers the candidates' source side. Returned pairs are
    ordered by descending BM25 score, ties by similarity then pool order.
    """
    if not len(pool):
        raise DataError("pool is empty")
    if not query:
        raise DataError("query must be non-empty")
    pool.require_scored()
    if index_builder is None:
        index_builder = bm25.CachedIndexBuilder()

    candidate_ids = [
        i for i, p in enumerate(pool.pairs) if p.similarity > policy.tau
    ]
    used_fallback = len(candidate_ids) < policy.k
    if used_fallback:
        by_similarity = sorted(
            range(len(pool.pairs)), key=lambda i: -pool.pairs[i].similarity
        )
        candidate_ids = sorted(by_similarity[: policy.fallback_m])

    docs = [pool.pairs[i].source_text for i in candidate_ids]
    index = index_builder(docs)
    scores = bm25.score_all(index, query)
    # candidates are in pool order, so a stable sort resolves full ties to it
    ranked = sorted(
        range(len(docs)),
        key=lambda j: (-scores[j], -pool.pairs[candidate_ids[j]].similarity),
    )
    top = ranked[: policy.k]
    selected = [pool.pairs[candidate_ids[j]] for j in top]
    audit = SelectionAudit(
        pool_indices=tuple(candidate_ids[j] for j in top),
        bm25_scores=tuple(scores[j] for j in top),
        used_fallback=used_fallback,
    )
    return selected, audit


def select_topk_bm25(
    pool: MinedPool,
    query: str,
    policy: SelectionPolicy,
    index_builder: Callable[[list[str]], bm25.Bm25Index] | None = None,
) -> list[SentencePair]:
    selected, _ = select_topk_bm25_with_audit(pool, query, policy, index_builder)
    return selected


def mine_examples(
    d_u: MonolingualCorpus,
    w2w: W2wCorpus,
    k: int,
    llm: LLMBackend,
    scorer: SimilarityScorer,
    source_lang: LanguageSpec,
    target_lang: LanguageSpec,
    iterations: int = 1,
    shot_strategy: str = "first_k",
    templates: PromptTemplates = PromptTemplates(),
    decoding: DecodingMode = DecodingMode.greedy(),
    max_sentence_tokens: int = 256,
    max_workers: int = 1,
) -> MinedPool:
    """Run back-translation for one or more rounds and return the final pool.

    Rounds after the first reuse the previous pool's global top-k pairs
    (flipped to target -> source orientation) as shots.
    """
    if iterations < 1:
        raise DataError("iterations must be >= 1")
    shots = select_backtranslation_shots(w2w, k, shot_strategy, scorer)
    pool = back_translate(
        d_u,
        shots,
        llm,
        scorer,
        source_lang,
        target_lang,
        templates,
        decoding,
        max_sentence_tokens,
        max_workers,
        iteration=1,
    )
    for iteration in range(2, iterations + 1):
        shots = [p.flipped() for p in select_topk(pool, k)]
        pool = back_translate(
            d_u,
            shots,
            llm,
            scorer,
            source_lang,
            target_lang,
            templates,
            decoding,
            max_sentence_tokens,
            max_workers,
            iteration=iteration,
        )
    return pool


def write_pool(path: str | Path, pool: MinedPool) -> None:
    """JSONL records {source, target, sim, origin, iteration}."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with p.open("w", encoding="utf-8", newline="\n") as fh:
        for pair in pool.pairs:
            fh.write(
                json.dumps(
                    {
                        "source": pair.source_text,
                        "target": pair.target_text,
                        "sim": pair.similarity,
                        "origin": pair.origin,
                        "iteration": pool.iteration,
                    },
                    ensure_ascii=False,
                    sort_keys=True,
                )
            )
            fh.write("\n")


def read_pool(path: str | Path) -> MinedPool:
    pairs: list[SentencePair] = []
    iteration = 1
    for line in Path(path).read_text(encoding="utf-8").splitlines():
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
