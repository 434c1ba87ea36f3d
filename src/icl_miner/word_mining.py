"""Phase 1: mine, filter and rank word-translation pairs.

One round samples n candidate translations per source-vocabulary word
(random sampling, stop at whitespace) and keeps the ones that land in the
target vocabulary, greedily translates the distinct target candidates back,
keeps only the round-trip pairs and ranks them by embedding similarity.
`mine_lexicon` runs that round twice: zero-shot, then with the first
round's selected pairs as in-context examples.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

from .backends.base import (
    DecodingMode,
    GenerationRequest,
    LLMBackend,
    SimilarityScorer,
    generate_each,
)
from .corpus import Vocabulary, normalize_token
from .errors import DataError
from .prompts import PromptTemplates, word_request

log = logging.getLogger(__name__)

ZERO_SHOT = "zero_shot"
K_SHOT = "k_shot"

# word -> scored candidate translations, best first, in mining order
Candidates = dict[str, tuple[tuple[str, float], ...]]


@dataclass(frozen=True)
class WordPair:
    source_word: str
    target_word: str
    similarity: float | None = None
    provenance: str = ZERO_SHOT

    def __post_init__(self) -> None:
        for word in (self.source_word, self.target_word):
            if not word or any(ch.isspace() for ch in word):
                raise DataError(f"word pair entries must be single words: {word!r}")

    def as_shot(self) -> tuple[str, str]:
        return (self.source_word, self.target_word)


@dataclass(frozen=True)
class MiningConfig:
    n: int = 10
    k_wp: int = 10
    temperature: float = 1.0
    seed: int = 0
    max_word_tokens: int = 8
    templates: PromptTemplates = PromptTemplates()


def _filtered_candidates(
    completions: Sequence, vocab: Vocabulary, limit: int
) -> tuple[tuple[str, float], ...]:
    """Keep completions that normalize into the vocabulary, deduplicated.

    Completions arrive sorted by descending score, so the first occurrence
    of a word is its best-scored one.
    """
    kept: list[tuple[str, float]] = []
    seen: set[str] = set()
    for completion in completions:
        word = normalize_token(completion.text)
        if not word or word in seen or word not in vocab:
            continue
        seen.add(word)
        kept.append((word, completion.sequence_score))
        if len(kept) >= limit:
            break
    return tuple(kept)


def _translate_words(
    words: Sequence[str],
    requests: Sequence[GenerationRequest],
    filter_vocab: Vocabulary,
    limit: int,
    llm: LLMBackend,
    max_workers: int,
) -> Candidates:
    """The candidates of each word that has any; a failed word has none."""
    results = generate_each(llm, requests, max_workers, "word translations")
    return {
        word: candidates
        for word, completions in zip(words, results)
        if (candidates := _filtered_candidates(completions, filter_vocab, limit))
    }


def mine_forward(
    vocab_src: Vocabulary,
    vocab_tgt: Vocabulary,
    config: MiningConfig,
    llm: LLMBackend,
    shots: Sequence[tuple[str, str]] = (),
    max_workers: int = 1,
) -> Candidates:
    """Mine source-to-target candidates for every source-vocabulary word."""
    if not len(vocab_src):
        raise DataError("source vocabulary is empty")
    src, trg = vocab_src.language, vocab_tgt.language
    mode = DecodingMode.random_sampling(config.temperature, config.seed)
    requests = [
        word_request(word, src, trg, shots, config.templates,
                     config.max_word_tokens, mode, num_samples=config.n)
        for word in vocab_src.words
    ]
    return _translate_words(
        vocab_src.words, requests, vocab_tgt, config.n, llm, max_workers
    )


def mine_backward(
    forward: Candidates,
    vocab_src: Vocabulary,
    vocab_tgt: Vocabulary,
    config: MiningConfig,
    llm: LLMBackend,
    shots: Sequence[tuple[str, str]] = (),
    max_workers: int = 1,
) -> Candidates:
    """Greedily back-translate the distinct forward candidates.

    Shots, when given, must already be oriented target-to-source.
    """
    targets = list(dict.fromkeys(
        word for candidates in forward.values() for word, _ in candidates
    ))
    requests = [
        word_request(word, vocab_tgt.language, vocab_src.language, shots,
                     config.templates, config.max_word_tokens)
        for word in targets
    ]
    return _translate_words(targets, requests, vocab_src, 1, llm, max_workers)


def consistency_filter(
    forward: Candidates,
    backward: Candidates,
    provenance: str = ZERO_SHOT,
) -> list[WordPair]:
    """Keep (w_s, w_t) when w_t was mined from w_s and w_s is w_t's back-translation.

    Output is deduplicated and ordered by source-vocabulary rank, then by
    descending forward sequence score (the order of `forward`).
    """
    pairs: list[WordPair] = []
    seen: set[tuple[str, str]] = set()
    for source_word, candidates in forward.items():
        for target_word, _score in candidates:
            if (source_word, target_word) in seen:
                continue
            back = backward.get(target_word, ())
            if any(back_word == source_word for back_word, _ in back):
                seen.add((source_word, target_word))
                pairs.append(
                    WordPair(source_word, target_word, provenance=provenance)
                )
    return pairs


def rank_and_select(
    pairs: Sequence[WordPair], scorer: SimilarityScorer, k_wp: int
) -> list[WordPair]:
    """Annotate pairs with similarity, sort descending, keep the top k_wp.

    The sort is stable over the input order, so ties fall back to the
    consistency filter's source-frequency ordering.
    """
    if not pairs:
        raise DataError("no word pairs to rank")
    similarities = scorer.sims((p.source_word, p.target_word) for p in pairs)
    annotated = [
        replace(pair, similarity=similarity)
        for pair, similarity in zip(pairs, similarities)
    ]
    annotated.sort(key=lambda p: -p.similarity)
    if len(annotated) < k_wp:
        log.warning("only %d pairs available (k_wp=%d)", len(annotated), k_wp)
    return annotated[:k_wp]


def _mining_round(
    vocab_src: Vocabulary,
    vocab_tgt: Vocabulary,
    config: MiningConfig,
    llm: LLMBackend,
    scorer: SimilarityScorer,
    max_workers: int,
    seeds: Sequence[WordPair] = (),
) -> list[WordPair]:
    """One mining cycle, with `seeds` as in-context examples; [] if no pair
    survives the consistency filter."""
    shots = [pair.as_shot() for pair in seeds]
    forward = mine_forward(vocab_src, vocab_tgt, config, llm, shots, max_workers)
    backward = mine_backward(
        forward, vocab_src, vocab_tgt, config, llm,
        [(t, s) for s, t in shots], max_workers,
    )
    pairs = consistency_filter(
        forward, backward, provenance=K_SHOT if seeds else ZERO_SHOT
    )
    return rank_and_select(pairs, scorer, config.k_wp) if pairs else []


def mine_lexicon(
    vocab_src: Vocabulary,
    vocab_tgt: Vocabulary,
    config: MiningConfig,
    llm: LLMBackend,
    scorer: SimilarityScorer,
    max_workers: int = 1,
) -> list[WordPair]:
    """The selected pairs of a zero-shot round, refined by a k-shot round.

    A zero-shot round with no pairs is an error; a k-shot round with no
    pairs keeps the zero-shot ones.
    """
    seeds = _mining_round(vocab_src, vocab_tgt, config, llm, scorer, max_workers)
    if not seeds:
        raise DataError("word mining produced no consistent pairs")
    refined = _mining_round(
        vocab_src, vocab_tgt, config, llm, scorer, max_workers, seeds
    )
    if not refined:
        log.warning("k-shot refinement produced no pairs; keeping seed pairs")
    return refined or seeds


def write_lexicon(path: str | Path, pairs: Sequence[WordPair]) -> None:
    """TSV lexicon: source_word, target_word, similarity, provenance."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with p.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter="\t", lineterminator="\n")
        writer.writerow(["source_word", "target_word", "similarity", "provenance"])
        for pair in pairs:
            sim = "" if pair.similarity is None else repr(pair.similarity)
            writer.writerow([pair.source_word, pair.target_word, sim, pair.provenance])


def read_lexicon(path: str | Path) -> list[WordPair]:
    with Path(path).open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter="\t")
        header = next(reader, None)
        if header != ["source_word", "target_word", "similarity", "provenance"]:
            raise DataError(f"{path} is not a lexicon file (header: {header})")
        pairs = []
        for row in reader:
            if len(row) != 4:
                raise DataError(f"{path}: malformed lexicon row {row!r}")
            source_word, target_word, sim, provenance = row
            pairs.append(
                WordPair(
                    source_word,
                    target_word,
                    similarity=float(sim) if sim else None,
                    provenance=provenance,
                )
            )
    if not pairs:
        raise DataError(f"empty lexicon: {path}")
    return pairs
