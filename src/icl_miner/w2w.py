"""Word-by-word translation: the weakly-annotated synthetic corpus builder.

Each sentence is segmented into word and non-word tokens; word tokens are
translated one at a time with the mined lexicon as in-context examples,
while punctuation and pure-digit tokens pass through unchanged. A word
whose translation is empty, or whose request failed, is copied through:
dropping words would damage the back-translation shots built from these
renderings. Failures follow `generate_each`: when more than half of the
distinct words fail, the build aborts instead. Tokens are rejoined with
single spaces; no detokenization polish is applied.
"""

from __future__ import annotations

import json
import logging
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .backends.base import LLMBackend, generate_each
from .corpus import LanguageSpec, read_written_lines, write_jsonl
from .errors import DataError
from .prompts import PromptTemplates, word_request
from .tokens import segment
from .word_mining import WordPair

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SentenceStats:
    translated: int
    copied_through: int


@dataclass(frozen=True)
class W2wCorpus:
    """(original sentence, word-by-word rendering) pairs, input order."""

    pairs: tuple[tuple[str, str], ...]
    stats: tuple[SentenceStats, ...]

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def copy_through_ratio(self) -> float:
        copied = sum(s.copied_through for s in self.stats)
        total = copied + sum(s.translated for s in self.stats)
        return copied / total if total else 0.0


def _is_pure_digits(token: str) -> bool:
    return all(unicodedata.category(ch).startswith("N") for ch in token)


class W2wTranslator:
    """Per-run word translator with memoization over distinct words."""

    def __init__(
        self,
        shots: Sequence[WordPair],
        llm: LLMBackend,
        source_lang: LanguageSpec,
        target_lang: LanguageSpec,
        templates: PromptTemplates = PromptTemplates(),
        max_word_tokens: int = 8,
    ):
        if not shots:
            raise DataError("word-by-word translation needs in-context shots")
        self.shots = tuple(pair.as_shot() for pair in shots)
        self.llm = llm
        self.source_lang = source_lang
        self.target_lang = target_lang
        self.templates = templates
        self.max_word_tokens = max_word_tokens
        self._memo: dict[str, tuple[str, bool]] = {}

    def translate(self, word: str) -> tuple[str, bool]:
        """Translate one word; returns (text, copied_through)."""
        if word not in self._memo:
            self.warm_up([word])
        return self._memo[word]

    def warm_up(self, words: Sequence[str], max_workers: int = 1) -> None:
        """Fill the memo for distinct words, possibly concurrently.

        A failed or empty translation copies the word through.
        """
        distinct = [w for w in dict.fromkeys(words) if w not in self._memo]
        requests = [
            word_request(word, self.source_lang, self.target_lang, self.shots,
                         self.templates, self.max_word_tokens)
            for word in distinct
        ]
        results = generate_each(self.llm, requests, max_workers, "word translations")
        for word, completions in zip(distinct, results):
            text = completions[0].text if completions else ""
            self._memo[word] = (text, False) if text else (word, True)

    def render(self, sentence: str) -> tuple[str, SentenceStats]:
        """Word-by-word rendering; 1:1 token mapping, space-joined."""
        tokens = segment(sentence)
        if not tokens:
            return sentence, SentenceStats(0, 0)
        out: list[str] = []
        translated = copied = 0
        for token, is_word in tokens:
            if is_word and not _is_pure_digits(token):
                text, was_copied = self.translate(token)
                out.append(text)
                if was_copied:
                    copied += 1
                else:
                    translated += 1
            else:
                out.append(token)
                copied += 1
        return " ".join(out), SentenceStats(translated, copied)


def build_w2w(
    sentences: Sequence[str],
    shots: Sequence[WordPair],
    llm: LLMBackend,
    source_lang: LanguageSpec,
    target_lang: LanguageSpec,
    templates: PromptTemplates = PromptTemplates(),
    max_word_tokens: int = 8,
    max_workers: int = 1,
) -> W2wCorpus:
    """Render every sentence word-by-word; output aligns with the input."""
    if not sentences:
        raise DataError("no sentences to translate")
    translator = W2wTranslator(
        shots, llm, source_lang, target_lang, templates, max_word_tokens
    )
    word_tokens = [
        token
        for sentence in sentences
        for token, is_word in segment(sentence)
        if is_word and not _is_pure_digits(token)
    ]
    translator.warm_up(word_tokens, max_workers=max_workers)

    pairs: list[tuple[str, str]] = []
    stats: list[SentenceStats] = []
    for sentence in sentences:
        rendering, sentence_stats = translator.render(sentence)
        pairs.append((sentence, rendering))
        stats.append(sentence_stats)
    corpus = W2wCorpus(pairs=tuple(pairs), stats=tuple(stats))
    log.info(
        "w2w: %d sentences, copy-through ratio %.3f",
        len(corpus),
        corpus.copy_through_ratio,
    )
    return corpus


def write_w2w(path: str | Path, corpus: W2wCorpus) -> None:
    """JSONL records {source, w2w, copied_through}."""
    write_jsonl(
        path,
        (
            {
                "source": source,
                "w2w": rendering,
                "copied_through": sentence_stats.copied_through,
            }
            for (source, rendering), sentence_stats in zip(corpus.pairs, corpus.stats)
        ),
    )


def read_w2w(path: str | Path) -> W2wCorpus:
    pairs: list[tuple[str, str]] = []
    stats: list[SentenceStats] = []
    for line in read_written_lines(path):
        if not line.strip():
            continue
        record = json.loads(line)
        pairs.append((record["source"], record["w2w"]))
        # every token is either translated or copied through
        copied = int(record["copied_through"])
        stats.append(SentenceStats(len(segment(record["source"])) - copied, copied))
    if not pairs:
        raise DataError(f"empty w2w corpus: {path}")
    return W2wCorpus(pairs=tuple(pairs), stats=tuple(stats))
