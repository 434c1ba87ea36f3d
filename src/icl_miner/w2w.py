"""Word-by-word translation: the weakly-annotated synthetic corpus builder.

`build_w2w` segments each sentence once and has its `Translator` send one
request per distinct translatable word (a word token that is not all
digits), with the mined lexicon as in-context examples. The non-empty
first completions form one word table, and each sentence is rendered by
lookup in it. A token without an entry is copied through: punctuation,
digits, and a word whose translation was empty or failed (dropping words
would damage the back-translation shots built from these renderings). When
more than half of the distinct words fail, `generate_each` aborts the
build instead. Tokens are rejoined with single spaces, without
detokenization.
"""

from __future__ import annotations

import json
import logging
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .corpus import read_written_lines, write_jsonl
from .errors import DataError
from .prompts import Translator
from .tokens import segment
from .word_mining import WordPair

log = logging.getLogger(__name__)


def _translatable(token: str, is_word: bool) -> bool:
    """A word token that is not all digits: the tokens sent for translation."""
    return is_word and not all(
        unicodedata.category(ch).startswith("N") for ch in token
    )


@dataclass(frozen=True)
class W2wCorpus:
    """(original sentence, word-by-word rendering) pairs, input order.

    This is exactly what `w2w.jsonl` holds. `copied_through[i]` counts every
    token of sentence i that was copied through unchanged: punctuation,
    digits and the words without a translation. `copy_through_ratio`
    counts word tokens only: the share of translatable word tokens that
    got no non-empty translation.
    """

    pairs: tuple[tuple[str, str], ...]
    copied_through: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def copy_through_ratio(self) -> float:
        words = copied_words = 0
        for (source, _), copied in zip(self.pairs, self.copied_through):
            tokens = segment(source)
            n_words = sum(_translatable(token, is_word) for token, is_word in tokens)
            words += n_words
            # every token that is not a translatable word is copied through
            copied_words += copied - (len(tokens) - n_words)
        return copied_words / words if words else 0.0


def build_w2w(
    sentences: Sequence[str],
    shots: Sequence[WordPair],
    translator: Translator,
) -> W2wCorpus:
    """Render every sentence word-by-word; output aligns with the input."""
    if not sentences:
        raise DataError("no sentences to translate")
    if not shots:
        raise DataError("word-by-word translation needs in-context shots")
    shot_pairs = tuple(pair.as_shot() for pair in shots)
    segmented = [segment(sentence) for sentence in sentences]
    words = list(dict.fromkeys(
        token
        for tokens in segmented
        for token, is_word in tokens
        if _translatable(token, is_word)
    ))
    results = translator.words(words, shot_pairs)
    # keys are word tokens only, so no punctuation or digit token finds one
    table = {
        word: completions[0].text
        for word, completions in zip(words, results)
        if completions and completions[0].text
    }
    corpus = W2wCorpus(
        pairs=tuple(
            (sentence, " ".join(table.get(token, token) for token, _ in tokens))
            for sentence, tokens in zip(sentences, segmented)
        ),
        copied_through=tuple(
            sum(token not in table for token, _ in tokens) for tokens in segmented
        ),
    )
    log.info("w2w: %d sentences, copy-through ratio %.3f",
             len(corpus), corpus.copy_through_ratio)
    return corpus


def write_w2w(path: str | Path, corpus: W2wCorpus) -> None:
    """JSONL records {source, w2w, copied_through}."""
    write_jsonl(
        path,
        (
            {"source": source, "w2w": rendering, "copied_through": copied}
            for (source, rendering), copied in zip(corpus.pairs, corpus.copied_through)
        ),
    )


def read_w2w(path: str | Path) -> W2wCorpus:
    """Inverse of `write_w2w`."""
    records = [json.loads(line) for line in read_written_lines(path) if line.strip()]
    if not records:
        raise DataError(f"empty w2w corpus: {path}")
    return W2wCorpus(
        pairs=tuple((record["source"], record["w2w"]) for record in records),
        copied_through=tuple(int(record["copied_through"]) for record in records),
    )
