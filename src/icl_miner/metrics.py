"""Translation quality metrics: chrF++ and corpus BLEU.

chrF++ averages precision/recall over character n-grams (default 1..6,
computed on whitespace-removed text) and word n-grams (default 1..2, over
punctuation-separated tokens), then combines them with an F-beta (beta=2).
Orders where either side has no n-grams at all are skipped. Each line is
normalized and split into words once; per-order totals follow from its
lengths. Word n-grams are counted on both sides and matched by their
Counters. Char n-grams are counted on the hypothesis side only: each
distinct one is looked up in the whitespace-removed reference text, and
one the hypothesis holds more than once is clipped at its overlapping
occurrences there, so no reference char n-gram table is built. A lookup
scans the reference line, so the cost per hypothesis gram grows with the
reference line's length. Against counting the reference grams too, this
is cheaper for sentence-level lines and dearer for paragraphs; measured on
one 2-vCPU x86 host, the time is 0.7-0.8x at 157 chars per reference
line, 0.73x at 316, 1.03x at 632 and 1.75x at 2,533. The per-order
scores are added in order, char orders first.

BLEU is corpus-level: modified (clipped) n-gram precisions combined by a
geometric mean with a brevity penalty. Orders whose hypothesis corpus has
no n-grams of that size are skipped so that identical corpora always score
100 (short-corpus effective-order rule). The subword tokenizer is a greedy
longest-match over a user-supplied vocabulary, approximating
SentencePiece-style subword BLEU; scores are only comparable within one
tokenizer. BLEU counts each line's n-grams, orders 1..N, in one Counter per
side.

Both scores are computed in two steps. `_chrf_stats` and `_bleu_stats` turn
a slice of line pairs into integer statistics (per-order totals and
matches, and for BLEU the two lengths); the score is then a float function
of those integers over the whole corpus. Given a process pool (`pool=`),
`chrf_pp` and `bleu` split the lines into contiguous chunks, one per CPU,
hand every chunk to the pool's workers while the calling thread waits, and
add the integers up; the process's other threads, such as the pipeline's
next translation, run meanwhile. Integer sums do not depend on the
chunking, so a score is the same, bit for bit, with or without a pool.
"""

from __future__ import annotations

import math
import os
import unicodedata
from collections import Counter
from concurrent.futures import Executor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .corpus import read_written_lines
from .errors import ConfigError, DataError

Tokenizer = Callable[[str], list[str]]


def normalize_text(text: str) -> str:
    """Strip, collapse internal whitespace runs to single spaces, NFC."""
    return unicodedata.normalize("NFC", " ".join(text.split()))


@dataclass(frozen=True)
class ChrfConfig:
    char_ngram_max: int = 6
    word_ngram_max: int = 2
    beta: float = 2.0

    def __post_init__(self) -> None:
        if self.char_ngram_max < 1 or self.word_ngram_max < 1:
            raise ConfigError("chrF n-gram maxima must be >= 1")
        if self.beta <= 0:
            raise ConfigError("chrF beta must be positive")


@dataclass(frozen=True)
class BleuConfig:
    max_ngram: int = 4
    smoothing: str = "epsilon"  # none | epsilon | exp
    tokenizer: str = "whitespace"  # whitespace | char | subword:<vocab file>
    epsilon: float = 0.1

    def __post_init__(self) -> None:
        if self.max_ngram < 1:
            raise ConfigError("BLEU max_ngram must be >= 1")
        if self.smoothing not in ("none", "epsilon", "exp"):
            raise ConfigError(f"unknown BLEU smoothing {self.smoothing!r}")
        vocab = subword_vocab(self.tokenizer)
        if vocab is None and self.tokenizer not in ("whitespace", "char"):
            raise ConfigError(f"unknown BLEU tokenizer {self.tokenizer!r}")
        if vocab is not None and not Path(vocab).is_file():
            raise ConfigError(f"subword vocabulary not found: {vocab}")


@dataclass(frozen=True)
class EvalReport:
    source_code: str
    target_code: str
    system: str
    chrf_pp: float
    bleu: float
    sentence_count: int

    def row(self) -> str:
        """Plain-text table row, scores shown as chrF++/spBLEU."""
        return (
            f"{self.source_code}→{self.target_code}  {self.system}  "
            f"{self.chrf_pp:.2f}/{self.bleu:.2f}"
        )

    def to_record(self) -> dict:
        """The JSON object of `report.<policy>.json`."""
        return {
            "direction": [self.source_code, self.target_code],
            "system": self.system,
            "chrf_pp": self.chrf_pp,
            "bleu": self.bleu,
            "sentence_count": self.sentence_count,
        }

    @classmethod
    def from_record(cls, record: dict) -> "EvalReport":
        source_code, target_code = record["direction"]
        return cls(
            source_code=source_code,
            target_code=target_code,
            system=record["system"],
            chrf_pp=record["chrf_pp"],
            bleu=record["bleu"],
            sentence_count=record["sentence_count"],
        )


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def _punct_split_tokens(text: str) -> list[str]:
    """Whitespace tokens with leading/trailing punctuation split off."""
    out: list[str] = []
    for word in text.split():
        # no alphanumeric code point is punctuation: nothing to split off
        if word[0].isalnum() and word[-1].isalnum():
            out.append(word)
            continue
        head: list[str] = []
        tail: list[str] = []
        while len(word) > 1 and _is_punct(word[0]):
            head.append(word[0])
            word = word[1:]
        while len(word) > 1 and _is_punct(word[-1]):
            tail.append(word[-1])
            word = word[:-1]
        out.extend(head)
        out.append(word)
        out.extend(reversed(tail))
    return out


def _count_ngrams(
    grams: Counter, items: "str | tuple[str, ...]", min_n: int, max_n: int
) -> None:
    """Add every n-gram of ``items``, n = min_n..max_n, to ``grams``.

    N-grams of a string are strings and n-grams of a token tuple are tuples;
    either way the order of a gram is ``len(gram)``.
    """
    size = len(items)
    for n in range(min_n, max_n + 1):
        grams.update(items[i : i + n] for i in range(size - n + 1))


def usable_cpus() -> int:
    """CPUs this process may run on: the number of chunks a pool scores."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _summed_stats(
    pool: Executor | None,
    stats: Callable[..., list[int]],
    hypotheses: "list[str] | tuple[str, ...]",
    references: "list[str] | tuple[str, ...]",
    *args,
) -> list[int]:
    """`stats(hypotheses, references, *args)`, over chunks when given a pool.

    With a pool, the line pairs are split into contiguous chunks, one per
    CPU, the pool's workers score every chunk, and the integer statistics
    are added up in chunk order. The calling thread only waits: scoring a
    chunk here would hold the interpreter lock that the executor's threads
    need to hand the workers theirs, and that the process's other threads
    need to go on with their own work. Integer sums do not depend on the
    chunking, so neither do the scores.
    """
    if pool is None:
        return stats(hypotheses, references, *args)
    size, chunks = len(hypotheses), usable_cpus()
    bounds = [size * i // chunks for i in range(chunks + 1)]
    futures = [
        pool.submit(stats, hypotheses[start:end], references[start:end], *args)
        for start, end in zip(bounds, bounds[1:])
        if start < end
    ]
    totals = futures[0].result()
    for future in futures[1:]:
        totals = [a + b for a, b in zip(totals, future.result())]
    return totals


def _chrf_stats(
    hypotheses: "list[str] | tuple[str, ...]",
    references: "list[str] | tuple[str, ...]",
    config: ChrfConfig,
) -> list[int]:
    """Integer chrF++ statistics of line pairs: per order, char 1..char_max
    then word 1..word_max, the hypothesis total, the reference total and
    the matches, one flat list.

    A char n-gram that the hypothesis holds ``count`` times matches
    ``min(count, r)`` times, ``r`` being its occurrences in the reference,
    overlapping ones included. Only the hypothesis grams are counted:
    ``gram in ref_chars`` settles a gram held once, and for one held more
    often ``ref_chars.find(gram, at + 1)`` counts occurrences until there
    are ``count`` or no more. Each lookup scans the reference line, which
    is cheaper than counting its grams for sentence-length lines only (see
    the module docstring).
    """
    char_max, word_max = config.char_ngram_max, config.word_ngram_max
    stats = [[0, 0, 0] for _ in range(char_max + word_max)]
    for hyp_raw, ref_raw in zip(hypotheses, references):
        hyp_text, ref_text = normalize_text(hyp_raw), normalize_text(ref_raw)
        hyp_chars, ref_chars = "".join(hyp_text.split()), "".join(ref_text.split())
        hyp_words = tuple(_punct_split_tokens(hyp_text))
        ref_words = tuple(_punct_split_tokens(ref_text))
        for n in range(1, char_max + 1):
            entry = stats[n - 1]
            entry[0] += max(len(hyp_chars) - n + 1, 0)
            entry[1] += max(len(ref_chars) - n + 1, 0)
        for n in range(1, word_max + 1):
            entry = stats[char_max + n - 1]
            entry[0] += max(len(hyp_words) - n + 1, 0)
            entry[1] += max(len(ref_words) - n + 1, 0)
        char_grams = Counter(hyp_chars)  # the char unigrams
        _count_ngrams(char_grams, hyp_chars, 2, char_max)
        for gram, count in char_grams.items():
            if gram not in ref_chars:
                continue
            if count > 1:  # clip at the reference's overlapping occurrences
                found, at = 1, ref_chars.find(gram)
                while found < count:
                    at = ref_chars.find(gram, at + 1)
                    if at < 0:
                        break
                    found += 1
                count = found
            stats[len(gram) - 1][2] += count
        hyp_grams: Counter = Counter()
        ref_grams: Counter = Counter()
        _count_ngrams(hyp_grams, hyp_words, 1, word_max)
        _count_ngrams(ref_grams, ref_words, 1, word_max)
        for gram, count in hyp_grams.items():
            ref_count = ref_grams.get(gram)
            if ref_count:
                stats[char_max + len(gram) - 1][2] += min(count, ref_count)
    return [value for entry in stats for value in entry]


def chrf_pp(
    hypotheses: "list[str] | tuple[str, ...]",
    references: "list[str] | tuple[str, ...]",
    config: ChrfConfig = ChrfConfig(),
    *,
    pool: Executor | None = None,
) -> float:
    """Corpus chrF++ in [0, 100]; a process pool shares the counting."""
    if len(hypotheses) != len(references):
        raise DataError(
            f"chrF++: {len(hypotheses)} hypotheses vs {len(references)} references"
        )
    if not hypotheses:
        raise DataError("chrF++: empty corpus")
    stats = _summed_stats(pool, _chrf_stats, hypotheses, references, config)

    avg_precision = 0.0
    avg_recall = 0.0
    effective_orders = 0
    for hyp_total, ref_total, matched in zip(stats[0::3], stats[1::3], stats[2::3]):
        if hyp_total > 0 and ref_total > 0:
            avg_precision += matched / hyp_total
            avg_recall += matched / ref_total
            effective_orders += 1
    if effective_orders == 0:
        return 0.0
    avg_precision /= effective_orders
    avg_recall /= effective_orders
    if avg_precision + avg_recall == 0.0:
        return 0.0
    beta_sq = config.beta * config.beta
    f_score = (
        (1.0 + beta_sq)
        * avg_precision
        * avg_recall
        / (beta_sq * avg_precision + avg_recall)
    )
    return 100.0 * f_score


def whitespace_tokenizer(text: str) -> list[str]:
    return normalize_text(text).split()


def char_tokenizer(text: str) -> list[str]:
    return list("".join(normalize_text(text).split()))


class SubwordTokenizer:
    """Greedy longest-match segmentation over a one-token-per-line vocabulary.

    Characters not covered by any vocabulary entry become single-character
    tokens, so segmentation never fails.
    """

    def __init__(self, vocab_path: str | Path):
        pieces = [
            line.strip()
            for line in Path(vocab_path).read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        if not pieces:
            raise DataError(f"empty subword vocabulary: {vocab_path}")
        self.pieces = set(pieces)
        self.max_piece = max(len(p) for p in pieces)

    def __call__(self, text: str) -> list[str]:
        out: list[str] = []
        for word in normalize_text(text).split():
            i = 0
            while i < len(word):
                for length in range(min(self.max_piece, len(word) - i), 0, -1):
                    piece = word[i : i + length]
                    if length == 1 or piece in self.pieces:
                        out.append(piece)
                        i += length
                        break
        return out


def subword_vocab(spec: str) -> str | None:
    """The vocabulary file that a `subword:<file>` tokenizer spec names."""
    return spec.split(":", 1)[1] if spec.startswith("subword:") else None


def resolve_tokenizer(spec: str) -> Tokenizer:
    if spec == "whitespace":
        return whitespace_tokenizer
    if spec == "char":
        return char_tokenizer
    vocab = subword_vocab(spec)
    if vocab is not None:
        return SubwordTokenizer(vocab)
    raise ConfigError(f"unknown BLEU tokenizer {spec!r}")


def _bleu_stats(
    hypotheses: "list[str] | tuple[str, ...]",
    references: "list[str] | tuple[str, ...]",
    tokenizer: Tokenizer,
    max_n: int,
) -> list[int]:
    """Integer BLEU statistics of line pairs: the clipped matches of orders
    1..max_n, the hypothesis n-grams of orders 1..max_n, then the
    hypothesis and reference lengths in tokens, one flat list."""
    correct = [0] * max_n
    total = [0] * max_n
    hyp_len = 0
    ref_len = 0
    for hyp_raw, ref_raw in zip(hypotheses, references):
        hyp_toks = tuple(tokenizer(hyp_raw))
        ref_toks = tuple(tokenizer(ref_raw))
        hyp_len += len(hyp_toks)
        ref_len += len(ref_toks)
        hyp_grams: Counter = Counter()
        ref_grams: Counter = Counter()
        _count_ngrams(hyp_grams, hyp_toks, 1, max_n)
        _count_ngrams(ref_grams, ref_toks, 1, max_n)
        for n in range(1, max_n + 1):
            total[n - 1] += max(len(hyp_toks) - n + 1, 0)
        for gram, count in hyp_grams.items():
            ref_count = ref_grams.get(gram)
            if ref_count:
                correct[len(gram) - 1] += min(count, ref_count)
    return [*correct, *total, hyp_len, ref_len]


def bleu(
    hypotheses: "list[str] | tuple[str, ...]",
    references: "list[str] | tuple[str, ...]",
    config: BleuConfig = BleuConfig(),
    *,
    pool: Executor | None = None,
) -> float:
    """Corpus BLEU in [0, 100] under the configured tokenization; a process
    pool shares the counting."""
    if len(hypotheses) != len(references):
        raise DataError(
            f"BLEU: {len(hypotheses)} hypotheses vs {len(references)} references"
        )
    if not hypotheses:
        raise DataError("BLEU: empty corpus")
    tokenizer = resolve_tokenizer(config.tokenizer)

    max_n = config.max_ngram
    stats = _summed_stats(pool, _bleu_stats, hypotheses, references, tokenizer, max_n)
    correct, total = stats[:max_n], stats[max_n : 2 * max_n]
    hyp_len, ref_len = stats[2 * max_n :]

    log_precisions: list[float] = []
    exp_smooth = 1.0
    for n in range(1, max_n + 1):
        if total[n - 1] == 0:
            continue  # no n-grams of this size exist: skip the order
        if correct[n - 1] > 0:
            precision = correct[n - 1] / total[n - 1]
        elif config.smoothing == "epsilon":
            precision = config.epsilon / total[n - 1]
        elif config.smoothing == "exp":
            exp_smooth *= 2.0
            precision = 1.0 / (exp_smooth * total[n - 1])
        else:
            return 0.0  # unsmoothed zero precision zeroes the geometric mean
        log_precisions.append(math.log(precision))
    if not log_precisions:
        return 0.0

    if hyp_len == 0:
        return 0.0
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * math.exp(sum(log_precisions) / len(log_precisions))


def evaluate_corpus(
    hyp_path: str | Path,
    ref_path: str | Path,
    source_code: str,
    target_code: str,
    system: str = "system",
    chrf_config: ChrfConfig = ChrfConfig(),
    bleu_config: BleuConfig = BleuConfig(),
    *,
    pool: Executor | None = None,
) -> EvalReport:
    """Score a hypothesis file against a line-aligned reference file.

    Lines end at LF only, as `write_lines` wrote them: a hypothesis may
    hold any other line-break character.
    """
    hyps = read_written_lines(hyp_path)
    refs = read_written_lines(ref_path)
    if len(hyps) != len(refs):
        raise DataError(
            f"alignment mismatch: {hyp_path} has {len(hyps)} lines, "
            f"{ref_path} has {len(refs)}"
        )
    return EvalReport(
        source_code=source_code,
        target_code=target_code,
        system=system,
        chrf_pp=chrf_pp(hyps, refs, chrf_config, pool=pool),
        bleu=bleu(hyps, refs, bleu_config, pool=pool),
        sentence_count=len(hyps),
    )
