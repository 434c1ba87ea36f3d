"""Seeded synthetic language pair, corpora and a rule oracle that plays the LLM.

Two invented languages: Avalian (source) and Zorvan (target). A share of
the words (`closeness`) are cognates spelled the same in both languages; the
rest map to unrelated Zorvan words. Cognates are what make the trigram
embedding see a sentence and its translation as similar, so `closeness`
sets where the back-translated pool's similarities fall against tau.

The oracle answers every prompt the pipeline renders:

- word prompts: the right translation first, then a distractor and a
  garbage form; a share of words (`BROKEN`) back-translate wrongly in the
  zero-shot round only, and words outside the vocabulary files get no
  answer, so the w2w renderer copies them through;
- sentence prompts: each query word is translated correctly when it occurs
  in the source side of an in-context example, otherwise with a fixed
  probability (lower without examples). Examples that share words with
  the query therefore score higher, which is what TopK+BM25 selection
  exploits, and so the chrF++ of each policy carries information;
- a word translated wrongly becomes some other word of the output
  language; back-translation (Zorvan to Avalian) errs with probability
  `bt_noise` per word the examples do not cover.

Every random choice is a hash of the seed and the item, so the same seed
gives the same corpora and the same answers in any process.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass

SOURCE_CODE, SOURCE_NAME = "ava_Latn", "Avalian"
TARGET_CODE, TARGET_NAME = "zor_Latn", "Zorvan"

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_PUNCT = (".", ".", ".", "!", "?")

TAIL_FRAC = 0.25  # extra rare words that occur only in sentences
BROKEN = 0.1  # share of words whose zero-shot back-translation is wrong
ZERO_SHOT_SKILL = 0.3  # per-word accuracy with no examples
FEW_SHOT_SKILL = 0.5  # per-word accuracy for words no example covers
MIN_LEN, MAX_LEN = 15, 30  # words per sentence


@dataclass(frozen=True)
class LanguageParams:
    """What the generated corpora and the oracle depend on."""

    vocab_size: int  # words listed in the vocabulary files
    unlabeled: int  # distinct Zorvan sentences to mine the pool from
    test: int  # distinct Avalian test sentences with Zorvan references
    repeats: int  # times each pool and test sentence occurs
    gold_dev: int  # human-style parallel dev pairs for the gold policies
    closeness: float  # share of cognates (same spelling on both sides)
    bt_noise: float  # per-word error rate of back-translation


def _hits(index: int, share: float, phase: float = 0.0) -> bool:
    """True for an evenly spread `share` of consecutive indices."""
    return int((index + 1) * share + phase) > int(index * share + phase)


def unit(*parts: object) -> float:
    """Deterministic value in [0, 1) from the given parts."""
    digest = hashlib.blake2b(
        "\x1f".join(str(p) for p in parts).encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / 2**64


class Language:
    """The lexicon, the corpora and the oracle for one seed."""

    def __init__(self, params: LanguageParams, seed: int):
        self.params = params
        self.seed = seed
        rng = random.Random(f"perfbench-lexicon-{seed}")
        total = params.vocab_size + int(params.vocab_size * TAIL_FRAC)
        taken: set[str] = set()
        self.source_words = [self._fresh_word(rng, taken) for _ in range(total)]
        # cognates at evenly spread frequency ranks, so that every seed has
        # the same frequency-weighted cognate share and pool similarities
        self.to_target = {
            word: word if _hits(rank, params.closeness, 0.5) else self._fresh_word(rng, taken)
            for rank, word in enumerate(self.source_words)
        }
        self.to_source = {t: s for s, t in self.to_target.items()}
        self.listed = set(self.source_words[: params.vocab_size])
        self._next = {
            w: self.source_words[(i + 1) % params.vocab_size]
            for i, w in enumerate(self.source_words[: params.vocab_size])
        }
        # Zipf-like frequencies over the full word list, rank = list order
        self._weights = [1.0 / (rank + 1) for rank in range(total)]

    @staticmethod
    def _fresh_word(rng: random.Random, taken: set[str]) -> str:
        while True:
            word = "".join(
                rng.choice(_CONSONANTS) + rng.choice(_VOWELS)
                for _ in range(rng.randint(2, 3))
            )
            if rng.random() < 0.5:
                word += rng.choice(_CONSONANTS)
            if word not in taken:
                taken.add(word)
                return word

    # -------------------------------------------------------------- corpora

    def _source_sentence(self, rng: random.Random) -> str:
        length = rng.randint(MIN_LEN, MAX_LEN)
        words = rng.choices(self.source_words, weights=self._weights, k=length)
        if rng.random() < 0.15:
            words.insert(rng.randrange(len(words) + 1), str(rng.randint(2, 99)))
        return " ".join(words + [rng.choice(_PUNCT)])

    def to_zorvan(self, sentence: str) -> str:
        return " ".join(self.to_target.get(tok, tok) for tok in sentence.split())

    def corpora(self) -> dict[str, list[str]]:
        """Every input file of one workload, as lists of lines."""
        p = self.params
        rng = random.Random(f"perfbench-corpus-{self.seed}")
        test = [self._source_sentence(rng) for _ in range(p.test)]
        dev = [self._source_sentence(rng) for _ in range(p.gold_dev)]
        unlabeled = [self.to_zorvan(self._source_sentence(rng)) for _ in range(p.unlabeled)]
        listed = self.source_words[: p.vocab_size]
        return {
            "vocab.ava.txt": listed,
            "vocab.zor.txt": [self.to_target[w] for w in listed],
            "mono.zor.txt": unlabeled * p.repeats,
            "test.ava.txt": test * p.repeats,
            "test.zor.txt": [self.to_zorvan(s) for s in test] * p.repeats,
            "dev.ava.txt": dev,
            "dev.zor.txt": [self.to_zorvan(s) for s in dev],
        }

    # --------------------------------------------------------------- oracle

    _WORD_ZERO = re.compile(r'^The (\w+) word "(.+)" in (\w+) is:$')
    _WORD_SHOT = re.compile(r"^Translate the following (\w+) word to (\w+):\n")
    _SENTENCE = re.compile(r"^Translate from the (\w+) language to (\w+) language:\n")

    def answer(self, prompt: str) -> list[tuple[str, float]]:
        """Raw completions (text, sequence score) for one prompt."""
        match = self._WORD_ZERO.match(prompt)
        if match:
            return self._word(match.group(2), match.group(1), zero_shot=True)
        match = self._WORD_SHOT.match(prompt)
        if match:
            word = prompt.rsplit("\n", 2)[-2].split(": ", 1)[1]
            return self._word(word, match.group(1), zero_shot=False)
        match = self._SENTENCE.match(prompt)
        if match:
            return [(" " + self._sentence(prompt, match.group(1)), -1.0)]
        raise ValueError(f"oracle cannot classify prompt: {prompt[:80]!r}")

    def _word(self, word: str, src_name: str, zero_shot: bool) -> list[tuple[str, float]]:
        if src_name == SOURCE_NAME:
            if word not in self.listed:
                return []  # rare words fail, so w2w copies them through
            return [
                (self.to_target[word], -1.0),
                (self.to_target[self._next[word]], -2.0),
                (word + "xx", -3.0),  # never in the vocabulary
            ]
        source = self.to_source.get(word)
        if source is None or source not in self.listed:
            return []
        if zero_shot and unit(self.seed, "broken", source) < BROKEN:
            return [(self._next[source], -1.0)]
        return [(source, -1.0)]

    def _sentence(self, prompt: str, src_name: str) -> str:
        lines = prompt.split("\n")
        prefix = src_name + ": "
        sides = [line[len(prefix):] for line in lines if line.startswith(prefix)]
        query, shots = sides[-1], sides[:-1]
        covered = {tok for shot in shots for tok in shot.split()}
        forward = src_name == SOURCE_NAME
        if forward:
            skill = FEW_SHOT_SKILL if shots else ZERO_SHOT_SKILL
        else:
            skill = 1.0 - self.params.bt_noise
        phase = unit(self.seed, src_name, query)
        uncovered = 0
        out = []
        for i, tok in enumerate(query.split()):
            mapped = (self.to_target if forward else self.to_source).get(tok)
            if mapped is None:  # digits, punctuation, unknown forms
                out.append(tok)
                continue
            if tok in covered:
                right = True
            elif forward:  # an exact share per sentence keeps chrF++ steady
                right = _hits(uncovered, skill, phase)
                uncovered += 1
            else:  # independent errors spread the pool's similarities
                right = unit(self.seed, src_name, query, i) < skill
            if right:
                out.append(mapped)
            else:  # a wrong word of the output language
                wrong = self.source_words[
                    int(unit(self.seed, "wrong", query, i) * self.params.vocab_size)
                ]
                out.append(self.to_target[wrong] if forward else wrong)
        return " ".join(out)

