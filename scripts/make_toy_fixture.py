#!/usr/bin/env python3
"""Regenerate the bundled toy fixture and its golden outputs.

Two invented languages: Avalian (ava_Latn) and Zorvan (zor_Latn). Zorvan is
word-regular Avalian: every word gains an "ak" suffix, punctuation and
digits are unchanged. A rule-driven backend plays the LLM while a real
pipeline run is recorded; every prompt/response pair it sees becomes the
mock fixture, and a second, fixture-driven run writes the golden artifacts.

Run from the repository root:

    python scripts/make_toy_fixture.py
"""

from __future__ import annotations

import json
import re
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from icl_miner.backends import ScoredCompletion
from icl_miner.backends.base import finalize_completions
from icl_miner.config import load_config
from icl_miner.pipeline import Pipeline
from icl_miner.tokens import segment

TOY_DIR = ROOT / "fixtures" / "toy"
GOLDEN_DIR = TOY_DIR / "golden"

AVALIAN_VOCAB = [
    "luma", "tovi", "sken", "bryn", "falo", "dima", "rook", "sella",
    "pinto", "verda", "mola", "quen", "tarn", "silva", "brint", "osel",
    "noki", "ardo", "fen", "gilo", "harpa", "ilex", "jona", "kiva",
    "lorn", "mirta", "napo", "oquil", "prem", "runa",
]

# words that appear in test sentences but not in the vocabulary
OOV_WORDS = {"xilo", "vrand"}

# this word's backward translation is deliberately wrong, so its pair
# never survives the consistency filter
BROKEN_BACKWARD_BASE = "quen"

UNLABELED_BASE = [
    "luma tovi sken .",
    "bryn falo dima tovi .",
    "rook sella pinto luma !",
    "verda mola tarn sken .",
    "silva brint osel noki ?",
    "ardo fen gilo luma .",
    "harpa ilex jona tovi .",
    "kiva lorn mirta falo .",
    "napo oquil prem runa .",
    "luma sken bryn dima .",
    "tovi rook verda silva .",
    "fen harpa kiva napo !",
]

TEST_SOURCES = [
    "luma tovi sken .",
    "bryn xilo falo 42 .",
    "rook sella luma tovi !",
    "verda tarn vrand sken ?",
    "silva osel ardo fen .",
    "gilo luma 7 tovi .",
]

GOLD_DEV_SOURCES = [
    "luma bryn rook .",
    "tovi falo sella !",
    "sken dima pinto .",
    "verda silva luma ?",
    "mola tarn brint .",
    "osel noki ardo .",
    "fen gilo harpa .",
    "ilex jona kiva !",
    "lorn mirta napo .",
    "oquil prem runa .",
]


def zorvanize_word(word: str) -> str:
    return word + "ak"


def avalianize_word(word: str) -> str:
    return word[:-2] if word.endswith("ak") else word


def _is_digits(token: str) -> bool:
    return token.isdigit()


def zorvanize(text: str) -> str:
    out = []
    for token, is_word in segment(text):
        if is_word and not _is_digits(token):
            out.append(zorvanize_word(token))
        else:
            out.append(token)
    return " ".join(out)


def avalianize(text: str) -> str:
    out = []
    for token, is_word in segment(text):
        if is_word and not _is_digits(token):
            out.append(avalianize_word(token))
        else:
            out.append(token)
    return " ".join(out)


def degraded_zorvanize(text: str) -> str:
    """Zero-shot output: only every other word gets translated."""
    out = []
    word_index = 0
    for token, is_word in segment(text):
        if is_word and not _is_digits(token):
            out.append(zorvanize_word(token) if word_index % 2 == 0 else token)
            word_index += 1
        else:
            out.append(token)
    return " ".join(out)


class RuleBackend:
    """Plays the multilingual LLM via the toy-language rules and records
    every request it answers."""

    backend_id = "mock"

    def __init__(self, model_id: str = "toy"):
        self.model_id = model_id
        self.records: dict[str, list[ScoredCompletion]] = {}
        vocab = AVALIAN_VOCAB
        self._next_word = {
            w: vocab[(i + 1) % len(vocab)] for i, w in enumerate(vocab)
        }

    # -- prompt classification -------------------------------------------
    _WORD_FWD = re.compile(r'The Avalian word "(.+)" in Zorvan is:$')
    _WORD_BWD = re.compile(r'The Zorvan word "(.+)" in Avalian is:$')

    def _answer(self, prompt: str) -> list[ScoredCompletion]:
        match = self._WORD_FWD.search(prompt)
        if match:
            return self._forward_word(match.group(1))
        match = self._WORD_BWD.search(prompt)
        if match:
            return self._backward_word(match.group(1))
        if prompt.startswith("Translate the following Avalian word to Zorvan:"):
            word = re.search(r"Avalian: (\S+)\nZorvan:$", prompt).group(1)
            return self._forward_word(word)
        if prompt.startswith("Translate the following Zorvan word to Avalian:"):
            word = re.search(r"Zorvan: (\S+)\nAvalian:$", prompt).group(1)
            return self._backward_word(word)
        if prompt.startswith("Translate from the Zorvan language to Avalian language:"):
            query = re.findall(r"Zorvan: (.+)\n", prompt)[-1]
            return [ScoredCompletion(" " + avalianize(query), -1.0)]
        if prompt.startswith("Translate from the Avalian language to Zorvan language:"):
            query = re.findall(r"Avalian: (.+)\n", prompt)[-1]
            zero_shot = len(re.findall(r"^Avalian: ", prompt, re.M)) == 1
            rule = degraded_zorvanize if zero_shot else zorvanize
            return [ScoredCompletion(" " + rule(query), -1.0)]
        raise AssertionError(f"rule backend cannot classify prompt: {prompt!r}")

    def _forward_word(self, word: str) -> list[ScoredCompletion]:
        if word not in self._next_word:
            return []  # out-of-vocabulary words fail, forcing copy-through
        distractor = zorvanize_word(self._next_word[word])
        return [
            ScoredCompletion(zorvanize_word(word), -1.0),
            ScoredCompletion(distractor, -2.0),
            ScoredCompletion(word + "xx", -3.0),  # never lands in the vocab
        ]

    def _backward_word(self, word: str) -> list[ScoredCompletion]:
        base = avalianize_word(word)
        if base == BROKEN_BACKWARD_BASE:
            return [ScoredCompletion("luma", -1.0)]  # wrong on purpose
        return [ScoredCompletion(base, -1.0)]

    def generate(self, request):
        raw = self._answer(request.prompt)
        self.records[request.prompt] = raw
        return finalize_completions(raw, request)


def write_data_files() -> None:
    TOY_DIR.mkdir(parents=True, exist_ok=True)

    def write(name: str, lines: list[str]) -> None:
        (TOY_DIR / name).write_text("\n".join(lines) + "\n", encoding="utf-8")

    write("vocab.ava.txt", AVALIAN_VOCAB)
    write("vocab.zor.txt", [zorvanize_word(w) for w in AVALIAN_VOCAB])
    write("mono.zor.txt", [zorvanize(s) for s in UNLABELED_BASE])
    write("test.ava.txt", TEST_SOURCES)
    write("test.zor.txt", [zorvanize(s) for s in TEST_SOURCES])
    write("dev.ava.txt", GOLD_DEV_SOURCES)
    write("dev.zor.txt", [zorvanize(s) for s in GOLD_DEV_SOURCES])

    config = """\
[languages]
source = ava_Latn
target = zor_Latn
source_name = Avalian
target_name = Zorvan

[paths]
source_vocab = vocab.ava.txt
target_vocab = vocab.zor.txt
unlabeled = mono.zor.txt
test_source = test.ava.txt
test_target = test.zor.txt
gold_dev_source = dev.ava.txt
gold_dev_target = dev.zor.txt
output_dir = out

[backend]
kind = mock
model = toy
llm_fixture = llm_fixture.jsonl
embedding = trigram
cache_dir = .toy-cache

[mining]
seed = 0

[run]
policies = zero_shot,uw2w,random,topk,topk_bm25,gold_kshot,gold_bm25
"""
    (TOY_DIR / "toy.ini").write_text(config, encoding="utf-8")


def record_fixture() -> None:
    fixture_path = TOY_DIR / "llm_fixture.jsonl"
    fixture_path.write_text("", encoding="utf-8")  # placeholder for validation

    with tempfile.TemporaryDirectory() as scratch:
        config = load_config(
            TOY_DIR / "toy.ini",
            {"output_dir": f"{scratch}/out", "cache_dir": f"{scratch}/cache"},
        )
        pipeline = Pipeline(config)
        rule_backend = RuleBackend(model_id=config.model or "toy")
        pipeline.llm.backend = rule_backend
        pipeline.run_all()

    with fixture_path.open("w", encoding="utf-8", newline="\n") as fh:
        for prompt in sorted(rule_backend.records):
            completions = rule_backend.records[prompt]
            fh.write(
                json.dumps(
                    {
                        "prompt": prompt,
                        "completions": [
                            {"text": c.text, "score": c.sequence_score}
                            for c in completions
                        ],
                    },
                    ensure_ascii=False,
                    sort_keys=True,
                )
            )
            fh.write("\n")
    print(f"fixture: {fixture_path} ({len(rule_backend.records)} prompts)")


def write_goldens() -> None:
    if GOLDEN_DIR.exists():
        shutil.rmtree(GOLDEN_DIR)
    with tempfile.TemporaryDirectory() as scratch:
        config = load_config(
            TOY_DIR / "toy.ini",
            {"output_dir": str(GOLDEN_DIR), "cache_dir": f"{scratch}/cache"},
        )
        pipeline = Pipeline(config)
        reports = pipeline.run_all()
    for report in reports:
        print(report.row())
    lock = next(GOLDEN_DIR.glob("run-*/.lock"), None)
    if lock is not None:
        lock.unlink()
    print(f"goldens: {GOLDEN_DIR}")


if __name__ == "__main__":
    write_data_files()
    record_fixture()
    write_goldens()
