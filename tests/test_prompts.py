"""The `Translator`: one request per distinct sentence and shots, failures
counted per line, and a reverse that swaps only the languages."""

from __future__ import annotations

import json
import logging
from dataclasses import replace

import pytest

from icl_miner import prompts
from icl_miner.backends import CachingLLM, DecodingMode, MockLLMBackend
from icl_miner.corpus import LanguageSpec
from icl_miner.errors import BackendError
from icl_miner.prompts import PromptTemplates, Translator, sentence_translation_prompt

from conftest import behind_cache

AVA = LanguageSpec(code="ava_Latn", display_name="Avalian")
ZOR = LanguageSpec(code="zor_Latn", display_name="Zorvan")
SHOTS = [("luma", "lumak")]


def sentence_backend(tmp_path, answers: dict[str, str]) -> CachingLLM:
    """A cached mock LLM answering each Avalian sentence, under SHOTS, with
    its text."""
    path = tmp_path / "sentences.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for sentence, text in answers.items():
            prompt = sentence_translation_prompt(sentence, "Avalian", "Zorvan", SHOTS)
            record = {"prompt": prompt, "completions": [{"text": text, "score": -1.0}]}
            fh.write(json.dumps(record) + "\n")
    return behind_cache(MockLLMBackend(path), tmp_path)


def test_repeated_lines_render_one_prompt(tmp_path, monkeypatch):
    rendered = []

    def counting(*args, **kwargs):
        rendered.append(args[0])
        return sentence_translation_prompt(*args, **kwargs)

    monkeypatch.setattr(prompts, "sentence_translation_prompt", counting)
    translator = Translator(sentence_backend(tmp_path, {"a": "x", "b": "y"}), AVA, ZOR)
    assert translator.sentences(["a", "a", "b"], [SHOTS] * 3) == ["x", "x", "y"]
    assert rendered == ["a", "b"]


def test_failed_line_is_empty_and_counted_per_line(tmp_path, caplog):
    translator = Translator(sentence_backend(tmp_path, {"a": "x"}), AVA, ZOR)
    with caplog.at_level(logging.WARNING, logger="icl_miner.backends.base"):
        assert translator.sentences(["a", "a", "b"], [SHOTS] * 3) == ["x", "x", ""]
    summaries = [r.getMessage() for r in caplog.records if "/3 " in r.getMessage()]
    assert len(summaries) == 1
    assert summaries[0].startswith("1/3 translations failed")


def test_failures_counted_with_repeats_abort(tmp_path):
    translator = Translator(sentence_backend(tmp_path, {"b": "y"}), AVA, ZOR)
    with pytest.raises(BackendError, match="2/3 translations failed"):
        translator.sentences(["a", "a", "b"], [SHOTS] * 3)


def test_reverse_swaps_only_the_languages(tmp_path):
    translator = Translator(
        sentence_backend(tmp_path, {}), AVA, ZOR, PromptTemplates(sentence_header="h"),
        max_word_tokens=3, max_sentence_tokens=30, decoding=DecodingMode.beam(2),
    )
    reverse = translator.reverse()
    assert (reverse.src, reverse.trg) == (ZOR, AVA)
    assert reverse == replace(translator, src=ZOR, trg=AVA)
    assert reverse.reverse() == translator
