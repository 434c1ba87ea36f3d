from __future__ import annotations

import json

import pytest

from icl_miner.backends import MockLLMBackend
from icl_miner.corpus import LanguageSpec
from icl_miner.errors import BackendError, DataError
from icl_miner.prompts import Translator, word_translation_prompt
from icl_miner.tokens import segment
from icl_miner.w2w import build_w2w, read_w2w, write_w2w
from icl_miner.word_mining import WordPair

from conftest import behind_cache

AVA = LanguageSpec(code="ava_Latn", display_name="Avalian")
ZOR = LanguageSpec(code="zor_Latn", display_name="Zorvan")


def ava_to_zor(llm, tmp_path):
    return Translator(behind_cache(llm, tmp_path), AVA, ZOR)

SHOTS = [WordPair("luma", "lumak"), WordPair("tovi", "tovik")]


def lexicon_backend(tmp_path, lexicon: dict[str, str]):
    """Fixture mapping each word's k-shot prompt to its translation."""
    shot_pairs = [p.as_shot() for p in SHOTS]
    path = tmp_path / "w2w.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for word, translation in lexicon.items():
            prompt = word_translation_prompt(
                word, AVA.display_name, ZOR.display_name, shot_pairs
            )
            fh.write(
                json.dumps(
                    {
                        "prompt": prompt,
                        "completions": [{"text": translation, "score": -1.0}],
                    },
                    ensure_ascii=False,
                )
            )
            fh.write("\n")
    return MockLLMBackend(path)


class TestTranslateWordIcl:
    def test_fixture_trace(self, tmp_path):
        llm = lexicon_backend(tmp_path, {"gato": "cat"})
        corpus = build_w2w(["gato"], SHOTS, ava_to_zor(llm, tmp_path))
        assert corpus.pairs == (("gato", "cat"),)

    def test_unfixtured_word_copies_through(self, tmp_path):
        llm = lexicon_backend(tmp_path, {"gato": "cat"})
        # one failure in two is tolerated
        corpus = build_w2w(["gato xyzzy"], SHOTS, ava_to_zor(llm, tmp_path))
        assert corpus.pairs == (("gato xyzzy", "cat xyzzy"),)

    def test_memoization_single_backend_call(self, tmp_path, llm_calls):
        llm = lexicon_backend(tmp_path, {"gato": "cat"})
        corpus = build_w2w(["gato", "gato gato"], SHOTS, ava_to_zor(llm, tmp_path))
        assert corpus.pairs[1] == ("gato gato", "cat cat")
        assert len(llm_calls) == 1


class TestBuildW2w:
    def test_punctuation_copied_through(self, tmp_path):
        llm = lexicon_backend(tmp_path, {"gato": "cat", "negro": "black"})
        corpus = build_w2w(["gato negro."], SHOTS, ava_to_zor(llm, tmp_path))
        assert corpus.pairs[0] == ("gato negro.", "cat black .")

    def test_all_punctuation_sentence_unchanged(self, tmp_path):
        llm = lexicon_backend(tmp_path, {})
        corpus = build_w2w(["…!"], SHOTS, ava_to_zor(llm, tmp_path))
        assert corpus.pairs[0][1] == "…!"

    def test_digits_copied_through(self, tmp_path):
        llm = lexicon_backend(tmp_path, {"km": "km2"})
        corpus = build_w2w(["70 km"], SHOTS, ava_to_zor(llm, tmp_path))
        assert corpus.pairs[0][1] == "70 km2"

    def test_output_aligns_with_input(self, tmp_path):
        llm = lexicon_backend(tmp_path, {"a": "x", "b": "y"})
        sentences = ["a", "b", "a b"]
        corpus = build_w2w(sentences, SHOTS, ava_to_zor(llm, tmp_path))
        assert len(corpus) == len(sentences)
        assert [src for src, _ in corpus.pairs] == sentences

    def test_token_counts_match_one_to_one(self, tmp_path):
        llm = lexicon_backend(tmp_path, {"gato": "cat", "negro": "black"})
        sentences = ["gato negro.", "gato, gato!", "…!"]
        corpus = build_w2w(sentences, SHOTS, ava_to_zor(llm, tmp_path))
        for source, rendering in corpus.pairs:
            assert len(segment(rendering)) == len(segment(source))

    def test_identity_lexicon_reproduces_tokens(self, tmp_path):
        words = ["luma", "tovi", "sken"]
        llm = lexicon_backend(tmp_path, {w: w for w in words})
        corpus = build_w2w(
            ["luma tovi sken", "sken luma"], SHOTS, ava_to_zor(llm, tmp_path)
        )
        for source, rendering in corpus.pairs:
            assert [t for t, _ in segment(rendering)] == [
                t for t, _ in segment(source)
            ]

    def test_stats_count_copies_and_translations(self, tmp_path):
        llm = lexicon_backend(tmp_path, {"gato": "cat"})
        corpus = build_w2w(["gato xyzzy."], SHOTS, ava_to_zor(llm, tmp_path))
        assert corpus.copied_through == (2,)  # xyzzy (failed) + period
        assert corpus.copy_through_ratio == 1 / 2  # words only: xyzzy of 2

    def test_failed_word_memoized_once(self, tmp_path, llm_calls):
        llm = lexicon_backend(tmp_path, {"gato": "cat"})
        build_w2w(["zz zz zz gato"], SHOTS, ava_to_zor(llm, tmp_path))
        assert len(llm_calls) == 2  # one attempt for zz, one for gato

    def test_majority_of_failed_words_aborts(self, tmp_path):
        llm = lexicon_backend(tmp_path, {"gato": "cat"})
        with pytest.raises(BackendError, match="2/3 word translations failed"):
            build_w2w(["gato xyzzy perro .", "perro"], SHOTS, ava_to_zor(llm, tmp_path))
        # a lone word that fails is a majority too
        with pytest.raises(BackendError, match="1/1 word translations failed"):
            build_w2w(["xyzzy"], SHOTS, ava_to_zor(llm, tmp_path))

    def test_empty_sentence_list_rejected(self, tmp_path):
        llm = lexicon_backend(tmp_path, {})
        with pytest.raises(DataError):
            build_w2w([], SHOTS, ava_to_zor(llm, tmp_path))

    def test_no_shots_rejected(self, tmp_path):
        llm = lexicon_backend(tmp_path, {})
        with pytest.raises(DataError):
            build_w2w(["a"], [], ava_to_zor(llm, tmp_path))


class TestW2wIO:
    def test_round_trip(self, tmp_path):
        llm = lexicon_backend(tmp_path, {"gato": "cat"})
        corpus = build_w2w(["gato.", "gato gato"], SHOTS, ava_to_zor(llm, tmp_path))
        path = tmp_path / "out.jsonl"
        write_w2w(path, corpus)
        assert read_w2w(path) == corpus

    def test_round_trip_keeps_copy_through_ratio(self, tmp_path):
        llm = lexicon_backend(tmp_path, {"gato": "cat"})
        corpus = build_w2w(
            ["gato xyzzy.", "gato gato", "12 gato", "!!"], SHOTS, ava_to_zor(llm, tmp_path)
        )
        path = tmp_path / "out.jsonl"
        write_w2w(path, corpus)
        loaded = read_w2w(path)
        assert loaded == corpus
        assert 0.0 < corpus.copy_through_ratio < 1.0
        assert loaded.copy_through_ratio == corpus.copy_through_ratio

    def test_golden_ratio_counts_words_only(self, toy_dir):
        path = next((toy_dir / "golden").glob("run-*")) / "w2w.jsonl"
        corpus = read_w2w(path)
        # the file counts 10 copied tokens of 29, punctuation and digits
        # included; of the 21 words only xilo and vrand were copied
        assert sum(corpus.copied_through) == 10
        assert corpus.copy_through_ratio == 2 / 21
