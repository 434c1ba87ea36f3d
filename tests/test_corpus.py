from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from icl_miner.corpus import (
    LanguageSpec,
    load_monolingual,
    load_parallel,
    load_vocabulary,
    normalize_token,
    read_written_lines,
    write_lines,
)
from icl_miner.errors import DataError


class TestLanguageSpec:
    def test_valid_code(self):
        lang = LanguageSpec(code="eng_Latn", display_name="English")
        assert lang.code == "eng_Latn"

    @pytest.mark.parametrize("code", ["", "eng", "eng_Latn_x", "en gLatn"])
    def test_bad_code_rejected(self, code):
        with pytest.raises(DataError):
            LanguageSpec(code=code, display_name="x")

    def test_from_code_uses_builtin_table(self):
        assert LanguageSpec.from_code("fra_Latn").display_name == "French"

    def test_from_code_override_wins(self):
        assert LanguageSpec.from_code("fra_Latn", "Français").display_name == "Français"

    def test_unknown_code_falls_back_to_language_part(self):
        assert LanguageSpec.from_code("xzy_Latn").display_name == "xzy"


class TestLoadVocabulary:
    def test_dedup_preserves_order(self, write_file, src_lang):
        path = write_file("v.txt", ["cat", "dog", "cat", "bird"])
        vocab = load_vocabulary(path, src_lang, max_size=10)
        assert list(vocab.words) == ["cat", "dog", "bird"]

    def test_truncates_to_max_size(self, write_file, src_lang):
        path = write_file("v.txt", [f"w{i}" for i in range(200)])
        vocab = load_vocabulary(path, src_lang, max_size=50)
        assert len(vocab) == 50

    def test_empty_file_is_an_error(self, tmp_path, src_lang):
        path = tmp_path / "v.txt"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataError, match="empty vocabulary"):
            load_vocabulary(path, src_lang, max_size=10)

    def test_multiword_lines_skipped_not_fatal(self, write_file, src_lang):
        path = write_file("v.txt", ["cat", "two words", "dog"])
        vocab = load_vocabulary(path, src_lang, max_size=10)
        assert list(vocab.words) == ["cat", "dog"]

    def test_membership_is_normalized(self, write_file, src_lang):
        path = write_file("v.txt", ["Cat"])
        vocab = load_vocabulary(path, src_lang, max_size=10)
        assert "CAT" in vocab
        assert "cat" in vocab
        assert "dog" not in vocab

    def test_rank_follows_file_order(self, write_file, src_lang):
        path = write_file("v.txt", ["alpha", "beta", "gamma"])
        vocab = load_vocabulary(path, src_lang, max_size=10)
        assert vocab.words.index("beta") == 1

    def test_truncation_idempotence(self, write_file, src_lang):
        # loading with a cap equals the capped prefix of a full load
        path = write_file("v.txt", [f"w{i}" for i in range(30)])
        full = load_vocabulary(path, src_lang, max_size=30)
        for m in range(1, 31):
            assert load_vocabulary(path, src_lang, max_size=m).words == full.words[:m]


class TestLoadMonolingual:
    def test_blank_lines_dropped(self, write_file):
        path = write_file("m.txt", ["a", "", "b"])
        corpus = load_monolingual(path)
        assert list(corpus) == ["a", "b"]

    def test_order_preserved(self, write_file):
        lines = [f"sentence {i}" for i in range(97)]
        corpus = load_monolingual(write_file("m.txt", lines))
        assert list(corpus) == lines

    def test_all_blank_is_an_error(self, write_file):
        path = write_file("m.txt", ["", "  ", ""])
        with pytest.raises(DataError):
            load_monolingual(path)

    def test_crlf_accepted(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_bytes(b"one\r\ntwo\r\n")
        corpus = load_monolingual(path)
        assert list(corpus) == ["one", "two"]


class TestLoadParallel:
    def test_pairs_align_by_line(self, write_file):
        src = write_file("s.txt", [f"src {i}" for i in range(5)])
        tgt = write_file("t.txt", [f"tgt {i}" for i in range(5)])
        corpus = load_parallel(src, tgt)
        assert corpus[3] == ("src 3", "tgt 3")

    def test_length_mismatch_fatal(self, write_file):
        src = write_file("s.txt", ["a", "b", "c"])
        tgt = write_file("t.txt", ["x", "y", "z", "w"])
        with pytest.raises(DataError, match="alignment mismatch"):
            load_parallel(src, tgt)

    def test_blank_side_drops_pair(self, write_file):
        src = write_file("s.txt", ["a", "b", "c"])
        tgt = write_file("t.txt", ["x", "", "z"])
        corpus = load_parallel(src, tgt)
        assert corpus == (("a", "x"), ("c", "z"))


class TestRoundTrip:
    def test_monolingual_round_trip(self, tmp_path, write_file):
        path = write_file("m.txt", ["one", "two", "three"])
        corpus = load_monolingual(path)
        out = tmp_path / "out.txt"
        write_lines(out, corpus)
        assert load_monolingual(out) == corpus

    @given(
        st.lists(
            st.text(
                alphabet=st.characters(
                    whitelist_categories=("Lu", "Ll", "Nd"), max_codepoint=0x2FF
                ),
                min_size=1,
                max_size=20,
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_written_lines_reload_identically(self, sentences):
        import tempfile

        with tempfile.TemporaryDirectory() as d:
            path = f"{d}/round.txt"
            write_lines(path, sentences)
            corpus = load_monolingual(path)
            assert list(corpus) == sentences
            write_lines(path, corpus)
            assert load_monolingual(path) == corpus


def test_written_lines_split_at_lf_only(tmp_path):
    lines = [
        "a\rb", "c\r", "d\x0be\x0cf", "g\x1ch\x1di\x1ej", "k\x85l\u2028m\u2029", "", "n",
    ]
    path = tmp_path / "written.txt"
    write_lines(path, lines)
    assert read_written_lines(path) == lines
    write_lines(path, ["x", ""])
    assert read_written_lines(path) == ["x", ""]
    write_lines(path, [])
    assert read_written_lines(path) == []


def test_normalize_token_nfc_and_casefold():
    # decomposed e + combining acute composes to é; case folds too
    assert normalize_token("Café") == "café"
