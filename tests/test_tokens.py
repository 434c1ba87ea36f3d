from __future__ import annotations

import sys
import unicodedata

from hypothesis import given
from hypothesis import strategies as st

from icl_miner.tokens import segment


def oracle_segment(text: str) -> list[tuple[str, bool]]:
    """Character by character: a token is a maximal run of word characters
    (L*, M*, N*) or of other non-space characters."""
    out: list[tuple[str, bool]] = []
    buf: list[str] = []
    buf_is_word = False
    for ch in text:
        if ch.isspace():
            if buf:
                out.append(("".join(buf), buf_is_word))
                buf = []
            continue
        is_word = unicodedata.category(ch)[0] in "LMN"
        if buf and is_word != buf_is_word:
            out.append(("".join(buf), buf_is_word))
            buf = []
        buf.append(ch)
        buf_is_word = is_word
    if buf:
        out.append(("".join(buf), buf_is_word))
    return out


def test_every_alphanumeric_code_point_is_a_word_character():
    # the fast path keeps an alphanumeric word whole; that is only right if
    # each of its code points is a letter or a digit, and str.split() must
    # split exactly at the code points the per-character loop skips
    for code in range(sys.maxunicode + 1):
        ch = chr(code)
        if ch.isalnum():
            assert unicodedata.category(ch)[0] in "LN", f"U+{code:04X}"
        assert (f"a{ch}b".split() == ["a", "b"]) == ch.isspace(), f"U+{code:04X}"


MIXED_TEXT = st.text(
    alphabet=st.sampled_from(
        list("abcXYZ019_-.,'!?()")
        # letters and digits beyond ASCII
        + ["\u00e9", "\u00df", "\u0436", "\u0639", "\u4e2d", "\u0663",
           "\u00bd", "\u216b"]
        # combining marks: Mn, Mc, Me
        + ["\u0301", "\u0903", "\u20dd"]
        # punctuation and symbols
        + ["\u00ab", "\u00bb", "\u2014", "\u2026", "\u20ac", "+", "\U0001f600"]
        # ASCII and Unicode white space, and \x1c, which isspace() counts
        + [" ", "\t", "\n", "\u00a0", "\u2028", "\u3000", "\x85", "\x1c"]
    ),
    max_size=40,
)


@given(MIXED_TEXT)
def test_segment_equals_per_character_oracle(text):
    assert segment(text) == oracle_segment(text)


def test_segment_examples():
    assert segment("don't stop\u2014now, x2_y\u00a0e\u0301t \u00e9") == [
        ("don", True), ("'", False), ("t", True), ("stop", True),
        ("\u2014", False), ("now", True), (",", False), ("x2", True),
        ("_", False), ("y", True), ("e\u0301t", True), ("\u00e9", True),
    ]
