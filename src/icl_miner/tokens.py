"""Unicode-aware word segmentation shared by BM25 and word-by-word translation.

A word token is a maximal run of letters, combining marks, or digits
(Unicode categories L*, M*, N*); everything else that is not whitespace
forms non-word tokens.
"""

from __future__ import annotations

import unicodedata


def _is_word_char(ch: str) -> bool:
    return unicodedata.category(ch)[0] in "LMN"


def segment(text: str) -> list[tuple[str, bool]]:
    """Split text into (token, is_word) runs; whitespace is discarded."""
    out: list[tuple[str, bool]] = []
    # `str.split()` splits exactly where `isspace()` holds, and every
    # alphanumeric code point is a letter or a digit (L*, N*), so an
    # alphanumeric word is one word token
    for word in text.split():
        if word.isalnum():
            out.append((word, True))
            continue
        buf: list[str] = []
        buf_is_word = False
        for ch in word:
            is_word = _is_word_char(ch)
            if buf and is_word != buf_is_word:
                out.append(("".join(buf), buf_is_word))
                buf = []
            buf.append(ch)
            buf_is_word = is_word
        out.append(("".join(buf), buf_is_word))
    return out
