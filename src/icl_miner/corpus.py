"""Languages, vocabularies, monolingual corpora, and line-aligned parallel sets.

The loaders return immutable values, safe to share across workers: a
`Vocabulary`, a tuple of sentences, or a tuple of (source, target) pairs.
Text files are UTF-8, one item per line; LF and CRLF are both accepted on
read, output is always written with LF. Files the program wrote itself are
read back split at LF only (`read_written_lines`), so an item keeps any
other line-break character it holds.
"""

from __future__ import annotations

import json
import logging
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .errors import DataError
from .langnames import display_name_for

log = logging.getLogger(__name__)


def normalize_token(token: str) -> str:
    """Canonical form used for vocabulary membership: Unicode NFC + casefold.

    LLM completions vary in case; scripts without case are unaffected.
    """
    return unicodedata.normalize("NFC", token).casefold()


@dataclass(frozen=True)
class LanguageSpec:
    """A language identified by a FLORES-style code plus a prompt-facing name."""

    code: str
    display_name: str

    def __post_init__(self) -> None:
        if not self.code or self.code.count("_") != 1:
            raise DataError(
                f"language code must look like 'eng_Latn' (got {self.code!r})"
            )
        if not self.display_name:
            raise DataError(f"language {self.code}: display_name must be non-empty")

    @classmethod
    def from_code(cls, code: str, display_name: str | None = None) -> "LanguageSpec":
        return cls(code=code, display_name=display_name_for(code, display_name))


@dataclass(frozen=True)
class Vocabulary:
    """Frequency-sorted word list for one language.

    Words are stored normalized (NFC + casefold), deduplicated, in file order.
    """

    language: LanguageSpec
    words: tuple[str, ...]
    _members: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_members", frozenset(self.words))

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, token: str) -> bool:
        return normalize_token(token) in self._members


def _read_lines(path: str | Path) -> list[str]:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {p}: {exc}") from exc
    # splitlines handles both LF and CRLF; a trailing newline adds no entry
    return text.splitlines()


def load_vocabulary(
    path: str | Path, language: LanguageSpec, max_size: int
) -> Vocabulary:
    """Load the first max_size distinct normalized tokens from a word list.

    Lines containing internal whitespace are rejected with a warning; an
    empty file (or one yielding no usable tokens) is an error.
    """
    if max_size < 1:
        raise DataError(f"max_size must be positive (got {max_size})")
    lines = _read_lines(path)
    words: list[str] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(lines, start=1):
        token = raw.strip()
        if not token:
            continue
        if any(ch.isspace() for ch in token):
            log.warning("%s:%d: skipping multi-word entry %r", path, lineno, raw)
            continue
        norm = normalize_token(token)
        if norm in seen:
            continue
        seen.add(norm)
        words.append(norm)
        if len(words) >= max_size:
            break
    if not words:
        raise DataError(f"empty vocabulary: {path}")
    return Vocabulary(language=language, words=tuple(words))


def load_monolingual(path: str | Path) -> tuple[str, ...]:
    """Load one sentence per line, dropping blank lines with a warning."""
    lines = _read_lines(path)
    sentences: list[str] = []
    for lineno, raw in enumerate(lines, start=1):
        sentence = raw.strip()
        if not sentence:
            log.warning("%s:%d: dropping blank line", path, lineno)
            continue
        sentences.append(sentence)
    if not sentences:
        raise DataError(f"no usable sentences in {path}")
    return tuple(sentences)


def load_parallel(
    src_path: str | Path, tgt_path: str | Path
) -> tuple[tuple[str, str], ...]:
    """Load two line-aligned files into (source, target) sentence pairs.

    A length mismatch between the files is fatal; a blank line on either
    side drops that pair with a warning.
    """
    src_lines = _read_lines(src_path)
    tgt_lines = _read_lines(tgt_path)
    if len(src_lines) != len(tgt_lines):
        raise DataError(
            f"alignment mismatch: {src_path} has {len(src_lines)} lines, "
            f"{tgt_path} has {len(tgt_lines)}"
        )
    pairs: list[tuple[str, str]] = []
    dropped = 0
    for lineno, (src_raw, tgt_raw) in enumerate(zip(src_lines, tgt_lines), start=1):
        src, tgt = src_raw.strip(), tgt_raw.strip()
        if not src or not tgt:
            dropped += 1
            log.warning("line %d: dropping pair with blank side", lineno)
            continue
        pairs.append((src, tgt))
    if dropped:
        log.warning("dropped %d pair(s) with a blank side", dropped)
    if not pairs:
        raise DataError(f"no usable pairs in {src_path} / {tgt_path}")
    return tuple(pairs)


def write_lines(path: str | Path, lines: "list[str] | tuple[str, ...]") -> None:
    """Write one item per line with LF endings (the round-trip format)."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with p.open("w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def read_written_lines(path: str | Path) -> list[str]:
    """The lines of a file `write_lines` wrote, split at LF only.

    `str.splitlines` would also split at CR, U+0085, U+2028 and the other
    Unicode line breaks, which generated text and unescaped JSON may hold.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    if lines[-1] == "":
        lines.pop()  # the newline that ends the last line
    return lines


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    """One JSON object per line, keys sorted and non-ASCII text kept as is."""
    write_lines(
        path,
        [json.dumps(record, ensure_ascii=False, sort_keys=True) for record in records],
    )
