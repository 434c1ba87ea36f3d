"""Prompt rendering for word- and sentence-level translation requests.

Shots are rendered in the order given; callers decide whether the best
example sits first or last (next to the query). `word_request` and
`sentence_request` build the one request shape of each kind that the
pipeline sends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .backends.base import DecodingMode, GenerationRequest, StopCondition
from .corpus import LanguageSpec


@dataclass(frozen=True)
class PromptTemplates:
    word_zero_shot: str = 'The {src_name} word "{word}" in {trg_name} is:'
    word_shot_header: str = "Translate the following {src_name} word to {trg_name}:"
    sentence_header: str = (
        "Translate from the {src_name} language to {trg_name} language:"
    )


def word_translation_prompt(
    word: str,
    src_name: str,
    trg_name: str,
    shots: Sequence[tuple[str, str]] = (),
    templates: PromptTemplates = PromptTemplates(),
) -> str:
    """Single-word translation prompt; zero-shot when no shots are given."""
    if not shots:
        return templates.word_zero_shot.format(
            src_name=src_name, trg_name=trg_name, word=word
        )
    lines = [templates.word_shot_header.format(src_name=src_name, trg_name=trg_name)]
    for shot_src, shot_trg in shots:
        lines.append(f"{src_name}: {shot_src}")
        lines.append(f"{trg_name}: {shot_trg}")
    lines.append(f"{src_name}: {word}")
    lines.append(f"{trg_name}:")
    return "\n".join(lines)


def sentence_translation_prompt(
    sentence: str,
    src_name: str,
    trg_name: str,
    shots: Sequence[tuple[str, str]] = (),
    templates: PromptTemplates = PromptTemplates(),
) -> str:
    """Sentence translation prompt with optional in-context example blocks."""
    parts = [
        templates.sentence_header.format(src_name=src_name, trg_name=trg_name),
        "",
    ]
    for shot_src, shot_trg in shots:
        parts.append(f"{src_name}: {shot_src}")
        parts.append(f"{trg_name}: {shot_trg}")
        parts.append("")
    parts.append(f"{src_name}: {sentence}")
    parts.append(f"{trg_name}:")
    return "\n".join(parts)


def word_request(
    word: str,
    src: LanguageSpec,
    trg: LanguageSpec,
    shots: Sequence[tuple[str, str]],
    templates: PromptTemplates,
    max_new_tokens: int,
    mode: DecodingMode = DecodingMode.greedy(),
    num_samples: int = 1,
) -> GenerationRequest:
    """Translate one word from `src` to `trg`, stopping at whitespace."""
    return GenerationRequest(
        prompt=word_translation_prompt(
            word, src.display_name, trg.display_name, shots, templates
        ),
        num_samples=num_samples,
        mode=mode,
        stop=StopCondition.whitespace(),
        max_new_tokens=max_new_tokens,
    )


def sentence_request(
    sentence: str,
    src: LanguageSpec,
    trg: LanguageSpec,
    shots: Sequence[tuple[str, str]],
    templates: PromptTemplates,
    mode: DecodingMode,
    max_new_tokens: int,
) -> GenerationRequest:
    """Translate one sentence from `src` to `trg`, stopping at a line break."""
    return GenerationRequest(
        prompt=sentence_translation_prompt(
            sentence, src.display_name, trg.display_name, shots, templates
        ),
        num_samples=1,
        mode=mode,
        stop=StopCondition.at("\n"),
        max_new_tokens=max_new_tokens,
    )
