"""Prompt rendering and the one sender of every LLM request.

Shots are rendered in the order given; callers decide whether the best
example sits first or last (next to the query). A `Translator` holds what
a request needs for one language pair in one direction (the caching LLM,
the languages, the templates, the token limits and the sentence decoding)
and sends its word and sentence requests through `generate_each`, the
failure policy of every fan-out; `reverse()` gives the same translator in
the other direction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .backends.base import (
    DecodingMode,
    GenerationRequest,
    ScoredCompletion,
    StopCondition,
    generate_each,
)
from .backends.cache import CachingLLM
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


@dataclass(frozen=True)
class Translator:
    """Builds and sends the word and sentence requests from `src` to `trg`.

    Word requests stop at whitespace after at most `max_word_tokens`;
    sentence requests stop at a line break after at most
    `max_sentence_tokens`, decoded with `decoding`. Failures follow
    `generate_each`; how many requests are in flight is the caching LLM's
    `max_workers`.
    """

    llm: CachingLLM
    src: LanguageSpec
    trg: LanguageSpec
    templates: PromptTemplates = PromptTemplates()
    max_word_tokens: int = 8
    max_sentence_tokens: int = 256
    decoding: DecodingMode = DecodingMode.greedy()

    def reverse(self) -> "Translator":
        """This translator from `trg` to `src`."""
        return replace(self, src=self.trg, trg=self.src)

    def words(
        self,
        words: Sequence[str],
        shots: Sequence[tuple[str, str]] = (),
        mode: DecodingMode = DecodingMode.greedy(),
        num_samples: int = 1,
    ) -> list[list[ScoredCompletion]]:
        """The completions of each word, in order; `[]` for a failed one."""
        requests = [
            GenerationRequest(
                prompt=word_translation_prompt(
                    word, self.src.display_name, self.trg.display_name,
                    shots, self.templates,
                ),
                num_samples=num_samples,
                mode=mode,
                stop=StopCondition.whitespace(),
                max_new_tokens=self.max_word_tokens,
            )
            for word in words
        ]
        return generate_each(self.llm, requests, "word translations")

    def sentences(
        self,
        sentences: Sequence[str],
        shot_lists: Sequence[Sequence[tuple[str, str]]],
        what: str = "translations",
    ) -> list[str]:
        """The translation of each sentence with its shots, in order; `""`
        for a failed one.

        A prompt is rendered once per distinct (sentence, shots), but every
        request is passed on, repeats included, so that the share of
        failures counts lines.
        """
        request_of: dict[tuple, GenerationRequest] = {}
        requests = []
        for sentence, shots in zip(sentences, shot_lists, strict=True):
            key = (sentence, tuple(shots))
            if key not in request_of:
                request_of[key] = GenerationRequest(
                    prompt=sentence_translation_prompt(
                        sentence, self.src.display_name, self.trg.display_name,
                        shots, self.templates,
                    ),
                    mode=self.decoding,
                    stop=StopCondition.at("\n"),
                    max_new_tokens=self.max_sentence_tokens,
                )
            requests.append(request_of[key])
        results = generate_each(self.llm, requests, what)
        return [completions[0].text if completions else "" for completions in results]
