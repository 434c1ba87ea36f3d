"""LLM and embedding backends with a persistent response cache."""

from .base import (
    DecodingMode,
    EmbeddingBackend,
    EmbeddingVector,
    GenerationRequest,
    LLMBackend,
    ScoredCompletion,
    SimilarityScorer,
    StopCondition,
    cosine,
    finalize_completions,
)
from .cache import CachingEmbedder, CachingLLM, ResponseCache, fingerprint
from .http import HttpEmbeddingBackend, HttpLLMBackend
from .mock import FixtureEmbeddingBackend, MockLLMBackend, TrigramHashEmbedder

__all__ = [
    "CachingEmbedder",
    "CachingLLM",
    "DecodingMode",
    "EmbeddingBackend",
    "EmbeddingVector",
    "FixtureEmbeddingBackend",
    "GenerationRequest",
    "HttpEmbeddingBackend",
    "HttpLLMBackend",
    "LLMBackend",
    "MockLLMBackend",
    "ResponseCache",
    "ScoredCompletion",
    "SimilarityScorer",
    "StopCondition",
    "TrigramHashEmbedder",
    "cosine",
    "fingerprint",
    "finalize_completions",
]
