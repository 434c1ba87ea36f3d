"""OpenAI-compatible HTTP backends for completions and embeddings.

Requests are idempotent, so transient transport errors and 5xx responses
are retried with exponential backoff (3 attempts); a 4xx raises
BackendRejected at once. Sequence scores are the sum of token
log-probabilities when the API returns them; otherwise the provider's
ordering is mapped to scores -1, -2, ...

`requests` is used only by `kind = http` and `embedding = http`. It is
imported when such a backend is built, so a run on mock or local backends
never loads it.
"""

from __future__ import annotations

import logging
import os
import time

from ..errors import BackendError, BackendRejected
from .base import (
    EmbeddingVector,
    GenerationRequest,
    ScoredCompletion,
    finalize_completions,
)

log = logging.getLogger(__name__)

API_KEY_ENV = "ICL_MINER_API_KEY"
RETRY_ATTEMPTS = 3
RETRY_BASE_DELAY = 0.5


class _HttpBackend:
    """One model behind an OpenAI-compatible endpoint: its URL, timeout and
    API key (by default from `ICL_MINER_API_KEY`)."""

    _what = "HTTP backend"
    remote = True  # a request waits on the network: worth a worker thread

    def __init__(
        self,
        base_url: str,
        model: str,
        timeout: float = 60.0,
        api_key: str | None = None,
    ):
        if not base_url:
            raise BackendError(f"{self._what} needs a base URL")
        import requests  # noqa: F401  # set-up pays for the import, not the first request

        self.base_url = base_url.rstrip("/")
        self.model_id = model
        self.timeout = timeout
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)

    def _post(self, path: str, payload: dict) -> dict:
        """POST JSON to `<base_url>/<path>`, with a bearer token when there
        is a key, retrying as the module describes."""
        import requests  # loaded by the constructor

        url = f"{self.base_url}/{path}"
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        last_error: Exception | None = None
        for attempt in range(RETRY_ATTEMPTS):
            try:
                response = requests.post(
                    url, json=payload, headers=headers, timeout=self.timeout
                )
                if response.status_code >= 500:
                    raise BackendError(
                        f"{url} returned {response.status_code}: {response.text[:200]}"
                    )
                if response.status_code >= 400:
                    raise BackendRejected(
                        f"{url} rejected request ({response.status_code}): "
                        f"{response.text[:200]}"
                    )
                return response.json()
            except BackendRejected:
                raise
            except (BackendError, requests.RequestException, ValueError) as exc:
                last_error = exc
            if attempt < RETRY_ATTEMPTS - 1:
                delay = RETRY_BASE_DELAY * (2**attempt)
                log.warning("retrying %s in %.1fs after: %s", url, delay, last_error)
                time.sleep(delay)
        raise BackendError(
            f"{url} failed after {RETRY_ATTEMPTS} attempts: {last_error}"
        ) from last_error


class HttpLLMBackend(_HttpBackend):
    backend_id = "http"

    def generate(self, request: GenerationRequest) -> list[ScoredCompletion]:
        payload: dict = {
            "model": self.model_id,
            "prompt": request.prompt,
            "n": request.num_samples,
            "max_tokens": request.max_new_tokens,
            "logprobs": 1,
        }
        mode = request.mode
        if mode.kind == "greedy":
            payload["temperature"] = 0.0
        elif mode.kind == "random_sampling":
            payload["temperature"] = mode.temperature
            payload["seed"] = mode.seed
        else:  # beam: vLLM-style extension over the OpenAI schema
            payload["temperature"] = 0.0
            payload["use_beam_search"] = True
            payload["best_of"] = max(mode.width, request.num_samples)
        # the whitespace stop rule is enforced client-side only: providers
        # apply stop strings to the leading space of a completion too
        if request.stop.substrings:
            payload["stop"] = list(request.stop.substrings)

        body = self._post("completions", payload)
        choices = body.get("choices")
        if not isinstance(choices, list):
            raise BackendError(f"malformed completions response: {body!r}")
        raw: list[ScoredCompletion] = []
        for rank, choice in enumerate(choices, start=1):
            text = choice.get("text", "")
            logprobs = (choice.get("logprobs") or {}).get("token_logprobs")
            if logprobs:
                score = float(sum(lp for lp in logprobs if lp is not None))
            else:
                score = float(-rank)
            raw.append(ScoredCompletion(text, score))
        return finalize_completions(raw, request)


class HttpEmbeddingBackend(_HttpBackend):
    backend_id = "http-embed"
    _what = "HTTP embedding backend"

    def embed(self, text: str) -> EmbeddingVector:
        if not text:
            raise BackendError("cannot embed empty text")
        body = self._post("embeddings", {"model": self.model_id, "input": [text]})
        try:
            vector = body["data"][0]["embedding"]
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"malformed embeddings response: {body!r}") from exc
        return EmbeddingVector(tuple(float(v) for v in vector))
