from __future__ import annotations

import multiprocessing
import threading
from pathlib import Path

import pytest

from icl_miner.backends import (
    CachingEmbedder,
    CachingLLM,
    MockLLMBackend,
    ResponseCache,
    SimilarityScorer,
    TrigramHashEmbedder,
)


@pytest.fixture(autouse=True)
def no_leaked_workers(request):
    """Fail a test that leaves a new non-daemon thread or a child process
    running. The baseline is taken once the test's other fixtures are set
    up, so what they start and stop themselves is not counted."""
    for name in request.fixturenames:
        if name != request.fixturename:
            request.getfixturevalue(name)
    threads = set(threading.enumerate())
    children = set(multiprocessing.active_children())
    yield
    leaked_threads = [
        thread for thread in threading.enumerate()
        if not thread.daemon and thread not in threads
    ]
    leaked_children = set(multiprocessing.active_children()) - children
    assert not leaked_threads, f"threads left running: {leaked_threads}"
    assert not leaked_children, f"child processes left running: {leaked_children}"


@pytest.fixture
def backend_threads(monkeypatch) -> dict[str, set[int]]:
    """The threads that requests to the mock LLM ("llm") and to the trigram
    embedder ("embed") ran on, recorded from this fixture on."""
    threads: dict[str, set[int]] = {"llm": set(), "embed": set()}
    for cls, method, layer in ((MockLLMBackend, "generate", "llm"),
                               (TrigramHashEmbedder, "embed", "embed")):
        def recording(self, query, original=getattr(cls, method),
                      seen=threads[layer]):
            seen.add(threading.get_ident())
            return original(self, query)

        monkeypatch.setattr(cls, method, recording)
    return threads


@pytest.fixture
def llm_calls(monkeypatch) -> list[str]:
    """The prompt of every request sent to a mock LLM, from this fixture on."""
    prompts: list[str] = []
    original = MockLLMBackend.generate

    def counting(self, request):
        prompts.append(request.prompt)
        return original(self, request)

    monkeypatch.setattr(MockLLMBackend, "generate", counting)
    return prompts


@pytest.fixture
def remote_mocks(monkeypatch, backend_threads) -> dict[str, set[int]]:
    """Declare the mock LLM and the trigram embedder remote, as an HTTP
    backend is, so that a pipeline at concurrency above 1 sends their
    requests from worker threads; gives `backend_threads`."""
    monkeypatch.setattr(MockLLMBackend, "remote", True)
    monkeypatch.setattr(TrigramHashEmbedder, "remote", True)
    return backend_threads


@pytest.fixture
def write_file(tmp_path: Path):
    def _write(name: str, lines: list[str]) -> Path:
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    return _write


def behind_cache(backend, root: Path, max_workers: int = 1):
    """`backend` behind its caching wrapper, over a response cache in
    `root`/cache."""
    wrapper = CachingEmbedder if hasattr(backend, "embed") else CachingLLM
    return wrapper(backend, ResponseCache(root / "cache"), max_workers)


def trigram_scorer(root: Path) -> SimilarityScorer:
    """A similarity scorer over the trigram embedder, cached in `root`/cache."""
    return SimilarityScorer(behind_cache(TrigramHashEmbedder(), root))


def repo_root() -> Path:
    return Path(__file__).resolve().parent.parent


@pytest.fixture
def toy_dir() -> Path:
    return repo_root() / "fixtures" / "toy"
