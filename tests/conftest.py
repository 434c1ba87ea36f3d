from __future__ import annotations

import multiprocessing
import threading
from pathlib import Path

import pytest


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
def write_file(tmp_path: Path):
    def _write(name: str, lines: list[str]) -> Path:
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    return _write


def repo_root() -> Path:
    return Path(__file__).resolve().parent.parent


@pytest.fixture
def toy_dir() -> Path:
    return repo_root() / "fixtures" / "toy"
