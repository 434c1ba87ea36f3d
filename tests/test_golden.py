"""The toy config reproduces the committed golden run, at any concurrency."""

from __future__ import annotations

import threading
from pathlib import Path

from icl_miner.config import load_config
from icl_miner.pipeline import Pipeline

GOLDEN_RUN = "run-8f7db4f8eb8c"


def read_tree(root: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_toy_run_matches_golden_at_concurrency_1_and_8(
    tmp_path, toy_dir, remote_mocks, llm_calls
):
    # the toy backends, declared remote, are sent requests from worker
    # threads at concurrency 8, as HTTP backends are
    golden = read_tree(toy_dir / "golden" / GOLDEN_RUN)
    calls = {}
    for concurrency in (1, 8):
        for seen in remote_mocks.values():
            seen.clear()
        llm_calls.clear()
        work = tmp_path / f"concurrency-{concurrency}"
        config = load_config(toy_dir / "toy.ini", {
            "output_dir": str(work / "out"),
            "cache_dir": str(work / "cache"),
            "concurrency": concurrency,
        })
        pipeline = Pipeline(config)
        pipeline.run_all()
        # concurrency is plumbing: it leaves the run hash alone
        assert pipeline.run_dir.name == GOLDEN_RUN
        got = read_tree(pipeline.run_dir)
        assert sorted(got) == sorted(golden)
        for name, data in golden.items():
            assert got[name] == data, f"{name} differs at concurrency {concurrency}"
        calls[concurrency] = len(llm_calls)
        for layer, seen in remote_mocks.items():
            workers = seen - {threading.get_ident()}
            assert bool(workers) == (concurrency > 1), (layer, concurrency)
    assert calls[1] == calls[8] > 0
