"""Stage currency on the toy config: what a repeated run rewrites."""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
from pathlib import Path

import pytest

from icl_miner import metrics
from icl_miner.backends import ScoredCompletion
from icl_miner.config import load_config
from icl_miner.errors import BackendError, BackendRejected, DataError
from icl_miner.pipeline import Pipeline, _scoring_pool


def toy_pipeline(ini: Path, work: Path, concurrency: int = 1) -> Pipeline:
    return Pipeline(load_config(ini, {
        "output_dir": str(work / "out"),
        "cache_dir": str(work / "cache"),
        "concurrency": concurrency,
    }))


def stage_files(run_dir: Path) -> dict[str, tuple[int, int]]:
    """Inode and mtime of every stage manifest and of the outputs it lists."""
    stats = {}
    for manifest in sorted(run_dir.glob("*.manifest.json")):
        outputs = json.loads(manifest.read_text(encoding="utf-8"))["outputs"]
        for path in (manifest, *(run_dir / name for name in outputs)):
            st = path.stat()
            stats[path.name] = (st.st_ino, st.st_mtime_ns)
    return stats


@pytest.mark.parametrize("concurrency", [1, 8])
def test_resume_rewrites_only_the_stale_stage(tmp_path, toy_dir, concurrency):
    ini = toy_dir / "toy.ini"
    run_dir = toy_pipeline(ini, tmp_path, concurrency).run_dir
    toy_pipeline(ini, tmp_path, concurrency).run_all()
    # an mtime far in the past shows any rewrite, however coarse the clock
    for path in run_dir.iterdir():
        os.utime(path, ns=(0, 0))
    before = stage_files(run_dir)
    assert sum(name.endswith(".manifest.json") for name in before) == 18

    toy_pipeline(ini, tmp_path, concurrency).run_all()
    assert stage_files(run_dir) == before

    hyp = run_dir / "hyp.topk.txt"
    expected = hyp.read_bytes()
    hyp.write_text("stale\n", encoding="utf-8")
    toy_pipeline(ini, tmp_path, concurrency).run_all()
    after = stage_files(run_dir)
    rewritten = {name for name in before if after[name] != before[name]}
    assert rewritten == {
        "hyp.topk.txt", "audit.topk.jsonl", "hyp.topk.txt.manifest.json"
    }
    assert hyp.read_bytes() == expected


def test_changed_reference_is_rescored(tmp_path, toy_dir):
    data = tmp_path / "toy"
    shutil.copytree(toy_dir, data, ignore=shutil.ignore_patterns("golden"))
    pipeline = toy_pipeline(data / "toy.ini", tmp_path)
    pipeline.run_all()
    reports = {
        p.name: p.read_bytes()
        for p in pipeline.run_dir.glob("report.*.json")
        if not p.name.endswith(".manifest.json")
    }

    target = data / "test.zor.txt"
    lines = target.read_text(encoding="utf-8").splitlines()
    lines[0] = "xilo brynak"
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    toy_pipeline(data / "toy.ini", tmp_path).run_all()

    ref = (pipeline.run_dir / "test.ref.txt").read_text(encoding="utf-8")
    assert ref.splitlines() == lines
    assert len(reports) == 7
    assert any(
        (pipeline.run_dir / name).read_bytes() != old
        for name, old in reports.items()
    )


@pytest.mark.parametrize("concurrency", [1, 8])
def test_failed_translation_aborts_the_stage(tmp_path, toy_dir, concurrency):
    pipeline = toy_pipeline(toy_dir / "toy.ini", tmp_path, concurrency)
    sources = (toy_dir / "test.ava.txt").read_text(encoding="utf-8").splitlines()
    backend = pipeline.llm.backend

    class Rejecting:
        backend_id, model_id = backend.backend_id, backend.model_id

        def generate(self, request):
            for index in (3, 1):
                if request.prompt.endswith(f"Avalian: {sources[index]}\nZorvan:"):
                    raise BackendRejected(f"sentence {index}")
            return backend.generate(request)

    pipeline.llm.backend = Rejecting()
    with pytest.raises(BackendError, match="sentence 1"):
        pipeline.translate("zero_shot")
    assert not list(pipeline.run_dir.glob("hyp.zero_shot.txt*"))


@pytest.mark.parametrize("concurrency", [1, 8])
def test_resume_rewrites_no_report(tmp_path, toy_dir, concurrency):
    ini = toy_dir / "toy.ini"
    first = toy_pipeline(ini, tmp_path, concurrency)
    expected = first.run_all()
    reports = sorted(first.run_dir.glob("report.*.json*"))
    assert len(reports) == 14  # a report and its manifest per policy
    for path in reports:
        os.utime(path, ns=(0, 0))
    before = {path.name: (path.stat().st_ino, path.stat().st_mtime_ns) for path in reports}

    # every evaluation stage is current: the reports are read back, not rescored
    assert toy_pipeline(ini, tmp_path, concurrency).run_all() == expected
    assert {
        path.name: (path.stat().st_ino, path.stat().st_mtime_ns) for path in reports
    } == before


def test_scoring_pool_needs_two_cpus(monkeypatch):
    monkeypatch.setattr(metrics, "usable_cpus", lambda: 1)
    assert _scoring_pool() is None


def test_scoring_workers_exit_with_run_all(tmp_path, toy_dir, monkeypatch):
    # three workers, so the pool is used on a machine with one CPU too; a
    # fork pool starts all of them at the first submit
    monkeypatch.setattr(metrics, "usable_cpus", lambda: 3)
    pipeline = toy_pipeline(toy_dir / "toy.ini", tmp_path)
    pipeline.run_all()
    assert multiprocessing.active_children() == []

    # a stage that fails after the first evaluation has started the workers
    pipeline = toy_pipeline(toy_dir / "toy.ini", tmp_path / "failing")
    translate, alive = pipeline.translate, []

    def failing_translate(policy):
        if policy == "random":
            alive.extend(multiprocessing.active_children())
            raise DataError("injected")
        return translate(policy)

    pipeline.translate = failing_translate
    with pytest.raises(DataError, match="injected"):
        pipeline.run_all(["zero_shot", "random"])
    assert len(alive) == 3
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("concurrency", [1, 8])
def test_translation_with_unicode_line_separator(tmp_path, toy_dir, concurrency):
    pipeline = toy_pipeline(toy_dir / "toy.ini", tmp_path, concurrency)
    sources = (toy_dir / "test.ava.txt").read_text(encoding="utf-8").splitlines()
    backend = pipeline.llm.backend

    class Separating:
        backend_id, model_id = backend.backend_id, backend.model_id

        def generate(self, request):
            completions = backend.generate(request)
            if request.prompt.endswith(f"Avalian: {sources[2]}\nZorvan:"):
                # a line break that str.splitlines() splits at, "\n" does not
                completions = [
                    ScoredCompletion(c.text + "\u2028ak", c.sequence_score)
                    for c in completions
                ]
            return completions

    pipeline.llm.backend = Separating()
    reports = pipeline.run_all(["zero_shot"])
    assert reports[0].sentence_count == len(sources)
    hypotheses = (pipeline.run_dir / "hyp.zero_shot.txt").read_text(encoding="utf-8")
    assert hypotheses.count("\n") == len(sources)
    assert "\u2028ak" in hypotheses.split("\n")[2]


def test_changed_subword_vocabulary_is_rescored(tmp_path, toy_dir):
    vocab = tmp_path / "pieces.txt"

    def run_with(pieces: str) -> dict:
        vocab.write_text(pieces, encoding="utf-8")
        pipeline = Pipeline(load_config(toy_dir / "toy.ini", {
            "output_dir": str(tmp_path / "out"),
            "cache_dir": str(tmp_path / "cache"),
            "bleu_tokenizer": f"subword:{vocab}",
        }))
        pipeline.run_all(["zero_shot"])
        manifest = pipeline.run_dir / "report.zero_shot.json.manifest.json"
        return json.loads(manifest.read_text(encoding="utf-8"))["inputs"]

    first = run_with("ak\nlu\n")
    second = run_with("ak\nlu\nsk\n")
    assert first["subword_vocab"] != second["subword_vocab"]
    assert first["hypotheses"] == second["hypotheses"]
