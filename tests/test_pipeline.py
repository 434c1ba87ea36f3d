"""Stage currency on the toy config: what a repeated run rewrites."""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import threading
from collections import Counter
from concurrent.futures import wait
from pathlib import Path

import pytest

from icl_miner import metrics, w2w, word_mining
from icl_miner.backends import ScoredCompletion
from icl_miner.config import load_config
from icl_miner.errors import BackendError, BackendRejected, DataError
from icl_miner.pipeline import Pipeline, _scoring_pool


def toy_pipeline(
    ini: Path, work: Path, concurrency: int = 1, **overrides
) -> Pipeline:
    return Pipeline(load_config(ini, {
        "output_dir": str(work / "out"),
        "cache_dir": str(work / "cache"),
        "concurrency": concurrency,
        **overrides,
    }))


def lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def w2w_records(run_dir: Path) -> list[dict]:
    return [json.loads(line) for line in lines(run_dir / "w2w.jsonl")]


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


def test_warm_run_sends_no_request_and_writes_no_cache_file(tmp_path, toy_dir):
    ini = toy_dir / "toy.ini"
    cold = toy_pipeline(ini, tmp_path)
    cold.run_all()
    cache = tmp_path / "cache"
    files = sorted(cache.rglob("*"))
    assert [path.name.startswith("seg-") for path in files] == [True]

    warm = toy_pipeline(ini, tmp_path, output_dir=str(tmp_path / "warm"))
    warm.run_all()
    assert warm.llm.backend.call_count == 0
    assert sorted(cache.rglob("*")) == files
    assert {
        path.name: path.read_bytes() for path in warm.run_dir.iterdir()
    } == {path.name: path.read_bytes() for path in cold.run_dir.iterdir()}


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


def rejecting(backend, sources: list[str], indices: set[int]):
    """`backend`, except that it rejects the zero-shot translation of the
    test sources at `indices`, as an HTTP 4xx would."""

    class Rejecting:
        backend_id, model_id = backend.backend_id, backend.model_id

        def generate(self, request):
            for index in indices:
                if request.prompt.endswith(f"Avalian: {sources[index]}\nZorvan:"):
                    raise BackendRejected(f"sentence {index}")
            return backend.generate(request)

    return Rejecting()


def golden_lines(toy_dir: Path, name: str) -> list[str]:
    return lines(next((toy_dir / "golden").glob("run-*")) / name)


@pytest.mark.parametrize("concurrency", [1, 8])
def test_one_failed_translation_leaves_its_line_empty(tmp_path, toy_dir, concurrency):
    pipeline = toy_pipeline(toy_dir / "toy.ini", tmp_path, concurrency)
    sources = lines(toy_dir / "test.ava.txt")
    pipeline.llm.backend = rejecting(pipeline.llm.backend, sources, {1})
    hyp = pipeline.translate("zero_shot")

    expected = golden_lines(toy_dir, "hyp.zero_shot.txt")
    assert expected[1]
    expected[1] = ""
    assert lines(hyp) == expected


@pytest.mark.parametrize("concurrency", [1, 8])
def test_failed_translation_aborts_the_stage(tmp_path, toy_dir, concurrency):
    # a stage aborts when more than half of its requests fail
    pipeline = toy_pipeline(toy_dir / "toy.ini", tmp_path, concurrency)
    sources = lines(toy_dir / "test.ava.txt")
    backend = pipeline.llm.backend
    pipeline.llm.backend = rejecting(backend, sources, {5, 3, 1, 4})
    with pytest.raises(
        BackendError, match=r"4/6 translations failed; aborting \(first: sentence 1\)"
    ) as info:
        pipeline.translate("zero_shot")
    assert isinstance(info.value.__cause__, BackendRejected)
    assert not list(pipeline.run_dir.glob("hyp.zero_shot.txt*"))

    # the failed build was not remembered: the same Pipeline builds it now
    pipeline.llm.backend = backend
    hyp = pipeline.translate("zero_shot")
    assert lines(hyp) == golden_lines(toy_dir, "hyp.zero_shot.txt")
    assert hyp.with_name(hyp.name + ".manifest.json").exists()


def test_run_all_checks_each_stage_once(tmp_path, toy_dir, monkeypatch):
    # a stage check looks for the stage's manifest once, whether it builds
    # the stage or finds it current
    checks = Counter()
    exists = Path.exists

    def counting_exists(path):
        if path.name.endswith(".manifest.json"):
            checks[path.name] += 1
        return exists(path)

    monkeypatch.setattr(Path, "exists", counting_exists)
    for run in ("cold", "resume"):
        checks.clear()
        pipeline = toy_pipeline(toy_dir / "toy.ini", tmp_path)
        pipeline.run_all()
        manifests = {path.name for path in pipeline.run_dir.glob("*.manifest.json")}
        assert len(manifests) == 18
        assert checks == dict.fromkeys(manifests, 1), run


def test_uw2w_renders_test_set_when_w2w_source_differs(tmp_path, toy_dir):
    pipeline = toy_pipeline(
        toy_dir / "toy.ini", tmp_path, w2w_source=str(toy_dir / "dev.ava.txt")
    )
    hyp = pipeline.translate("uw2w")
    records = w2w_records(pipeline.run_dir)
    assert [record["source"] for record in records] == lines(toy_dir / "dev.ava.txt")

    direct = w2w.build_w2w(
        lines(toy_dir / "test.ava.txt"),
        word_mining.read_lexicon(pipeline.run_dir / "lexicon.tsv"),
        pipeline.llm, pipeline.source_lang, pipeline.target_lang,
        pipeline.templates, pipeline.config.max_word_tokens,
    )
    assert lines(hyp) == [rendering for _, rendering in direct.pairs]
    golden = next((toy_dir / "golden").glob("run-*")) / "hyp.uw2w.txt"
    assert hyp.read_bytes() == golden.read_bytes()


def test_uw2w_aligns_with_reference_around_blank_target(tmp_path, toy_dir):
    data = tmp_path / "toy"
    shutil.copytree(toy_dir, data, ignore=shutil.ignore_patterns("golden"))
    targets = lines(data / "test.zor.txt")
    targets[1] = ""
    (data / "test.zor.txt").write_text("\n".join(targets) + "\n", encoding="utf-8")
    pipeline = toy_pipeline(data / "toy.ini", tmp_path)
    pipeline.run_all(["uw2w"])

    # w2w.jsonl renders every test source, the reference drops the blank pair
    sources = lines(data / "test.ava.txt")
    records = w2w_records(pipeline.run_dir)
    rendered = {record["source"]: record["w2w"] for record in records}
    assert list(rendered) == sources
    kept = [source for index, source in enumerate(sources) if index != 1]
    assert lines(pipeline.run_dir / "test.ref.txt") == targets[:1] + targets[2:]
    assert lines(pipeline.run_dir / "hyp.uw2w.txt") == [rendered[s] for s in kept]


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
    # three workers, so the pool is used on a machine with one CPU too; all
    # of them start before the first stage runs
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


def test_policy_is_scored_while_the_next_translates(tmp_path, toy_dir):
    pipeline = toy_pipeline(toy_dir / "toy.ini", tmp_path)
    translate, evaluate = pipeline.translate, pipeline.evaluate
    second_translating = threading.Event()

    def signalling_translate(policy):
        if policy == "random":
            second_translating.set()
        return translate(policy)

    def waiting_evaluate(hyp_path, ref_path, system="system", **kwargs):
        # a serial run_all translates "random" only after this returns
        if system == "zero_shot" and not second_translating.wait(timeout=10):
            raise AssertionError("zero_shot was not scored while random translated")
        return evaluate(hyp_path, ref_path, system, **kwargs)

    pipeline.translate, pipeline.evaluate = signalling_translate, waiting_evaluate
    reports = pipeline.run_all(["zero_shot", "random"])
    assert [report.system for report in reports] == ["zero_shot", "random"]
    golden = golden_lines(toy_dir, "report.txt")  # zero_shot, uw2w, random, ...
    assert lines(pipeline.run_dir / "report.txt") == [golden[0], golden[2]]


def test_scoring_error_stops_the_run_before_the_next_translation(tmp_path, toy_dir):
    pipeline = toy_pipeline(toy_dir / "toy.ini", tmp_path)
    translate, evaluate_policy = pipeline.translate, pipeline.evaluate_policy
    translated, scorings = [], []
    second_translating = threading.Event()

    def failing_evaluate(*args, **kwargs):
        second_translating.wait(timeout=10)
        raise DataError("injected scoring error")

    def recording_evaluate_policy(policy, *args, **kwargs):
        scorings.append(evaluate_policy(policy, *args, **kwargs))
        return scorings[-1]

    def waiting_translate(policy):
        translated.append(policy)
        if policy == "random":  # the scoring of zero_shot fails meanwhile
            second_translating.set()
            done, _ = wait(scorings, timeout=10)
            assert done == set(scorings)
        return translate(policy)

    pipeline.evaluate = failing_evaluate
    pipeline.evaluate_policy = recording_evaluate_policy
    pipeline.translate = waiting_translate
    with pytest.raises(DataError, match="injected scoring error"):
        pipeline.run_all(["zero_shot", "random", "topk"])
    assert translated == ["zero_shot", "random"]
    assert not (pipeline.run_dir / "report.zero_shot.json").exists()
    assert multiprocessing.active_children() == []


def test_scoring_workers_fork_while_the_process_has_one_thread(
    tmp_path, toy_dir, monkeypatch
):
    # a fork copies only the forking thread: a lock another thread holds
    # would stay locked in the worker
    monkeypatch.setattr(metrics, "usable_cpus", lambda: 3)
    threads_at_fork, recording = [], [True]
    os.register_at_fork(  # stays registered: `recording` switches it off
        before=lambda: recording and threads_at_fork.append(threading.active_count())
    )
    try:
        toy_pipeline(toy_dir / "toy.ini", tmp_path, concurrency=8).run_all()
    finally:
        recording.clear()
    assert threads_at_fork == [1, 1, 1]


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
