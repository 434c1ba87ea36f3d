"""Stage currency on the toy config: what a repeated run rewrites, and
which backend requests run on worker threads."""

from __future__ import annotations

import json
import os
import shutil
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from icl_miner import backends, bm25, metrics, sentence_mining, w2w, word_mining
from icl_miner.backends import MockLLMBackend, ScoredCompletion
from icl_miner.config import POLICIES, load_config
from icl_miner.errors import BackendError, BackendRejected, DataError
from icl_miner.pipeline import Pipeline
from icl_miner.prompts import Translator


def toy_pipeline(
    ini: Path, work: Path, concurrency: int = 1, **overrides
) -> Pipeline:
    return Pipeline(load_config(ini, {
        "output_dir": str(work / "out"),
        "cache_dir": str(work / "cache"),
        "concurrency": concurrency,
        **overrides,
    }))


def worker_threads(threads: dict[str, set[int]]) -> set[int]:
    """The threads in `threads` (see `backend_threads`), of any layer,
    other than this one."""
    return set().union(*threads.values()) - {threading.get_ident()}


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
def test_resume_rewrites_only_the_stale_stage(
    tmp_path, toy_dir, concurrency, remote_mocks
):
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
    assert bool(worker_threads(remote_mocks)) == (concurrency > 1)


def test_warm_run_sends_no_request_and_writes_no_cache_file(
    tmp_path, toy_dir, llm_calls
):
    ini = toy_dir / "toy.ini"
    cold = toy_pipeline(ini, tmp_path)
    cold.run_all()
    cache = tmp_path / "cache"
    files = sorted(cache.rglob("*"))
    assert [path.name.startswith("seg-") for path in files] == [True]

    warm = toy_pipeline(ini, tmp_path, output_dir=str(tmp_path / "warm"))
    llm_calls.clear()
    warm.run_all()
    assert len(llm_calls) == 0
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
def test_one_failed_translation_leaves_its_line_empty(
    tmp_path, toy_dir, concurrency, remote_mocks
):
    pipeline = toy_pipeline(toy_dir / "toy.ini", tmp_path, concurrency)
    sources = lines(toy_dir / "test.ava.txt")
    pipeline.llm.backend = rejecting(pipeline.llm.backend, sources, {1})
    hyp = pipeline.translate("zero_shot")

    expected = golden_lines(toy_dir, "hyp.zero_shot.txt")
    assert expected[1]
    expected[1] = ""
    assert lines(hyp) == expected
    assert bool(worker_threads(remote_mocks)) == (concurrency > 1)


@pytest.mark.parametrize("concurrency", [1, 8])
def test_failed_translation_aborts_the_stage(
    tmp_path, toy_dir, concurrency, remote_mocks
):
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
    assert bool(worker_threads(remote_mocks)) == (concurrency > 1)


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
        pipeline.translator,
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
def test_resume_rewrites_no_report(
    tmp_path, toy_dir, concurrency, remote_mocks
):
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
    assert bool(worker_threads(remote_mocks)) == (concurrency > 1)


def test_scoring_error_stops_the_run_before_the_next_translation(tmp_path, toy_dir):
    pipeline = toy_pipeline(toy_dir / "toy.ini", tmp_path)
    translate, translated = pipeline.translate, []

    def recording_translate(policy):
        translated.append(policy)
        return translate(policy)

    def failing_evaluate(*args, **kwargs):
        raise DataError("injected scoring error")

    pipeline.translate, pipeline.evaluate = recording_translate, failing_evaluate
    with pytest.raises(DataError, match="injected scoring error"):
        pipeline.run_all(["zero_shot", "random", "topk"])
    assert translated == ["zero_shot"]
    assert not (pipeline.run_dir / "report.zero_shot.json").exists()


def test_evaluation_made_stale_by_a_translation_is_scored_inline(tmp_path, toy_dir):
    data = tmp_path / "toy"
    shutil.copytree(toy_dir, data, ignore=shutil.ignore_patterns("golden"))
    pipeline = toy_pipeline(data / "toy.ini", tmp_path)
    pipeline.run_all()
    target = data / "test.zor.txt"
    edited = target.read_text(encoding="utf-8").replace("\n", " ak\n", 1)
    target.write_text(edited, encoding="utf-8")

    # as the run starts, every evaluation is current on disk; the edited
    # target then rewrites the reference, and every policy is scored again
    reports = toy_pipeline(data / "toy.ini", tmp_path).run_all()
    ref = pipeline.run_dir / "test.ref.txt"
    assert lines(ref)[0].endswith(" ak")
    for report in reports:
        hyp = pipeline.run_dir / f"hyp.{report.system}.txt"
        assert report == pipeline.evaluate(hyp, ref, report.system)


def test_run_all_counts_each_distinct_line_pair_once(tmp_path, toy_dir, monkeypatch):
    counted = Counter()

    def counting(metric, rows):
        def count(pairs, config):
            counted[metric] += len(pairs)
            return rows(pairs, config)
        return count

    monkeypatch.setattr(metrics, "_chrf_rows", counting("chrf", metrics._chrf_rows))
    monkeypatch.setattr(metrics, "_bleu_rows", counting("bleu", metrics._bleu_rows))
    pipeline = toy_pipeline(toy_dir / "toy.ini", tmp_path)
    reports = pipeline.run_all()
    references = lines(pipeline.run_dir / "test.ref.txt")
    pairs = [
        (hyp, ref)
        for report in reports
        for hyp, ref in zip(lines(pipeline.run_dir / f"hyp.{report.system}.txt"),
                            references)
    ]
    assert len(pairs) == 7 * len(references)
    assert counted == {"chrf": len(set(pairs)), "bleu": len(set(pairs))}
    assert len(set(pairs)) < len(pairs)  # policies agree on some lines


@pytest.mark.parametrize("concurrency", [1, 8])
def test_translation_with_unicode_line_separator(
    tmp_path, toy_dir, concurrency, remote_mocks
):
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
    assert bool(worker_threads(remote_mocks)) == (concurrency > 1)


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


def test_mock_run_at_concurrency_8_starts_no_thread(tmp_path, toy_dir, monkeypatch):
    # the mock LLM and the trigram embedder compute in Python, so their
    # requests stay on the calling thread whatever the concurrency
    pools = []

    def counting_pool(*args, **kwargs):
        pools.append(kwargs)
        return ThreadPoolExecutor(*args, **kwargs)

    monkeypatch.setattr(backends.cache, "ThreadPoolExecutor", counting_pool)
    toy_pipeline(toy_dir / "toy.ini", tmp_path, 8).run_all()
    assert pools == []


def test_mixed_pipeline_threads_only_its_remote_llm(
    tmp_path, toy_dir, monkeypatch, backend_threads
):
    # as with an HTTP LLM and `embedding = trigram`
    monkeypatch.setattr(MockLLMBackend, "remote", True)
    pipeline = toy_pipeline(toy_dir / "toy.ini", tmp_path, 8)
    pipeline.mine_words()
    caller = threading.get_ident()
    assert backend_threads["embed"] == {caller}
    assert backend_threads["llm"] - {caller}


@pytest.mark.parametrize("llm, embedding, workers", [
    ("mock", "trigram", (1, 1)),
    ("http", "trigram", (8, 1)),
    ("http", "http", (8, 8)),
])
def test_concurrency_bounds_only_network_backends(
    tmp_path, toy_dir, llm, embedding, workers
):
    pipeline = toy_pipeline(
        toy_dir / "toy.ini", tmp_path, 8,
        backend_kind=llm, embedding_kind=embedding, base_url="http://127.0.0.1:1/v1",
    )
    assert (pipeline.llm.max_workers, pipeline.embedder.max_workers) == workers


def test_best_first_reverses_the_shots_of_ranked_policies_only(
    tmp_path, toy_dir, monkeypatch
):
    # the toy fixture answers best_last prompts only, so this compares the
    # shots each policy sends, not its translations
    policies = [name for name, spec in POLICIES.items() if spec.selector != "none"]
    sent = {}
    for order in ("best_last", "best_first"):
        pipeline = toy_pipeline(toy_dir / "toy.ini", tmp_path, shot_order=order)
        pipeline.mine_sentences()
        shot_lists = []

        def capturing(self, sentences, lists, what="translations"):
            shot_lists.append([list(shots) for shots in lists])
            return [""] * len(sentences)

        with monkeypatch.context() as patch:
            patch.setattr(Translator, "sentences", capturing)
            for policy in policies:
                pipeline.translate(policy)
        sent[order] = dict(zip(policies, shot_lists, strict=True))
    for policy in policies:
        best_last = sent["best_last"][policy]
        reversed_ = [shots[::-1] for shots in best_last]
        assert reversed_ != best_last, policy
        expected = reversed_ if POLICIES[policy].ranked else best_last
        assert sent["best_first"][policy] == expected, policy


def test_each_test_line_is_selected_once_and_each_distinct_one_ranked_once(
    tmp_path, toy_dir, monkeypatch
):
    # perfbench's traced run expects one select_* call per test line and
    # policy; only the BM25 ranking inside is memoized per distinct line
    data = tmp_path / "toy"
    shutil.copytree(toy_dir, data, ignore=shutil.ignore_patterns("golden"))
    for name in ("test.ava.txt", "test.zor.txt"):
        path = data / name
        path.write_text("\n".join([*lines(path), lines(path)[0]]) + "\n", encoding="utf-8")
    sources = lines(data / "test.ava.txt")
    # w2w (and so the back-translation shots) from the fixtured test set
    pipeline = toy_pipeline(
        data / "toy.ini", tmp_path, w2w_source=str(toy_dir / "test.ava.txt")
    )
    pipeline.mine_sentences()
    calls = Counter()

    def counting(module, name):
        function = getattr(module, name)

        def count(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        monkeypatch.setattr(module, name, count)

    for name in ("select_random", "select_topk", "select_topk_bm25_with_audit"):
        counting(sentence_mining, name)
    counting(bm25, "score_all")
    monkeypatch.setattr(Translator, "sentences",
                        lambda self, sentences, lists, what="": [""] * len(sentences))
    for policy, spec in POLICIES.items():
        if spec.selector == "none":
            continue
        calls.clear()
        pipeline.translate(policy)
        selector = {"first_k": "select_random", "top_k": "select_topk",
                    "top_k_bm25": "select_topk_bm25_with_audit"}[spec.selector]
        expected = {selector: len(sources)}
        if spec.selector == "top_k_bm25":
            expected["score_all"] = len(set(sources))
        assert calls == expected, policy
        records = [json.loads(line)
                   for line in lines(pipeline.run_dir / f"audit.{policy}.jsonl")]
        first, repeat = records[0], records[-1]
        assert repeat.pop("query_index") == len(sources) - 1
        assert first.pop("query_index") == 0
        assert repeat == first, policy
