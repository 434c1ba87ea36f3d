from __future__ import annotations

import configparser
import fcntl
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from icl_miner.cli import main
from icl_miner.config import load_config
from icl_miner.pipeline import Pipeline, RunLock
from icl_miner.errors import ConfigError

TOY = Path(__file__).resolve().parent.parent / "fixtures" / "toy"
TOY_INI = TOY / "toy.ini"


def toy_args(command, tmp_path, *extra):
    return [
        command,
        "--config", str(TOY_INI),
        "--output-dir", str(tmp_path / "out"),
        "--cache-dir", str(tmp_path / "cache"),
        *extra,
    ]


def toy_parser() -> configparser.ConfigParser:
    """The toy config with its file paths made absolute."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(TOY_INI, encoding="utf-8")
    for name, options in parser.items():
        for option, path in options.items():
            if (TOY / path).is_file():
                parser.set(name, option, str(TOY / path))
    return parser


def run_dir(tmp_path) -> Path:
    return next((tmp_path / "out").glob("run-*"))


class TestExitCodes:
    def test_missing_config_is_2(self, tmp_path, capsys):
        rc = main(["mine-words", "--config", str(tmp_path / "nope.ini")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_vocab_path_is_2_and_names_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text(
            TOY_INI.read_text(encoding="utf-8").replace(
                "vocab.ava.txt", "missing.txt"
            ),
            encoding="utf-8",
        )
        # paths resolve against the config's directory, so point it back
        rc = main(["mine-words", "--config", str(bad),
                   "--output-dir", str(tmp_path / "o")])
        assert rc == 2
        assert "paths.source_vocab" in capsys.readouterr().err

    def test_evaluate_ok_is_0(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("lumak tovik .\n", encoding="utf-8")
        rc = main(
            toy_args("evaluate", tmp_path, "--hyp", str(hyp), "--ref", str(hyp))
        )
        assert rc == 0
        assert "100.00/100.00" in capsys.readouterr().out

    def test_data_error_is_4(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_text("a\n", encoding="utf-8")
        ref.write_text("a\nb\n", encoding="utf-8")
        rc = main(
            toy_args("evaluate", tmp_path, "--hyp", str(hyp), "--ref", str(ref))
        )
        assert rc == 4

    def test_no_mined_word_pairs_is_4(self, tmp_path, capsys):
        parser = toy_parser()
        # no forward candidate of the toy fixture is in this target vocabulary
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("qqqq\n", encoding="utf-8")
        parser.set("paths", "target_vocab", str(vocab))
        config = tmp_path / "no-pairs.ini"
        with config.open("w", encoding="utf-8") as fh:
            parser.write(fh)
        rc = main(["mine-words", "--config", str(config),
                   "--output-dir", str(tmp_path / "out"),
                   "--cache-dir", str(tmp_path / "cache")])
        assert rc == 4
        assert "no consistent pairs" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("metrics", "chrf_char_ngram", "0"),
        ("metrics", "bleu_smoothing", "bogus"),
        ("metrics", "bleu_tokenizer", "subword:nope.txt"),
        ("mining", "max_word_tokens", "0"),
        ("mining", "beam_width", "0"),  # with beam decoding
        ("backend", "embedding_dim", "0"),
        ("backend", "embedding", "http"),  # with no URL
    ])
    def test_invalid_field_is_2_before_any_stage(
        self, tmp_path, capsys, section, key, value
    ):
        parser = toy_parser()
        parser.set("mining", "sentence_decoding", "beam")
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value)
        config = tmp_path / "bad.ini"
        with config.open("w", encoding="utf-8") as fh:
            parser.write(fh)

        with pytest.raises(ConfigError):
            load_config(config).validate()
        rc = main(["run-all", "--config", str(config),
                   "--output-dir", str(tmp_path / "out"),
                   "--cache-dir", str(tmp_path / "cache")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("run-*"))
        assert not (tmp_path / "cache").exists()


class TestMineWords:
    def test_writes_lexicon_and_manifest(self, tmp_path):
        assert main(toy_args("mine-words", tmp_path)) == 0
        lexicon = run_dir(tmp_path) / "lexicon.tsv"
        manifest = run_dir(tmp_path) / "lexicon.tsv.manifest.json"
        assert lexicon.exists()
        record = json.loads(manifest.read_text(encoding="utf-8"))
        assert record["constants"]["k_wp"] == 10
        assert record["constants"]["n"] == 10
        assert set(record["inputs"]) == {"source_vocab", "target_vocab"}
        assert record["backend"]["id"] == "mock"

    def test_rerun_with_warm_cache_identical_and_no_calls(self, tmp_path):
        main(toy_args("mine-words", tmp_path))
        lexicon = run_dir(tmp_path) / "lexicon.tsv"
        first = lexicon.read_bytes()
        # fresh output dir, same cache: stage reruns fully from cache
        rc = main([
            "mine-words", "--config", str(TOY_INI),
            "--output-dir", str(tmp_path / "out2"),
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert rc == 0
        second = next((tmp_path / "out2").glob("run-*")) / "lexicon.tsv"
        assert second.read_bytes() == first

        config = load_config(
            TOY_INI,
            {"output_dir": str(tmp_path / "out3"),
             "cache_dir": str(tmp_path / "cache")},
        )
        pipeline = Pipeline(config)
        pipeline.mine_words()
        assert pipeline.llm.backend.call_count == 0


class TestMineSentences:
    def test_auto_runs_word_stage_first(self, tmp_path, capsys):
        rc = main(toy_args("mine-sentences", tmp_path))
        assert rc == 0
        out = capsys.readouterr().out
        assert "pool:" in out
        pool_lines = (run_dir(tmp_path) / "pool.jsonl").read_text(
            encoding="utf-8"
        ).splitlines()
        mono_lines = (TOY / "mono.zor.txt").read_text(encoding="utf-8").splitlines()
        assert len(pool_lines) <= len(mono_lines)

    def test_changed_tau_reuses_cached_generations(self, tmp_path):
        assert main(toy_args("mine-sentences", tmp_path)) == 0
        config = load_config(
            TOY_INI,
            {"output_dir": str(tmp_path / "out"),
             "cache_dir": str(tmp_path / "cache"),
             "tau": 0.5},
        )
        pipeline = Pipeline(config)
        with RunLock(pipeline.run_dir):
            pipeline.mine_sentences()
        # tau only affects selection, so all generations came from the cache
        assert pipeline.llm.backend.call_count == 0
        manifest = json.loads(
            (pipeline.run_dir / "pool.jsonl.manifest.json").read_text()
        )
        assert manifest["constants"]["tau"] == 0.5


class TestTranslate:
    def test_policy_flag_restricts_runs(self, tmp_path):
        rc = main(toy_args("run-all", tmp_path, "--policy", "zero_shot"))
        assert rc == 0
        hyps = sorted(p.name for p in run_dir(tmp_path).glob("hyp.*.txt"))
        assert hyps == ["hyp.zero_shot.txt"]
        # zero-shot reads no mined artifact, so none is mined
        assert not (run_dir(tmp_path) / "lexicon.tsv").exists()
        assert not (run_dir(tmp_path) / "pool.jsonl").exists()

    def test_zero_shot_prompts_have_no_examples(self, tmp_path):
        from icl_miner.prompts import sentence_translation_prompt

        rc = main(toy_args("run-all", tmp_path, "--policy", "zero_shot"))
        assert rc == 0
        fixtured_prompts = {
            json.loads(line)["prompt"]
            for line in (TOY / "llm_fixture.jsonl").read_text(
                encoding="utf-8"
            ).splitlines()
        }
        # the exact example-free prompt for each test sentence was issued
        for sentence in (TOY / "test.ava.txt").read_text(
            encoding="utf-8"
        ).splitlines():
            prompt = sentence_translation_prompt(sentence, "Avalian", "Zorvan", [])
            assert prompt.count("Avalian: ") == 1
            assert prompt in fixtured_prompts

    def test_uw2w_equals_w2w_over_test_set(self, tmp_path):
        rc = main(toy_args("run-all", tmp_path, "--policy", "uw2w"))
        assert rc == 0
        hyp_lines = (run_dir(tmp_path) / "hyp.uw2w.txt").read_text(
            encoding="utf-8"
        ).splitlines()
        w2w_records = [
            json.loads(line)
            for line in (run_dir(tmp_path) / "w2w.jsonl").read_text(
                encoding="utf-8"
            ).splitlines()
        ]
        assert hyp_lines == [record["w2w"] for record in w2w_records]

    def test_audit_log_indices_within_pool(self, tmp_path):
        main(toy_args("run-all", tmp_path, "--policy", "topk_bm25"))
        pool_size = len(
            (run_dir(tmp_path) / "pool.jsonl").read_text(encoding="utf-8").splitlines()
        )
        audit_lines = (run_dir(tmp_path) / "audit.topk_bm25.jsonl").read_text(
            encoding="utf-8"
        ).splitlines()
        test_lines = (TOY / "test.ava.txt").read_text(encoding="utf-8").splitlines()
        assert len(audit_lines) == len(test_lines)
        for line in audit_lines:
            record = json.loads(line)
            assert record["policy"] == "topk_bm25"
            assert all(0 <= i < pool_size for i in record["selected"])
            assert len(record["bm25_scores"]) == len(record["selected"])

    def test_hypothesis_count_matches_test_set(self, tmp_path):
        main(toy_args("run-all", tmp_path, "--policy", "random"))
        hyp_lines = (run_dir(tmp_path) / "hyp.random.txt").read_text(
            encoding="utf-8"
        ).splitlines()
        test_lines = (TOY / "test.ava.txt").read_text(encoding="utf-8").splitlines()
        assert len(hyp_lines) == len(test_lines)


    @pytest.mark.parametrize(
        "command, policy", [("translate", "gold_kshot"), ("run-all", "gold_bm25")]
    )
    def test_gold_policy_without_gold_paths_is_2(
        self, tmp_path, capsys, command, policy
    ):
        # the toy config minus its gold lines and policy list, paths made absolute
        lines = []
        for line in TOY_INI.read_text(encoding="utf-8").splitlines():
            key, _, value = (part.strip() for part in line.partition("="))
            if key.startswith("gold_dev") or key == "policies":
                continue
            lines.append(f"{key} = {TOY / value}" if (TOY / value).is_file() else line)
        config = tmp_path / "no-gold.ini"
        config.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rc = main([command, "--config", str(config), "--policy", policy,
                   "--output-dir", str(tmp_path / "out"),
                   "--cache-dir", str(tmp_path / "cache")])
        assert rc == 2
        assert "paths.gold_dev_source" in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("run-*/*.tsv"))  # no stage ran


class TestResume:
    def test_completed_stage_not_rewritten(self, tmp_path):
        main(toy_args("mine-words", tmp_path))
        lexicon = run_dir(tmp_path) / "lexicon.tsv"
        stamp = lexicon.stat().st_mtime_ns
        rc = main(toy_args("run-all", tmp_path, "--policy", "uw2w"))
        assert rc == 0
        assert lexicon.stat().st_mtime_ns == stamp  # stage was skipped

    def test_corrupted_artifact_triggers_rerun(self, tmp_path):
        main(toy_args("mine-words", tmp_path))
        lexicon = run_dir(tmp_path) / "lexicon.tsv"
        original = lexicon.read_bytes()
        lexicon.write_bytes(b"source_word\ttarget_word\tsimilarity\tprovenance\nx\ty\t\tzero_shot\n")
        main(toy_args("mine-words", tmp_path))
        assert lexicon.read_bytes() == original


class TestRunLock:
    def test_second_owner_rejected(self, tmp_path):
        config = load_config(
            TOY_INI,
            {"output_dir": str(tmp_path / "out"), "cache_dir": str(tmp_path / "c")},
        )
        pipeline = Pipeline(config)
        with RunLock(pipeline.run_dir):
            with pytest.raises(ConfigError, match=f"locked by process {os.getpid()}"):
                with RunLock(pipeline.run_dir):
                    pass
        assert not (pipeline.run_dir / ".lock").exists()

    def test_lock_of_exited_process_reclaimed(self, tmp_path):
        config = load_config(
            TOY_INI,
            {"output_dir": str(tmp_path / "out"), "cache_dir": str(tmp_path / "c")},
        )
        pipeline = Pipeline(config)
        lock = pipeline.run_dir / ".lock"
        # the child takes the lock and is killed while it holds it
        script = (
            "import os, sys\n"
            "from pathlib import Path\n"
            "from icl_miner.pipeline import RunLock\n"
            "RunLock(Path(sys.argv[1])).__enter__()\n"
            "os._exit(137)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(TOY.parent.parent / "src")}
        child = subprocess.Popen(
            [sys.executable, "-c", script, str(pipeline.run_dir)], env=env
        )
        assert child.wait(timeout=60) == 137
        assert lock.read_text() == str(child.pid)  # as a killed run leaves it
        with RunLock(pipeline.run_dir):
            assert lock.read_text() == str(os.getpid())
        assert not lock.exists()

    def test_forked_worker_does_not_keep_lock(self, tmp_path):
        config = load_config(
            TOY_INI,
            {"output_dir": str(tmp_path / "out"), "cache_dir": str(tmp_path / "c")},
        )
        pipeline = Pipeline(config)
        # the child takes the lock, forks a scoring worker as run_all does,
        # and is killed; the orphaned worker stays alive, blocked on its queue
        script = (
            "import multiprocessing, os, sys\n"
            "from concurrent.futures import ProcessPoolExecutor\n"
            "from pathlib import Path\n"
            "from icl_miner.pipeline import RunLock\n"
            "RunLock(Path(sys.argv[1])).__enter__()\n"
            "pool = ProcessPoolExecutor(1, mp_context=multiprocessing.get_context('fork'))\n"
            "print(pool.submit(os.getpid).result(), flush=True)\n"
            "os._exit(137)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(TOY.parent.parent / "src")}
        child = subprocess.Popen(
            [sys.executable, "-c", script, str(pipeline.run_dir)],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        with child.stdout:
            worker = int(child.stdout.readline())
        try:
            assert child.wait(timeout=60) == 137
            os.kill(worker, 0)  # still alive
            with RunLock(pipeline.run_dir):
                assert (pipeline.run_dir / ".lock").read_text() == str(os.getpid())
        finally:
            os.kill(worker, signal.SIGKILL)

    def test_forked_child_leaving_lock_keeps_it(self, tmp_path):
        config = load_config(
            TOY_INI,
            {"output_dir": str(tmp_path / "out"), "cache_dir": str(tmp_path / "c")},
        )
        pipeline = Pipeline(config)
        with RunLock(pipeline.run_dir) as held:
            pid = os.fork()
            if pid == 0:
                try:
                    held.__exit__(None, None, None)
                finally:
                    os._exit(0)
            assert os.waitpid(pid, 0)[1] == 0
            assert (pipeline.run_dir / ".lock").read_text() == str(os.getpid())
            with pytest.raises(ConfigError, match="locked"):
                with RunLock(pipeline.run_dir):
                    pass
        assert not (pipeline.run_dir / ".lock").exists()

    def test_unheld_lock_file_taken_over(self, tmp_path):
        config = load_config(
            TOY_INI,
            {"output_dir": str(tmp_path / "out"), "cache_dir": str(tmp_path / "c")},
        )
        pipeline = Pipeline(config)
        lock = pipeline.run_dir / ".lock"
        lock.parent.mkdir(parents=True)
        for content in ("", "not a pid", "0", "1", str(os.getpid()), "9" * 40):
            lock.write_text(content)
            with RunLock(pipeline.run_dir):
                assert lock.read_text() == str(os.getpid())
            assert not lock.exists()

    def test_lock_file_unlinked_by_previous_owner_opened_again(
        self, tmp_path, monkeypatch
    ):
        config = load_config(
            TOY_INI,
            {"output_dir": str(tmp_path / "out"), "cache_dir": str(tmp_path / "c")},
        )
        pipeline = Pipeline(config)
        first = RunLock(pipeline.run_dir).__enter__()
        flock, locked = fcntl.flock, []

        def owner_exits_first(fd, operation):
            if not locked:  # between the next owner's open and its flock
                first.__exit__(None, None, None)
            locked.append(fd)
            return flock(fd, operation)

        monkeypatch.setattr(fcntl, "flock", owner_exits_first)
        with RunLock(pipeline.run_dir):
            assert len(locked) == 2  # the unlinked file, then the new one
            monkeypatch.setattr(fcntl, "flock", flock)
            with pytest.raises(ConfigError, match="locked"):
                with RunLock(pipeline.run_dir):
                    pass

    def test_lock_released_after_exit(self, tmp_path):
        config = load_config(
            TOY_INI,
            {"output_dir": str(tmp_path / "out"), "cache_dir": str(tmp_path / "c")},
        )
        pipeline = Pipeline(config)
        with RunLock(pipeline.run_dir):
            pass
        with RunLock(pipeline.run_dir):
            pass  # no error: first lock was released
