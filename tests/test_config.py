from __future__ import annotations

import pytest

from icl_miner.config import DEFAULTS, PipelineConfig, load_config
from icl_miner.errors import ConfigError


def minimal_ini(tmp_path, **extra_sections):
    for name in ("vocab.a", "vocab.b", "mono", "test.a", "test.b", "llm.jsonl"):
        (tmp_path / name).write_text("word\n", encoding="utf-8")
    content = """\
[languages]
source = ava_Latn
target = zor_Latn

[paths]
source_vocab = vocab.a
target_vocab = vocab.b
unlabeled = mono
test_source = test.a
test_target = test.b

[backend]
kind = mock
llm_fixture = llm.jsonl
"""
    for section, lines in extra_sections.items():
        content += f"\n[{section}]\n" + "\n".join(lines) + "\n"
    path = tmp_path / "config.ini"
    path.write_text(content, encoding="utf-8")
    return path


class TestDefaults:
    def test_fresh_config_has_published_constants(self):
        config = PipelineConfig()
        assert config.n == 10
        assert config.k_wp == 10
        assert config.k == 8
        assert config.tau == 0.90
        assert config.fallback_m == 20
        assert config.iterations == 1

    def test_defaults_table_matches_dataclass(self):
        config = PipelineConfig()
        for name, value in DEFAULTS.items():
            assert getattr(config, name) == value


class TestLoadConfig:
    def test_minimal_file_loads_and_validates(self, tmp_path):
        config = load_config(minimal_ini(tmp_path))
        config.validate()
        assert config.source_code == "ava_Latn"
        assert config.iterations == 1

    def test_relative_paths_resolved_against_config_dir(self, tmp_path):
        config = load_config(minimal_ini(tmp_path))
        assert config.source_vocab == str(tmp_path / "vocab.a")

    def test_subword_vocab_resolved_against_config_dir(self, tmp_path, monkeypatch):
        conf = tmp_path / "conf"
        conf.mkdir()
        (conf / "pieces.txt").write_text("ak\nlu\n", encoding="utf-8")
        path = minimal_ini(conf, metrics=["bleu_tokenizer = subword:pieces.txt"])
        monkeypatch.chdir(conf)
        at_conf = load_config(path)
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        config = load_config(path)
        config.validate()
        assert config.bleu_tokenizer == f"subword:{conf / 'pieces.txt'}"
        # the run hash keeps the value as written
        assert config.semantic_dict()["bleu_tokenizer"] == "subword:pieces.txt"
        assert config.run_hash() == at_conf.run_hash()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.ini")

    def test_unknown_key_rejected(self, tmp_path):
        path = minimal_ini(tmp_path, mining=["bogus = 1"])
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(path)

    def test_type_errors_reported(self, tmp_path):
        path = minimal_ini(tmp_path, mining=["k = eight"])
        with pytest.raises(ConfigError, match="must be an integer"):
            load_config(path)

    def test_overrides_apply(self, tmp_path):
        config = load_config(minimal_ini(tmp_path), {"seed": 7, "cache_dir": "/x"})
        assert config.seed == 7
        assert config.cache_dir == "/x"

    def test_missing_vocab_path_names_field(self, tmp_path):
        path = minimal_ini(tmp_path)
        (tmp_path / "vocab.a").unlink()
        config = load_config(path)
        with pytest.raises(ConfigError, match="paths.source_vocab"):
            config.validate()

    def test_constants_validated(self, tmp_path):
        config = load_config(minimal_ini(tmp_path, mining=["tau = 1.5"]))
        with pytest.raises(ConfigError, match="tau"):
            config.validate()

    def test_fallback_must_cover_k(self, tmp_path):
        config = load_config(minimal_ini(tmp_path, mining=["k = 8", "fallback_m = 4"]))
        with pytest.raises(ConfigError, match="fallback_m"):
            config.validate()

    def test_bm25_params_validated(self, tmp_path):
        for line, field in (("bm25_k1 = -0.1", "bm25_k1"), ("bm25_b = 1.5", "bm25_b"),
                            ("bm25_b = -0.1", "bm25_b")):
            config = load_config(minimal_ini(tmp_path, mining=[line]))
            with pytest.raises(ConfigError, match=field):
                config.validate()
        for line in ("bm25_k1 = 0", "bm25_b = 0", "bm25_b = 1"):
            load_config(minimal_ini(tmp_path, mining=[line])).validate()

    def test_mining_constants_validated(self, tmp_path):
        # the one check of n and k_wp; MiningConfig does not repeat it
        for line, field in (("n = 0", "mining.n"), ("k_wp = 0", "mining.k_wp")):
            config = load_config(minimal_ini(tmp_path, mining=[line]))
            with pytest.raises(ConfigError, match=field):
                config.validate()

    def test_gold_policy_needs_gold_paths(self, tmp_path):
        config = load_config(minimal_ini(tmp_path, run=["policies = gold_kshot"]))
        with pytest.raises(ConfigError, match="gold"):
            config.validate()

    def test_unknown_policy_rejected(self, tmp_path):
        config = load_config(minimal_ini(tmp_path, run=["policies = nearest"]))
        with pytest.raises(ConfigError, match="unknown policy"):
            config.validate()

    def test_policy_outside_config_checked_against_paths(self, tmp_path):
        config = load_config(minimal_ini(tmp_path))
        config.validate()
        assert config.policy("topk_bm25").selector == "top_k_bm25"
        with pytest.raises(ConfigError, match="paths.gold_dev_source"):
            config.policy("gold_bm25")
        with pytest.raises(ConfigError, match="unknown policy"):
            config.policy("nearest")


class TestRunHash:
    def test_plumbing_fields_do_not_change_hash(self, tmp_path):
        base = load_config(minimal_ini(tmp_path))
        moved = load_config(
            minimal_ini(tmp_path), {"output_dir": "/elsewhere", "cache_dir": "/c",
                                    "concurrency": 9}
        )
        assert base.run_hash() == moved.run_hash()

    def test_semantic_fields_change_hash(self, tmp_path):
        base = load_config(minimal_ini(tmp_path))
        reseeded = load_config(minimal_ini(tmp_path), {"seed": 99})
        assert base.run_hash() != reseeded.run_hash()

    def test_hash_stable_across_config_location(self, tmp_path):
        # same declared (relative) paths, different absolute location
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        a_dir.mkdir()
        b_dir.mkdir()
        config_a = load_config(minimal_ini(a_dir))
        config_b = load_config(minimal_ini(b_dir))
        assert config_a.run_hash() == config_b.run_hash()

    def test_effective_policies_default(self, tmp_path):
        config = load_config(minimal_ini(tmp_path))
        assert config.effective_policies() == (
            "zero_shot", "uw2w", "random", "topk", "topk_bm25"
        )
        config.gold_dev_source = config.gold_dev_target = str(tmp_path / "mono")
        assert config.effective_policies()[-2:] == ("gold_kshot", "gold_bm25")
