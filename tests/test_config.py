from __future__ import annotations

import re
from dataclasses import fields

import pytest

from icl_miner.config import PipelineConfig, load_config
from icl_miner.errors import ConfigError


MINIMAL = {
    "languages": {"source": "ava_Latn", "target": "zor_Latn"},
    "paths": {
        "source_vocab": "vocab.a", "target_vocab": "vocab.b", "unlabeled": "mono",
        "test_source": "test.a", "test_target": "test.b",
    },
    "backend": {"kind": "mock", "llm_fixture": "llm.jsonl"},
}


def minimal_ini(tmp_path, **extra_sections):
    """A valid config; each extra `key = value` line sets or replaces a key."""
    for name in ("vocab.a", "vocab.b", "mono", "test.a", "test.b", "llm.jsonl"):
        (tmp_path / name).write_text("word\n", encoding="utf-8")
    sections = {name: dict(options) for name, options in MINIMAL.items()}
    for section, lines in extra_sections.items():
        for line in lines:
            key, value = (part.strip() for part in line.split("=", 1))
            sections.setdefault(section, {})[key] = value
    path = tmp_path / "config.ini"
    path.write_text("\n".join(
        f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in options.items())
        for section, options in sections.items()
    ), encoding="utf-8")
    return path


# every field that declares an INI key, with its metadata
DECLARED = [f for f in fields(PipelineConfig) if f.name != "raw_semantic"]


def bound_cases():
    """(field, INI value at the limit, INI value just past it) per bound."""
    for f in DECLARED:
        meta, step = f.metadata, 1 if f.type == "int" else 0.01
        if meta["least"] is not None:
            yield f, meta["least"], meta["least"] - step
        if meta["most"] is not None:
            yield f, meta["most"], meta["most"] + step
        if meta["above"] is not None:
            yield f, meta["above"] + step, meta["above"]


class TestDefaults:
    def test_fresh_config_has_published_constants(self):
        config = PipelineConfig()
        assert config.n == 10
        assert config.k_wp == 10
        assert config.k == 8
        assert config.tau == 0.90
        assert config.fallback_m == 20
        assert config.iterations == 1


class TestFieldDeclarations:
    def test_every_field_declares_a_unique_key(self):
        keys = [f.metadata["key"] for f in DECLARED]
        assert len(set(keys)) == len(keys) == len(fields(PipelineConfig)) - 1
        assert {key.split(".")[0] for key in keys} == {
            "languages", "paths", "backend", "mining", "prompts", "metrics", "run"
        }

    def test_spelled_out_defaults_load_as_defaults(self, tmp_path):
        spelled = [f for f in DECLARED if not f.metadata["path"]]
        lines: dict = {}
        for f in spelled:
            section, key = f.metadata["key"].split(".")
            value = ",".join(f.default) if isinstance(f.default, tuple) else f.default
            lines.setdefault(section, []).append(f"{key} = {value}")
        config, fresh = load_config(minimal_ini(tmp_path, **lines)), PipelineConfig()
        for f in spelled:
            assert getattr(config, f.name) == getattr(fresh, f.name), f.name

    @pytest.mark.parametrize(
        "f, limit, past", list(bound_cases()),
        ids=lambda value: getattr(value, "name", None),
    )
    def test_bound_accepts_limit_and_rejects_past_it(self, tmp_path, f, limit, past):
        section, key = f.metadata["key"].split(".")
        # k = 1 lets mining.fallback_m reach its own limit of 1
        extra = ["k = 1"] if section == "mining" else []

        def loaded(value):
            lines = [*extra, f"{key} = {value}"]
            return load_config(minimal_ini(tmp_path, **{section: lines}))

        loaded(limit).validate()
        for value in (past, "nan") if f.type == "float" else (past,):
            config = loaded(value)
            got = re.escape(f"(got {getattr(config, f.name)})")
            with pytest.raises(
                ConfigError, match=rf"{re.escape(f.metadata['key'])} .*{got}"
            ):
                config.validate()

    @pytest.mark.parametrize(
        "f", [f for f in DECLARED if f.metadata["choices"]], ids=lambda f: f.name
    )
    def test_choice_rejects_unknown_value(self, tmp_path, f):
        section, key = f.metadata["key"].split(".")
        config = load_config(minimal_ini(tmp_path, **{section: [f"{key} = bogus"]}))
        with pytest.raises(
            ConfigError, match=rf"{re.escape(f.metadata['key'])} .*'bogus'"
        ):
            config.validate()


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

    def test_unknown_section_rejected(self, tmp_path):
        # a misspelled section used to be skipped, leaving k at its default
        path = minimal_ini(tmp_path, minning=["k = 4"])
        with pytest.raises(ConfigError, match=r"unknown config key \[minning\] k"):
            load_config(path)

    def test_http_embedder_needs_a_url(self, tmp_path):
        config = load_config(minimal_ini(tmp_path, backend=["embedding = http"]))
        with pytest.raises(ConfigError, match="backend.embedding_base_url"):
            config.validate()
        for url in ("embedding_base_url", "base_url"):
            load_config(minimal_ini(
                tmp_path, backend=["embedding = http", f"{url} = http://localhost:1"]
            )).validate()

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
