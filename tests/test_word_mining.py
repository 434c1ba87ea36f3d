from __future__ import annotations

import json
import random

import pytest

from icl_miner.backends import MockLLMBackend
from icl_miner.corpus import LanguageSpec, Vocabulary
from icl_miner.errors import BackendError, DataError
from icl_miner.prompts import Translator, word_translation_prompt
from icl_miner.word_mining import (
    K_SHOT,
    ZERO_SHOT,
    MiningConfig,
    WordPair,
    consistency_filter,
    mine_backward,
    mine_forward,
    mine_lexicon,
    rank_and_select,
    read_lexicon,
    write_lexicon,
)

from conftest import behind_cache, trigram_scorer

AVA = LanguageSpec(code="ava_Latn", display_name="Avalian")
ZOR = LanguageSpec(code="zor_Latn", display_name="Zorvan")


def vocab(words):
    return Vocabulary(words=tuple(words))


def ava_to_zor(llm, tmp_path):
    return Translator(behind_cache(llm, tmp_path), AVA, ZOR)


def fixture_backend(tmp_path, mapping, shots_fwd=(), shots_bwd=()):
    """Build a mock fixture covering forward and backward word prompts.

    mapping: source word -> list of (completion, score) for the forward
    direction plus target word -> list for the backward direction, each
    under the shots given; a direction of "fwd0" or "bwd0" is zero-shot.
    """
    records = []
    for (word, direction), completions in mapping.items():
        forward = direction.startswith("fwd")
        shots = () if direction.endswith("0") else (shots_fwd if forward else shots_bwd)
        src, trg = (AVA, ZOR) if forward else (ZOR, AVA)
        prompt = word_translation_prompt(word, src.display_name, trg.display_name, shots)
        records.append(
            {
                "prompt": prompt,
                "completions": [
                    {"text": text, "score": score} for text, score in completions
                ],
            }
        )
    path = tmp_path / "wm.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
    return MockLLMBackend(path)


class TestMineForward:
    def test_vocabulary_filter_hand_trace(self, tmp_path):
        # fixture returns [cat, car, gato]; only cat and car are in V_t
        llm = fixture_backend(
            tmp_path,
            {("gato", "fwd"): [("cat", -1.0), ("car", -2.0), ("gato", -3.0)]},
        )
        pool = mine_forward(
            vocab(["gato"]), vocab(["cat", "car"]), MiningConfig(n=3),
            ava_to_zor(llm, tmp_path),
        )
        assert pool == {"gato": (("cat", -1.0), ("car", -2.0))}

    def test_word_with_no_surviving_candidates_absent(self, tmp_path):
        llm = fixture_backend(
            tmp_path,
            {
                ("gato", "fwd"): [("cat", -1.0)],
                ("perro", "fwd"): [("nope", -1.0)],
            },
        )
        pool = mine_forward(
            vocab(["gato", "perro"]), vocab(["cat"]), MiningConfig(n=1),
            ava_to_zor(llm, tmp_path),
        )
        assert "perro" not in pool
        assert "gato" in pool

    def test_pool_bounded_by_n_per_word(self, tmp_path):
        completions = [(f"t{i}", -float(i)) for i in range(10)]
        llm = fixture_backend(tmp_path, {("w", "fwd"): completions})
        pool = mine_forward(
            vocab(["w"]),
            vocab([f"t{i}" for i in range(10)]),
            MiningConfig(n=4),
            ava_to_zor(llm, tmp_path),
        )
        assert len(pool["w"]) <= 4

    def test_duplicate_completions_collapse_to_best(self, tmp_path):
        llm = fixture_backend(
            tmp_path,
            {("w", "fwd"): [("cat", -1.0), ("CAT", -2.0), ("cat", -3.0)]},
        )
        pool = mine_forward(
            vocab(["w"]), vocab(["cat"]), MiningConfig(n=3), ava_to_zor(llm, tmp_path)
        )
        assert pool["w"] == (("cat", -1.0),)

    def test_majority_failures_abort(self, tmp_path):
        llm = fixture_backend(tmp_path, {("a", "fwd"): [("cat", -1.0)]})
        with pytest.raises(BackendError, match="aborting"):
            mine_forward(
                vocab(["a", "b", "c"]), vocab(["cat"]),
                MiningConfig(n=1), ava_to_zor(llm, tmp_path),
            )

    def test_minority_failures_tolerated(self, tmp_path):
        llm = fixture_backend(
            tmp_path,
            {("a", "fwd"): [("cat", -1.0)], ("b", "fwd"): [("car", -1.0)]},
        )
        pool = mine_forward(
            vocab(["a", "b", "c"]), vocab(["cat", "car"]),
            MiningConfig(n=1), ava_to_zor(llm, tmp_path),
        )
        assert set(pool) == {"a", "b"}


class TestMineBackward:
    def test_hand_trace(self, tmp_path):
        llm = fixture_backend(
            tmp_path,
            {
                ("cat", "bwd"): [("gato", -1.0)],
                ("car", "bwd"): [("coche", -1.0)],
            },
        )
        forward = {"gato": (("cat", -1.0),), "auto": (("car", -1.5),)}
        backward = mine_backward(
            forward, vocab(["gato", "coche", "auto"]), ava_to_zor(llm, tmp_path)
        )
        assert backward == {
            "cat": (("gato", -1.0),),
            "car": (("coche", -1.0),),
        }

    def test_back_translation_outside_vocab_dropped(self, tmp_path):
        llm = fixture_backend(tmp_path, {("cat", "bwd"): [("unknown", -1.0)]})
        forward = {"gato": (("cat", -1.0),)}
        backward = mine_backward(forward, vocab(["gato"]), ava_to_zor(llm, tmp_path))
        assert backward == {}

    def test_duplicate_targets_translated_once(self, tmp_path, llm_calls):
        llm = fixture_backend(tmp_path, {("cat", "bwd"): [("gato", -1.0)]})
        forward = {"gato": (("cat", -1.0),), "minino": (("cat", -2.0),)}
        mine_backward(forward, vocab(["gato", "minino"]), ava_to_zor(llm, tmp_path))
        assert len(llm_calls) == 1


class TestConsistencyFilter:
    def test_round_trip_kept(self):
        pairs = consistency_filter(
            {"gato": (("cat", -1.0),)}, {"cat": (("gato", -1.0),)}
        )
        assert [(p.source_word, p.target_word) for p in pairs] == [("gato", "cat")]

    def test_broken_round_trip_dropped(self):
        pairs = consistency_filter(
            {"gato": (("car", -1.0),)}, {"car": (("coche", -1.0),)}
        )
        assert pairs == []

    def test_matches_cross_product_oracle(self):
        rng = random.Random(42)
        src_words = [f"s{i}" for i in range(50)]
        trg_words = [f"t{i}" for i in range(50)]
        for _ in range(30):
            fwd_entries = {
                w: tuple(
                    (rng.choice(trg_words), -float(j))
                    for j in range(rng.randint(0, 4))
                )
                for w in rng.sample(src_words, rng.randint(1, 20))
            }
            fwd_entries = {w: c for w, c in fwd_entries.items() if c}
            bwd_entries = {
                t: ((rng.choice(src_words), -1.0),)
                for t in rng.sample(trg_words, rng.randint(1, 30))
            }
            got = consistency_filter(fwd_entries, bwd_entries)
            expected = {
                (s, t)
                for s, candidates in fwd_entries.items()
                for t, _ in candidates
                if any(b == s for b, _ in bwd_entries.get(t, ()))
            }
            assert {(p.source_word, p.target_word) for p in got} == expected

    def test_monotone_in_backward_pool(self):
        fwd = {"a": (("x", -1.0),), "b": (("y", -1.0),)}
        full_bwd = {"x": (("a", -1.0),), "y": (("b", -1.0),)}
        smaller_bwd = {"x": (("a", -1.0),)}
        full = consistency_filter(fwd, full_bwd)
        small = consistency_filter(fwd, smaller_bwd)
        assert {(p.source_word, p.target_word) for p in small} <= {
            (p.source_word, p.target_word) for p in full
        }


class FixedScorer:
    """Similarity lookup table standing in for the embedding scorer."""

    def __init__(self, table):
        self.table = table

    def sim(self, x, y):
        return self.table[(x, y)]

    def sims(self, pairs):
        return [self.sim(x, y) for x, y in pairs]


class TestRankAndSelect:
    def test_sorts_and_truncates(self):
        pairs = [WordPair("a", "x"), WordPair("b", "y"), WordPair("c", "z")]
        scorer = FixedScorer({("a", "x"): 0.9, ("b", "y"): 0.5, ("c", "z"): 0.7})
        out = rank_and_select(pairs, scorer, k_wp=2)
        assert [(p.source_word, p.similarity) for p in out] == [("a", 0.9), ("c", 0.7)]

    def test_ties_keep_input_order(self):
        pairs = [WordPair("freq1", "x"), WordPair("freq2", "y")]
        scorer = FixedScorer({("freq1", "x"): 0.5, ("freq2", "y"): 0.5})
        out = rank_and_select(pairs, scorer, k_wp=2)
        assert [p.source_word for p in out] == ["freq1", "freq2"]

    def test_fewer_than_k_returns_all(self):
        pairs = [WordPair("a", "x")]
        out = rank_and_select(pairs, FixedScorer({("a", "x"): 0.1}), k_wp=10)
        assert len(out) == 1

    def test_matches_bruteforce_sort_oracle(self):
        rng = random.Random(7)
        for _ in range(25):
            pairs = [WordPair(f"s{i}", f"t{i}") for i in range(rng.randint(1, 40))]
            table = {
                (p.source_word, p.target_word): rng.choice([0.1, 0.3, 0.5, 0.7])
                for p in pairs
            }
            k_wp = rng.randint(1, len(pairs))
            got = rank_and_select(pairs, FixedScorer(table), k_wp)
            annotated = [
                (table[(p.source_word, p.target_word)], i, p)
                for i, p in enumerate(pairs)
            ]
            annotated.sort(key=lambda item: (-item[0], item[1]))
            expected = [p.source_word for _, _, p in annotated[:k_wp]]
            assert [p.source_word for p in got] == expected

    def test_empty_input_rejected(self):
        with pytest.raises(DataError):
            rank_and_select([], FixedScorer({}), 5)


# gato <-> cat, zero-shot and with gato/cat as the shot
ROUND_TRIP = {
    ("gato", "fwd0"): [("cat", -1.0)],
    ("cat", "bwd0"): [("gato", -1.0)],
    ("gato", "fwd"): [("cat", -1.0)],
    ("cat", "bwd"): [("gato", -1.0)],
}


class TestRefineKshot:
    def test_fixed_point_when_backend_unchanged(self, tmp_path, llm_calls):
        llm = fixture_backend(
            tmp_path, ROUND_TRIP, shots_fwd=[("gato", "cat")], shots_bwd=[("cat", "gato")]
        )
        scorer = trigram_scorer(tmp_path)
        refined = mine_lexicon(
            vocab(["gato"]), vocab(["cat"]),
            MiningConfig(n=1, k_wp=1), ava_to_zor(llm, tmp_path), scorer,
        )
        assert [(p.source_word, p.target_word) for p in refined] == [("gato", "cat")]
        assert all(p.provenance == K_SHOT for p in refined)
        assert len(llm_calls) == 4  # each word once per round and direction

    def test_seed_pair_rendered_in_prompt(self):
        prompt = word_translation_prompt(
            "perro", AVA.display_name, ZOR.display_name, [("gato", "cat")]
        )
        assert "Avalian: gato" in prompt
        assert "Zorvan: cat" in prompt
        assert prompt.endswith("Avalian: perro\nZorvan:")

    def test_refined_size_bounded_by_k_wp(self, tmp_path):
        llm = fixture_backend(
            tmp_path, ROUND_TRIP, shots_fwd=[("gato", "cat")], shots_bwd=[("cat", "gato")]
        )
        scorer = trigram_scorer(tmp_path)
        refined = mine_lexicon(
            vocab(["gato"]), vocab(["cat"]),
            MiningConfig(n=1, k_wp=10), ava_to_zor(llm, tmp_path), scorer,
        )
        assert len(refined) <= 10


class TestMineLexicon:
    def test_empty_kshot_forward_pool_keeps_zero_shot_pairs(
        self, tmp_path, caplog, llm_calls
    ):
        # the k-shot round finds no target-vocabulary word for gato
        mapping = {**ROUND_TRIP, ("gato", "fwd"): [("nope", -1.0)]}
        del mapping[("cat", "bwd")]
        llm = fixture_backend(
            tmp_path, mapping, shots_fwd=[("gato", "cat")], shots_bwd=[("cat", "gato")]
        )
        scorer = trigram_scorer(tmp_path)
        pairs = mine_lexicon(
            vocab(["gato"]), vocab(["cat"]),
            MiningConfig(n=1, k_wp=1), ava_to_zor(llm, tmp_path), scorer,
        )
        assert [(p.source_word, p.target_word, p.provenance) for p in pairs] == [
            ("gato", "cat", ZERO_SHOT)
        ]
        assert pairs[0].similarity == scorer.sim("gato", "cat")
        assert "keeping seed pairs" in caplog.text
        assert len(llm_calls) == 3  # the empty pool sends no back-translation

    def test_no_zero_shot_pairs_is_an_error(self, tmp_path, llm_calls):
        llm = fixture_backend(
            tmp_path,
            {
                ("gato", "fwd0"): [("cat", -1.0)],
                ("perro", "fwd0"): [("nope", -1.0)],
                ("cat", "bwd0"): [("perro", -1.0)],
            },
        )
        with pytest.raises(DataError, match="no consistent pairs"):
            mine_lexicon(
                vocab(["gato", "perro"]), vocab(["cat"]),
                MiningConfig(n=1), ava_to_zor(llm, tmp_path),
                trigram_scorer(tmp_path),
            )
        assert len(llm_calls) == 3  # the zero-shot round's only: no k-shot round


class TestLexiconIO:
    def test_round_trip(self, tmp_path):
        pairs = [
            WordPair("gato", "cat", similarity=0.875, provenance=K_SHOT),
            WordPair("perro", "dog", similarity=0.5),
        ]
        path = tmp_path / "lex.tsv"
        write_lexicon(path, pairs)
        assert read_lexicon(path) == pairs

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("not\ta\tlexicon\tfile\n", encoding="utf-8")
        with pytest.raises(DataError):
            read_lexicon(path)


def test_word_pair_validation():
    with pytest.raises(DataError):
        WordPair("two words", "x")
    with pytest.raises(DataError):
        WordPair("x", "")
