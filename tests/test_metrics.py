from __future__ import annotations

import math
import random
import sys
import unicodedata
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from icl_miner import metrics
from icl_miner.errors import ConfigError, DataError
from icl_miner.metrics import (
    BleuConfig,
    ChrfConfig,
    SubwordTokenizer,
    bleu,
    chrf_pp,
    evaluate_corpus,
    _is_punct,
    normalize_text,
    resolve_tokenizer,
)

# ---------------------------------------------------------------------------
# brute-force oracles: one Counter per order and side, matches by Counter "&"
# ---------------------------------------------------------------------------


def oracle_punct_split_tokens(text: str) -> list[str]:
    out: list[str] = []
    for word in text.split():
        head: list[str] = []
        tail: list[str] = []
        while len(word) > 1 and unicodedata.category(word[0]).startswith("P"):
            head.append(word[0])
            word = word[1:]
        while len(word) > 1 and unicodedata.category(word[-1]).startswith("P"):
            tail.append(word[-1])
            word = word[:-1]
        out.extend(head)
        out.append(word)
        out.extend(reversed(tail))
    return out


def oracle_char_ngrams(text: str, n: int) -> Counter:
    squeezed = "".join(text.split())
    return Counter(squeezed[i : i + n] for i in range(len(squeezed) - n + 1))


def oracle_word_ngrams(text: str, n: int) -> Counter:
    toks = oracle_punct_split_tokens(text)
    return Counter(tuple(toks[i : i + n]) for i in range(len(toks) - n + 1))


def oracle_chrf_stats(hypotheses, references, config=ChrfConfig()) -> list:
    """Per order, char then word: hypothesis total, reference total and
    matches, one (hyp_total, ref_total, matched) triple per order."""
    orders = [("char", n) for n in range(1, config.char_ngram_max + 1)] + [
        ("word", n) for n in range(1, config.word_ngram_max + 1)
    ]
    stats = {order: [0, 0, 0] for order in orders}
    for hyp_raw, ref_raw in zip(hypotheses, references):
        hyp, ref = normalize_text(hyp_raw), normalize_text(ref_raw)
        for kind, n in orders:
            extract = oracle_char_ngrams if kind == "char" else oracle_word_ngrams
            hyp_grams = extract(hyp, n)
            ref_grams = extract(ref, n)
            entry = stats[(kind, n)]
            entry[0] += sum(hyp_grams.values())
            entry[1] += sum(ref_grams.values())
            entry[2] += sum((hyp_grams & ref_grams).values())
    return [stats[order] for order in orders]


def oracle_chrf_pp(hypotheses, references, config=ChrfConfig()) -> float:
    avg_precision = avg_recall = 0.0
    effective_orders = 0
    for hyp_total, ref_total, matched in oracle_chrf_stats(
        hypotheses, references, config
    ):
        if hyp_total > 0 and ref_total > 0:
            avg_precision += matched / hyp_total
            avg_recall += matched / ref_total
            effective_orders += 1
    if effective_orders == 0:
        return 0.0
    avg_precision /= effective_orders
    avg_recall /= effective_orders
    if avg_precision + avg_recall == 0.0:
        return 0.0
    beta_sq = config.beta * config.beta
    return 100.0 * (
        (1.0 + beta_sq)
        * avg_precision
        * avg_recall
        / (beta_sq * avg_precision + avg_recall)
    )


def oracle_bleu(hypotheses, references, config=BleuConfig()) -> float:
    tokenizer = resolve_tokenizer(config.tokenizer)
    max_n = config.max_ngram
    correct = [0] * max_n
    total = [0] * max_n
    hyp_len = ref_len = 0
    for hyp_raw, ref_raw in zip(hypotheses, references):
        hyp_toks = tokenizer(hyp_raw)
        ref_toks = tokenizer(ref_raw)
        hyp_len += len(hyp_toks)
        ref_len += len(ref_toks)
        for n in range(1, max_n + 1):
            hyp_grams = Counter(
                tuple(hyp_toks[i : i + n]) for i in range(len(hyp_toks) - n + 1)
            )
            ref_grams = Counter(
                tuple(ref_toks[i : i + n]) for i in range(len(ref_toks) - n + 1)
            )
            total[n - 1] += sum(hyp_grams.values())
            correct[n - 1] += sum((hyp_grams & ref_grams).values())
    log_precisions = []
    exp_smooth = 1.0
    for n in range(1, max_n + 1):
        if total[n - 1] == 0:
            continue
        if correct[n - 1] > 0:
            precision = correct[n - 1] / total[n - 1]
        elif config.smoothing == "epsilon":
            precision = config.epsilon / total[n - 1]
        elif config.smoothing == "exp":
            exp_smooth *= 2.0
            precision = 1.0 / (exp_smooth * total[n - 1])
        else:
            return 0.0
        log_precisions.append(math.log(precision))
    if not log_precisions or hyp_len == 0:
        return 0.0
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * math.exp(sum(log_precisions) / len(log_precisions))


# Golden values below were computed by a straight-from-definition oracle
# script before this module was implemented, then frozen.
CHRF_ABC_ABD = 29.166666666666668
BLEU_THE_CASE = 12.909944487358057


class TestChrfPP:
    def test_identical_corpora_score_100(self):
        text = ["The cat sat on the mat.", "Another sentence here."]
        assert chrf_pp(text, list(text)) == pytest.approx(100.0, abs=1e-9)

    def test_disjoint_scripts_score_0(self):
        assert chrf_pp(["abcdef"], ["уклмно"]) == 0.0

    def test_frozen_hand_case(self):
        assert chrf_pp(["abc"], ["abd"]) == pytest.approx(CHRF_ABC_ABD, abs=1e-6)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            chrf_pp(["a", "b"], ["a"])

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            chrf_pp([], [])

    def test_trailing_whitespace_invariance(self):
        base = chrf_pp(["the cat"], ["the cat sat"])
        padded = chrf_pp(["the cat   "], ["  the cat sat "])
        assert padded == base

    def test_pair_permutation_invariance(self):
        hyps = ["one two", "three four", "five"]
        refs = ["one two!", "three", "five six"]
        straight = chrf_pp(hyps, refs)
        shuffled = chrf_pp(
            [hyps[2], hyps[0], hyps[1]], [refs[2], refs[0], refs[1]]
        )
        assert shuffled == pytest.approx(straight, abs=1e-12)

    def test_range(self):
        value = chrf_pp(["partial match here"], ["partial miss there"])
        assert 0.0 < value < 100.0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ChrfConfig(char_ngram_max=0)
        with pytest.raises(ConfigError):
            ChrfConfig(beta=0.0)


class TestBleu:
    def test_identical_corpora_score_100(self):
        text = ["the cat sat on the mat", "short one"]
        assert bleu(text, list(text)) == pytest.approx(100.0, abs=1e-9)

    def test_empty_hypotheses_score_0(self):
        config = BleuConfig(smoothing="epsilon")
        assert bleu(["", ""], ["the cat", "a dog"], config) == 0.0

    def test_frozen_hand_case(self):
        config = BleuConfig(max_ngram=2, smoothing="epsilon")
        got = bleu(["the the the"], ["the cat"], config)
        assert got == pytest.approx(BLEU_THE_CASE, abs=1e-6)

    def test_unsmoothed_zero_precision_gives_0(self):
        config = BleuConfig(max_ngram=2, smoothing="none")
        assert bleu(["the the the"], ["the cat"], config) == 0.0

    def test_exp_smoothing_nonzero(self):
        config = BleuConfig(max_ngram=2, smoothing="exp")
        value = bleu(["the the the"], ["the cat"], config)
        assert 0.0 < value < 100.0

    def test_brevity_penalty_applies(self):
        long_ref = ["the big cat sat on the mat"]
        short_hyp = ["the big cat"]
        with_bp = bleu(short_hyp, long_ref, BleuConfig(max_ngram=1))
        assert with_bp < 100.0  # precision 1.0 but hypothesis is short

    def test_char_tokenizer_identity_scores_100(self):
        config = BleuConfig(tokenizer="char")
        assert bleu(["abcd"], ["abcd"], config) == pytest.approx(100.0, abs=1e-9)

    def test_not_100_when_different(self):
        assert bleu(["the cat sat"], ["the dog sat"]) < 100.0

    def test_pair_permutation_invariance(self):
        hyps = ["one two three", "four five", "six seven eight nine"]
        refs = ["one two four", "four six", "six seven nine nine"]
        straight = bleu(hyps, refs)
        rotated = bleu(hyps[1:] + hyps[:1], refs[1:] + refs[:1])
        assert rotated == pytest.approx(straight, abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            bleu(["a"], ["a", "b"])


class TestSubwordTokenizer:
    def test_greedy_longest_match(self, tmp_path):
        vocab = tmp_path / "pieces.txt"
        vocab.write_text("ab\nabc\nc\n", encoding="utf-8")
        tok = SubwordTokenizer(vocab)
        assert tok("abcab") == ["abc", "ab"]

    def test_uncovered_chars_become_singletons(self, tmp_path):
        vocab = tmp_path / "pieces.txt"
        vocab.write_text("lo\n", encoding="utf-8")
        tok = SubwordTokenizer(vocab)
        assert tok("xlo") == ["x", "lo"]

    def test_bleu_with_subword_tokenizer(self, tmp_path):
        vocab = tmp_path / "pieces.txt"
        vocab.write_text("the\ncat\nca\nt\n", encoding="utf-8")
        config = BleuConfig(tokenizer=f"subword:{vocab}")
        assert bleu(["the cat"], ["the cat"], config) == pytest.approx(100.0)

    def test_unknown_tokenizer_spec(self, tmp_path):
        with pytest.raises(ConfigError):
            resolve_tokenizer("bpe")
        with pytest.raises(ConfigError, match="unknown BLEU tokenizer"):
            BleuConfig(tokenizer="bpe")
        with pytest.raises(ConfigError, match="subword vocabulary not found"):
            BleuConfig(tokenizer=f"subword:{tmp_path / 'missing.txt'}")


class TestEvaluateCorpus:
    def test_identical_files_full_marks(self, tmp_path):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        for path in (hyp, ref):
            path.write_text("one two\nthree four\n", encoding="utf-8")
        report = evaluate_corpus(hyp, ref, "ava_Latn", "zor_Latn", system="test")
        assert report.chrf_pp == pytest.approx(100.0, abs=1e-9)
        assert report.bleu == pytest.approx(100.0, abs=1e-9)
        assert report.sentence_count == 2

    def test_report_row_format(self, tmp_path):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        for path in (hyp, ref):
            path.write_text("x y\n", encoding="utf-8")
        report = evaluate_corpus(hyp, ref, "ava_Latn", "zor_Latn", system="topk")
        row = report.row()
        assert "ava_Latn→zor_Latn" in row
        assert "100.00/100.00" in row

    def test_misaligned_files_rejected(self, tmp_path):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_text("a\nb\n", encoding="utf-8")
        ref.write_text("a\n", encoding="utf-8")
        with pytest.raises(DataError, match="alignment mismatch"):
            evaluate_corpus(hyp, ref, "ava_Latn", "zor_Latn")


SIMPLE_TEXT = st.lists(
    st.text(alphabet="abcdef gh", min_size=1, max_size=25).filter(str.strip),
    min_size=1,
    max_size=8,
)


@given(SIMPLE_TEXT)
def test_metrics_stay_in_range_and_identity(corpus):
    assert chrf_pp(corpus, list(corpus)) == pytest.approx(100.0, abs=1e-9)
    assert bleu(corpus, list(corpus)) == pytest.approx(100.0, abs=1e-9)


@given(SIMPLE_TEXT, SIMPLE_TEXT)
def test_metrics_bounded(hyps, refs):
    size = min(len(hyps), len(refs))
    hyps, refs = hyps[:size], refs[:size]
    assert 0.0 <= chrf_pp(hyps, refs) <= 100.0
    assert 0.0 <= bleu(hyps, refs) <= 100.0


def test_normalize_text_collapses_runs():
    assert normalize_text("  a\t b \n c ") == "a b c"


# ASCII and non-ASCII letters, digits (one Arabic-Indic), combining marks,
# punctuation (word-edge and word-internal once joined into words) and a tab
MIXED_ALPHABET = "abcXYZéßжд文12٣\u0301\u0308.,!?¿«»'-()"
MIXED_WORD = st.text(alphabet=MIXED_ALPHABET, min_size=1, max_size=6)
# lines drawn from a small lexicon, so words repeat within and across lines
MIXED_CORPUS = st.lists(MIXED_WORD, min_size=1, max_size=6).flatmap(
    lambda lexicon: st.lists(
        st.lists(st.sampled_from(lexicon), max_size=8).map(" \t".join),
        min_size=2,
        max_size=12,
    )
)


@given(
    MIXED_CORPUS,
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=5),
    st.sampled_from(["none", "epsilon", "exp"]),
    st.sampled_from(["whitespace", "char"]),
)
def test_scores_equal_bruteforce_oracle(
    corpus, char_max, word_max, bleu_max, smoothing, tokenizer
):
    half = len(corpus) // 2
    hyps, refs = corpus[:half], corpus[half : 2 * half]
    chrf_config = ChrfConfig(char_ngram_max=char_max, word_ngram_max=word_max)
    bleu_config = BleuConfig(
        max_ngram=bleu_max, smoothing=smoothing, tokenizer=tokenizer
    )
    assert chrf_pp(hyps, refs, chrf_config) == oracle_chrf_pp(hyps, refs, chrf_config)
    assert bleu(hyps, refs, bleu_config) == oracle_bleu(hyps, refs, bleu_config)
    assert chrf_pp(hyps, hyps) == oracle_chrf_pp(hyps, hyps)


def test_no_alphanumeric_code_point_is_punctuation():
    # the word-splitting fast path keeps a word whole when both its ends
    # are alphanumeric; that is only right if none of them is punctuation
    for code in range(sys.maxunicode + 1):
        ch = chr(code)
        if ch.isalnum():
            assert not _is_punct(ch), f"U+{code:04X}"


# ---------------------------------------------------------------------------
# line-pair counting: each distinct pair once per Scoring, integer rows
# summed
# ---------------------------------------------------------------------------


@given(
    MIXED_CORPUS,
    st.integers(min_value=1, max_value=7),
    st.sampled_from(["none", "epsilon", "exp"]),
    st.sampled_from(["whitespace", "char"]),
)
def test_scores_through_one_scoring_equal_the_oracle(
    corpus, char_max, smoothing, tokenizer
):
    half = len(corpus) // 2
    hyps, refs = corpus[:half], corpus[half : 2 * half]
    # a second corpus that shares some pairs with the first, in another order
    hyps2, refs2 = hyps[::-1] + corpus[:1], refs[::-1] + corpus[-1:]
    chrf_config = ChrfConfig(char_ngram_max=char_max)
    bleu_config = BleuConfig(smoothing=smoothing, tokenizer=tokenizer)
    scoring = metrics.Scoring()
    for h, r in ((hyps, refs), (hyps2, refs2)):
        assert chrf_pp(h, r, chrf_config, scoring=scoring) == oracle_chrf_pp(
            h, r, chrf_config
        )
        assert bleu(h, r, bleu_config, scoring=scoring) == oracle_bleu(
            h, r, bleu_config
        )


def test_a_second_corpus_counts_only_its_new_pairs(monkeypatch):
    rows, counted = metrics._chrf_rows, []

    def counting_rows(pairs, config):
        counted.append(len(pairs))
        return rows(pairs, config)

    monkeypatch.setattr(metrics, "_chrf_rows", counting_rows)
    scoring = metrics.Scoring()
    first = (["a b", "c d", "a b", "e"], ["a b", "c x", "a b", "f"])
    second = (["c d", "a b", "g h", "g h"], ["c x", "a c", "g h", "g h"])
    for hyps, refs in (first, second):
        assert chrf_pp(hyps, refs, scoring=scoring) == oracle_chrf_pp(hyps, refs)
    # three distinct pairs in the first corpus; the second adds two
    assert counted == [3, 2]


def test_hypothesis_keeps_unicode_line_breaks(tmp_path):
    hyp, ref = tmp_path / "hyp.txt", tmp_path / "ref.txt"
    hyp.write_text("a\u2028b\nc\x85d\re\n", encoding="utf-8", newline="")
    ref.write_text("a b\nc d e\n", encoding="utf-8")
    report = evaluate_corpus(hyp, ref, "ava_Latn", "zor_Latn")
    assert report.sentence_count == 2
    # the other line breaks are whitespace to the metrics
    assert report.chrf_pp == pytest.approx(100.0, abs=1e-9)



# ---------------------------------------------------------------------------
# char n-grams matched by lookups in the reference text: repeated and
# self-overlapping grams are clipped at their overlapping occurrences
# ---------------------------------------------------------------------------


def assert_chrf_equals_oracle(hyps, refs, config):
    rows = metrics._chrf_rows(list(zip(hyps, refs)), config)
    for hyp, ref, row in zip(hyps, refs, rows):
        oracle = oracle_chrf_stats([hyp], [ref], config)
        assert list(row) == [value for entry in oracle for value in entry]
    assert chrf_pp(hyps, refs, config) == oracle_chrf_pp(hyps, refs, config)


@pytest.mark.parametrize(
    "hyp, ref",
    [
        ("aaaa", "aaa"),
        ("abab", "ababab"),
        ("aa aa", "aaa"),
        ("aba aba", "ababa"),
    ],
)
def test_repeated_char_grams_equal_bruteforce_oracle(hyp, ref):
    config = ChrfConfig()
    assert_chrf_equals_oracle([hyp, ref], [ref, hyp], config)
    assert_chrf_equals_oracle([hyp], [ref], config)


# two letters and a space: most grams repeat, in both lines
AB_LINE = st.text(alphabet="ab ", max_size=40)


@given(
    st.lists(st.tuples(AB_LINE, AB_LINE), min_size=1, max_size=6),
    st.integers(min_value=1, max_value=7),
)
def test_two_letter_lines_equal_bruteforce_oracle(pairs, char_max):
    hyps, refs = [hyp for hyp, _ in pairs], [ref for _, ref in pairs]
    assert_chrf_equals_oracle(hyps, refs, ChrfConfig(char_ngram_max=char_max))


def test_long_line_equals_bruteforce_oracle():
    rng = random.Random(7)
    words = ["aba", "ab", "ba", "aab", "bab", "abab", "c", "cab"]
    hyp = " ".join(rng.choice(words) for _ in range(700))
    ref = " ".join(rng.choice(words) for _ in range(700))
    assert len(hyp) > 2000 and len(ref) > 2000
    assert_chrf_equals_oracle([hyp, "ab"], [ref, "abab"], ChrfConfig())
