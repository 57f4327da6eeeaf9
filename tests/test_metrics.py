"""Metric tests: exact-match F1, ROUGE-L vs a brute-force LCS oracle,
smoothed sentence BLEU vs an exact-rational reference, the assignment routine
vs a brute-force maximum, soft header matching, and open-IE tuple F1."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iealign.metrics import (
    PRF,
    BLEU_MAX_N,
    BleuReference,
    dice_similarity,
    exact_match_f1,
    header_soft_f1,
    max_assignment,
    micro_prf,
    openie_tuple_f1,
    rouge_l_f1,
    sentence_bleu_m3,
    tokenize,
    tuple_pair_score,
)
from iealign.model import Extraction, TaskKind
from iealign.synth import make_extraction


# ---------------------------------------------------------------------------
# PRF / exact match


def test_prf_basic():
    prf = PRF(8, 2, 4)
    assert prf.precision == 0.8
    assert prf.recall == pytest.approx(2 / 3)
    assert prf.f1 == pytest.approx(8 / 11)


def test_prf_zero_division():
    assert PRF(0, 0, 0).precision == 0.0
    assert PRF(0, 0, 0).recall == 0.0
    assert PRF(0, 0, 0).f1 == 0.0


def test_micro_prf_sums_counts():
    total = micro_prf([PRF(1, 0, 1), PRF(2, 1, 0)])
    assert (total.tp, total.fp, total.fn) == (3, 1, 1)


def test_exact_match_multiset():
    pred = Extraction(TaskKind.NER, (("a", "person"), ("a", "person"), ("b", "place")))
    gold = Extraction(TaskKind.NER, (("a", "person"), ("c", "place")))
    prf = exact_match_f1(pred, gold)
    assert (prf.tp, prf.fp, prf.fn) == (1, 2, 1)


def test_exact_match_task_mismatch_raises():
    with pytest.raises(ValueError):
        exact_match_f1(Extraction(TaskKind.NER), Extraction(TaskKind.ED))


def test_exact_match_identity():
    gold = Extraction(TaskKind.RE, (("a", "r", "b"), ("c", "r", "d")))
    prf = exact_match_f1(gold, gold)
    assert prf.f1 == 1.0


# ---------------------------------------------------------------------------
# ROUGE-L against a brute-force recursive LCS


def lcs_bruteforce(a, b):
    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == 0 or j == 0:
            return 0
        if a[i - 1] == b[j - 1]:
            return rec(i - 1, j - 1) + 1
        return max(rec(i - 1, j), rec(i, j - 1))

    return rec(len(a), len(b))


def rouge_oracle(pred, ref):
    p_toks, r_toks = tokenize(pred), tokenize(ref)
    if not p_toks and not r_toks:
        return 1.0
    if not p_toks or not r_toks:
        return 0.0
    lcs = lcs_bruteforce(tuple(p_toks), tuple(r_toks))
    p = lcs / len(p_toks)
    r = lcs / len(r_toks)
    return 2 * p * r / (p + r) if p + r else 0.0


def test_rouge_l_against_bruteforce_oracle():
    rng = random.Random(11)
    vocab = ["alpha", "beta", "gamma", "delta", ",", ";", "x1"]
    for _ in range(50):
        a = " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 12)))
        b = " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 12)))
        assert rouge_l_f1(a, b) == rouge_oracle(a, b)


def test_rouge_l_edges():
    assert rouge_l_f1("", "") == 1.0
    assert rouge_l_f1("word", "") == 0.0
    assert rouge_l_f1("", "word") == 0.0
    assert rouge_l_f1("same text", "same text") == 1.0


# ---------------------------------------------------------------------------
# Sentence BLEU with geometric smoothing of zero precisions


def bleu_oracle(candidate: str, reference: str, max_n: int = 4) -> float:
    """Exact-rational transliteration of smoothed sentence BLEU: the k-th
    zero n-gram precision is replaced by 1 / (2^k * denominator); brevity
    penalty exp(1 - r/c) when the candidate is not longer than the reference."""
    cand, ref = tokenize(candidate), tokenize(reference)
    if len(cand) == 0:
        return 0.0
    p_n = []
    dens = []
    for n in range(1, max_n + 1):
        c_ngrams = Counter(tuple(cand[i : i + n]) for i in range(len(cand) - n + 1))
        r_ngrams = Counter(tuple(ref[i : i + n]) for i in range(len(ref) - n + 1))
        num = sum(min(v, r_ngrams[g]) for g, v in c_ngrams.items())
        den = max(1, len(cand) - n + 1)
        p_n.append(Fraction(num, den))
        dens.append(den)
    if p_n[0] == 0:
        return 0.0
    incvnt = 1
    for i in range(len(p_n)):
        if p_n[i] == 0:
            p_n[i] = Fraction(1, 2**incvnt * dens[i])
            incvnt += 1
    c, r = len(cand), len(ref)
    bp = 1.0 if c > r else math.exp(1 - r / c)
    prod = 1.0
    for p in p_n:
        prod *= float(p) ** 0.25
    return bp * prod


# Frozen oracle values (computed once with bleu_oracle and pinned).
BLEU_FIXTURE = [
    ("the cat sat on the mat", "the cat sat on the mat", 1.0),
    ("the cat sat on the mat", "a cat sat on a mat", 0.3246679154750989),
    ("the the the the", "the cat", 0.15973577606156814),
    ("one two three four five", "one two three four five six seven", 0.6703200460356393),
    ("completely different words here", "nothing matches at all anywhere", 0.0),
    ("a b c d e f g", "a b c d e f g h i", 0.7514772930752859),
    ("x", "x", 0.35355339059327373),
    ("x y", "y x", 0.35355339059327373),
    ("alpha beta gamma", "alpha beta gamma delta", 0.6025286104785453),
    ("alpha", "beta", 0.0),
    ("the quick brown fox jumps over the lazy dog", "the quick brown fox jumped over a lazy dog", 0.3688939732334405),
    ("to be or not to be", "to be or not to be that is the question", 0.513417119032592),
    ("hello world", "hello there world", 0.2144409712401767),
    ("repeat repeat repeat", "repeat", 0.22590050090246122),
    ("a man a plan a canal", "a man a plan a canal panama", 0.846481724890614),
    ("numbers 1 2 3", "numbers 1 2 3", 1.0),
    ("punctuation , and ; stuff", "punctuation , and ; stuff", 1.0),
    ("mixed CASE Words", "mixed case words", 0.8408964152537145),
    ("one correct", "one wrong", 0.29730177875068026),
    ("longer candidate than the reference text is", "short reference", 0.06567274736060395),
]


def test_bleu_matches_rational_oracle_on_fixture():
    assert len(BLEU_FIXTURE) == 20
    for cand, ref, frozen in BLEU_FIXTURE:
        got = sentence_bleu_m3(cand, ref)
        assert got == pytest.approx(bleu_oracle(cand, ref), abs=1e-9)
        assert got == pytest.approx(frozen, abs=1e-9)


def test_bleu_identity_is_one():
    assert sentence_bleu_m3("a b c d e", "a b c d e") == pytest.approx(1.0)


def test_bleu_empty_candidate_is_zero():
    assert sentence_bleu_m3("", "reference text") == 0.0


def test_bleu_no_unigram_overlap_is_zero():
    assert sentence_bleu_m3("aaa bbb", "ccc ddd") == 0.0


@given(
    st.lists(st.sampled_from(["red", "blue", "green", "dot"]), min_size=1, max_size=10),
    st.lists(st.sampled_from(["red", "blue", "green", "dot"]), min_size=1, max_size=10),
)
@settings(max_examples=100, deadline=None)
def test_bleu_matches_oracle_property(cand_words, ref_words):
    cand, ref = " ".join(cand_words), " ".join(ref_words)
    assert sentence_bleu_m3(cand, ref) == pytest.approx(bleu_oracle(cand, ref), abs=1e-9)


_BLEU_WORDS = st.lists(st.sampled_from(["red", "blue", "green", "dot", ","]), min_size=0, max_size=10)


@given(_BLEU_WORDS, st.lists(_BLEU_WORDS, min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_bleu_reference_scores_many_candidates(ref_words, cand_lists):
    """One reference scored against several candidates in turn gives each
    the score of a fresh single-candidate call: scoring leaves it unchanged."""
    ref = " ".join(ref_words)
    reference = BleuReference.of(ref)
    for cand in (" ".join(words) for words in cand_lists):
        got = reference.score(cand)
        assert got == sentence_bleu_m3(cand, ref)
        assert got == pytest.approx(bleu_oracle(cand, ref), abs=1e-9)
    assert reference == BleuReference.of(ref)


def per_order_bleu(candidate: str, reference: str) -> float:
    """Smoothed sentence BLEU with one n-gram count per order, every float
    operation in `BleuReference.score`'s order: the definition its one count
    over all orders must match bit for bit."""

    def counts(tokens, n):
        return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))

    cand, ref = tokenize(candidate), tokenize(reference)
    if not cand:
        return 0.0
    numerators, denominators = [], []
    for n in range(1, BLEU_MAX_N + 1):
        ref_ngrams = counts(ref, n)
        numerators.append(sum(min(c, ref_ngrams.get(g, 0)) for g, c in counts(cand, n).items()))
        denominators.append(max(1, len(cand) - n + 1))
    if numerators[0] == 0:
        return 0.0
    precisions = []
    zeros_seen = 1
    for num, den in zip(numerators, denominators):
        if num == 0:
            precisions.append(1.0 / (2**zeros_seen * den))
            zeros_seen += 1
        else:
            precisions.append(num / den)
    c, r = len(cand), len(ref)
    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    log_sum = 0.0
    for p in precisions:
        log_sum += math.log(p)
    return bp * math.exp(log_sum / BLEU_MAX_N)


# Few distinct words, so n-grams repeat and clipping is hit; mixed case and
# punctuation, alone or glued to words; anything from empty to 14 tokens.
_BLEU_TEXT = st.one_of(
    st.lists(st.sampled_from(["red", "Red", "RED", "dot", "Dot", ",", ".", "!?"]), max_size=12).map(" ".join),
    st.text(alphabet="aA bB.,;!", max_size=14),
)


@given(_BLEU_TEXT, _BLEU_TEXT)
@example("", "red dot")
@example("red dot", "")
@example("", "")
@example("Red", "red")
@example("red dot", "red dot red")
@example("red red red red red", "red red")
@example("red dot red dot red dot", "red dot red dot")
@example(",.;!", ", . ; !")
@example("!!! ,,,", "! ! , ,")
@example("Red, DOT. red!", "red , dot . RED !")
@settings(max_examples=300, deadline=None)
def test_bleu_reference_equals_per_order_definition(cand, ref):
    assert BleuReference.of(ref).score(cand) == per_order_bleu(cand, ref)


_NEAR_WORDS = st.sampled_from(["the", "red", "dot", "Dot", "line", "of", ",", ";", "(", ")"])


@st.composite
def _reference_and_near_candidate(draw):
    """A reference of 15-40 tokens from few distinct words, so that grams of
    every order repeat, and a candidate made from it by a few edits: a word
    substituted, deleted or inserted, or a span repeated after itself."""
    ref = draw(st.lists(_NEAR_WORDS, min_size=15, max_size=40))
    cand = list(ref)
    for edit in draw(st.lists(st.sampled_from(["substitute", "delete", "insert", "repeat"]), max_size=4)):
        i = draw(st.integers(0, len(cand) - 1))
        if edit == "substitute":
            cand[i] = draw(_NEAR_WORDS | st.just("zebra"))
        elif edit == "delete":
            del cand[i]
        elif edit == "insert":
            cand.insert(i, draw(_NEAR_WORDS | st.just("zebra")))
        else:
            cand[i:i] = cand[i : i + draw(st.integers(1, 4))]
    return " ".join(ref), " ".join(cand)


_THIRTY_TOKENS = " ".join(f"w{i % 11} of w{i % 7}" for i in range(10))


@given(_reference_and_near_candidate())
@example((_THIRTY_TOKENS, _THIRTY_TOKENS))
@example(("a b c d e f g h i j k l m n o p", "p n l j h f d b"))  # unigram hits, no bigram: the early stop
# The candidate holds "the red dot" and "a b c" three times, the reference
# once: the Counter clip at orders 2 and 3.
@example(("the red dot , the blue dot ; the red line of the dot", "the red dot the red dot the red dot , the blue"))
@example(("a b c a b d a b e x y z x y w q r s", "a b c a b c a b c x y z x y z x y z"))
@settings(max_examples=300, deadline=None)
def test_bleu_near_reference_equals_per_order_definition(texts):
    """Long, high-overlap candidates reach every order's clip: grams that
    the candidate repeats more often than the reference holds them."""
    ref, cand = texts
    assert BleuReference.of(ref).score(cand) == per_order_bleu(cand, ref)


def test_bleu_adds_its_log_precisions_in_order_on_every_python():
    """sum() of floats compensates on Python 3.12+; this pair's score moves
    in the last bit (…735) when the four log-precisions are summed that way."""
    score = BleuReference.of("gamma eta lambda alpha beta iota beta zeta kappa").score("iota delta alpha beta")
    assert score == 0.10129474235115733


@given(st.text(alphabet="ab cd", min_size=0, max_size=30), st.text(alphabet="ab cd", min_size=0, max_size=30))
@settings(max_examples=100, deadline=None)
def test_bleu_bounded(cand, ref):
    assert 0.0 <= sentence_bleu_m3(cand, ref) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# Optimal assignment against a brute-force maximum


def assignment_oracle(scores):
    """Best total over every one-to-one matching of the shorter side."""
    n, m = len(scores), len(scores[0])
    if n > m:
        scores, n, m = [list(col) for col in zip(*scores)], m, n
    return max(
        sum(scores[i][j] for i, j in enumerate(cols))
        for cols in itertools.permutations(range(m), n)
    )


def _random_matrix(rng, n, m):
    """Scores drawn so that ties and zeros are common."""
    return [[rng.choice([0.0, 0.0, 0.5, 1.0, rng.random()]) for _ in range(m)] for _ in range(n)]


def test_max_assignment_matches_bruteforce_oracle():
    rng = random.Random(3)
    for n in range(1, 8):
        for m in range(1, 8):
            for _ in range(6):
                scores = _random_matrix(rng, n, m)
                assert max_assignment(scores) == pytest.approx(assignment_oracle(scores), abs=1e-9)
            ones = [[rng.randint(0, 1) for _ in range(m)] for _ in range(n)]
            assert max_assignment(ones) == assignment_oracle(ones)
    for n, m in [(8, 9), (9, 8), (9, 9)]:
        scores = _random_matrix(rng, n, m)
        assert max_assignment(scores) == pytest.approx(assignment_oracle(scores), abs=1e-9)


def test_max_assignment_empty_sides():
    assert max_assignment([]) == 0
    assert max_assignment([[], []]) == 0


# ---------------------------------------------------------------------------
# Soft header matching


def test_dice_similarity():
    assert dice_similarity("start date", "date of start") == pytest.approx(2 * 2 / 5)
    assert dice_similarity("", "") == 1.0
    assert dice_similarity("a", "b") == 0.0


def test_header_soft_f1_threshold_and_one_to_one():
    prf = header_soft_f1(["start date", "person"], ["date", "person", "place"])
    # "person" matches exactly; "start date" vs "date" has dice 2/3 >= 0.5
    assert (prf.tp, prf.fp, prf.fn) == (2, 0, 1)
    prf2 = header_soft_f1(["xx"], ["yy"])
    assert (prf2.tp, prf2.fp, prf2.fn) == (0, 1, 1)


def test_header_soft_f1_maximizes_matched_pairs():
    # "birth date" scores >= 0.5 against both gold headers; matching it to
    # "birth date" first would leave "start date" unmatched.
    prf = header_soft_f1(["start date", "birth date"], ["date of birth", "birth date"])
    assert (prf.tp, prf.fp, prf.fn) == (2, 0, 0)
    assert isinstance(prf.tp, int)


# ---------------------------------------------------------------------------
# Open-IE tuple F1


def test_tuple_pair_score_identity_and_absence():
    t = ("gave", "alice", "a book", None, None)
    assert tuple_pair_score(t, t) == 1.0
    # absent-vs-absent slots are excluded; absent-vs-present scores zero
    a = ("gave", "alice", "a book", "yesterday", None)
    b = ("gave", "alice", "a book", None, None)
    assert tuple_pair_score(a, b) == pytest.approx((1 + 1 + 1 + 0) / 4)


def test_openie_tuple_f1_exact():
    gold = [("met", "bob", "carol", None, None)]
    prf = openie_tuple_f1(gold, gold)
    assert prf.f1 == 1.0
    empty = openie_tuple_f1([], gold)
    assert (empty.tp, empty.fp, empty.fn) == (0.0, 0.0, 1.0)


def test_openie_fractional_tp():
    pred = [("met", "bob", "dave", None, None)]
    gold = [("met", "bob", "carol", None, None)]
    prf = openie_tuple_f1(pred, gold)
    assert prf.tp == pytest.approx(2 / 3)
    assert prf.fp == pytest.approx(1 / 3)


def test_openie_tuple_f1_optimal_beyond_eight_tuples():
    """Five blocks with disjoint words, ten tuples a side. In each block p1-g1
    scores 5/6 and p1-g2, p2-g1 score 1/2 while p2-g2 scores 0, so matching
    the best pair first gives 5/6 a block; the optimum is 1."""
    pred, gold = [], []
    for k in range(5):
        a, b, c, d, z = (f"{w}{k}" for w in ("alpha", "beta", "gamma", "delta", "zeta"))
        pred += [(a, b), (z, f"{b} {c}")]
        gold += [(a, f"{b} {c}"), (a, d)]
    assert tuple_pair_score(pred[0], gold[0]) == pytest.approx(5 / 6)
    prf = openie_tuple_f1(pred, gold)
    assert prf.tp == pytest.approx(5.0)
    assert (prf.fp, prf.fn) == (pytest.approx(5.0), pytest.approx(5.0))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_openie_f1_bounds_property(seed):
    rng = random.Random(seed)
    a = make_extraction(TaskKind.OPENIE, rng, max_items=4)
    b = make_extraction(TaskKind.OPENIE, rng, max_items=4)
    prf = openie_tuple_f1(a.items, b.items)
    assert 0.0 <= prf.f1 <= 1.0
    assert prf.tp <= min(len(a.items), len(b.items)) + 1e-9
