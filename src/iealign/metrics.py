"""Scoring functions: exact-match F1, ROUGE-L F1, smoothed sentence BLEU,
soft header matching, and open-IE tuple F1. Both matchers pair items one to
one through `max_assignment`, which is exact at any size.

Tokenization for the text-level metrics is fixed and documented: lowercase,
split on whitespace and punctuation boundaries. Counts aggregate micro-style
(summed tp/fp/fn across a corpus, never a mean of per-instance F1).
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Optional, Sequence

from .model import Extraction

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class PRF:
    tp: float
    fp: float
    fn: float

    @property
    def precision(self) -> float:
        total = self.tp + self.fp
        return self.tp / total if total else 0.0

    @property
    def recall(self) -> float:
        total = self.tp + self.fn
        return self.tp / total if total else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0


def micro_prf(parts: Iterable[PRF]) -> PRF:
    tp = fp = fn = 0.0
    for part in parts:
        tp += part.tp
        fp += part.fp
        fn += part.fn
    return PRF(tp, fp, fn)


def exact_match_f1(pred: Extraction, gold: Extraction) -> PRF:
    """Multiset intersection of exact tuples (string equality on every slot)."""
    if pred.task is not gold.task:
        raise ValueError(f"task mismatch: {pred.task.value} vs {gold.task.value}")
    pred_counts = Counter(pred.items)
    gold_counts = Counter(gold.items)
    tp = sum((pred_counts & gold_counts).values())
    return PRF(tp, len(pred.items) - tp, len(gold.items) - tp)


# ---------------------------------------------------------------------------
# ROUGE-L


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, 1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def rouge_l_f1(pred: str, ref: str) -> float:
    pred_tokens = tokenize(pred)
    ref_tokens = tokenize(ref)
    if not pred_tokens and not ref_tokens:
        return 1.0
    if not pred_tokens or not ref_tokens:
        return 0.0
    lcs = _lcs_length(pred_tokens, ref_tokens)
    p = lcs / len(pred_tokens)
    r = lcs / len(ref_tokens)
    return 2 * p * r / (p + r) if p + r else 0.0


# ---------------------------------------------------------------------------
# Sentence BLEU, 4-gram, uniform weights, smoothing method 3

BLEU_MAX_N = 4


def _all_ngrams(tokens: Sequence[str]) -> Counter:
    """Every 1..BLEU_MAX_N-gram of `tokens` in one count; a gram's order is
    its tuple length."""
    shifted = [tokens[i:] for i in range(BLEU_MAX_N)]
    return Counter(chain.from_iterable(zip(*shifted[:n]) for n in range(1, BLEU_MAX_N + 1)))


@dataclass(frozen=True)
class BleuReference:
    """A reference text's token count and one count of all its
    1..BLEU_MAX_N-grams, keyed by tuple, made once so that many candidates
    can be scored against it. `score` clips every order in one pass over the
    candidate's distinct grams; its integer numerators, and so its floats,
    are bit-identical to counting each order on its own."""

    length: int
    ngrams: Counter

    @classmethod
    def of(cls, text: str) -> "BleuReference":
        tokens = tokenize(text)
        return cls(len(tokens), _all_ngrams(tokens))

    def score(self, candidate: str) -> float:
        """Sentence-level BLEU with brevity penalty and NIST geometric smoothing:
        the k-th zero n-gram precision is replaced by 1 / (2^k * denominator)."""
        cand = tokenize(candidate)
        if not cand:
            return 0.0
        numerators = [0] * (BLEU_MAX_N + 1)  # indexed by order; slot 0 unused
        ref_ngrams = self.ngrams
        for gram, count in _all_ngrams(cand).items():
            numerators[len(gram)] += min(count, ref_ngrams.get(gram, 0))
        if numerators[1] == 0:
            return 0.0
        precisions: list[float] = []
        zeros_seen = 1
        for n in range(1, BLEU_MAX_N + 1):
            num, den = numerators[n], max(1, len(cand) - n + 1)
            if num == 0:
                precisions.append(1.0 / (2**zeros_seen * den))
                zeros_seen += 1
            else:
                precisions.append(num / den)
        c, r = len(cand), self.length
        bp = 1.0 if c > r else math.exp(1.0 - r / c)
        return bp * math.exp(sum(math.log(p) for p in precisions) / BLEU_MAX_N)


def sentence_bleu_m3(candidate: str, reference: str) -> float:
    """`BleuReference.score` for a single candidate."""
    return BleuReference.of(reference).score(candidate)


# ---------------------------------------------------------------------------
# Optimal one-to-one assignment


def max_assignment(scores: Sequence[Sequence[float]]) -> float:
    """Maximum total score of a one-to-one matching between the rows and the
    columns of a rectangular score matrix (Kuhn-Munkres with potentials,
    O(n^2 m) for n <= m). Integer scores give an integer total."""
    if len(scores) > len(scores[0] if scores else ()):
        scores = list(zip(*scores))  # the shorter side goes on the rows
    if not scores or not scores[0]:
        return 0
    n, m = len(scores), len(scores[0])
    # Column 0 is a sentinel; row_of[j] is the 1-based row matched to column j
    # (0 = free). Minimizing -score maximizes score; u, v are the potentials.
    u = [0.0] * (n + 1)
    v = [0.0] * (m + 1)
    row_of = [0] * (m + 1)
    way = [0] * (m + 1)
    for i in range(1, n + 1):
        row_of[0] = i
        j0 = 0
        slack = [math.inf] * (m + 1)
        used = [False] * (m + 1)
        while row_of[j0]:
            used[j0] = True
            i0 = row_of[j0]
            row = scores[i0 - 1]
            delta, j1 = math.inf, 0
            for j in range(1, m + 1):
                if not used[j]:
                    reduced = -row[j - 1] - u[i0] - v[j]
                    if reduced < slack[j]:
                        slack[j], way[j] = reduced, j0
                    if slack[j] < delta:
                        delta, j1 = slack[j], j
            for j in range(m + 1):
                if used[j]:
                    u[row_of[j]] += delta
                    v[j] -= delta
                else:
                    slack[j] -= delta
            j0 = j1
        while j0:  # flip the augmenting path back to the sentinel
            j1 = way[j0]
            row_of[j0] = row_of[j1]
            j0 = j1
    col_of = {row_of[j]: j for j in range(1, m + 1) if row_of[j]}
    return sum(scores[i - 1][col_of[i] - 1] for i in range(1, n + 1))


# ---------------------------------------------------------------------------
# Soft header matching (on-demand IE table headers)


def dice_similarity(a: str, b: str) -> float:
    ta, tb = set(tokenize(a)), set(tokenize(b))
    if not ta and not tb:
        return 1.0
    return 2 * len(ta & tb) / (len(ta) + len(tb))


def header_soft_f1(
    pred_headers: Sequence[str],
    gold_headers: Sequence[str],
    threshold: float = 0.5,
    similarity: Callable[[str, str], float] = dice_similarity,
) -> PRF:
    """tp is the largest number of one-to-one (pred, gold) header pairs whose
    similarity is >= threshold, an integer count."""
    matches = [
        [1 if similarity(p, g) >= threshold else 0 for g in gold_headers] for p in pred_headers
    ]
    tp = max_assignment(matches)
    return PRF(tp, len(pred_headers) - tp, len(gold_headers) - tp)


# ---------------------------------------------------------------------------
# Open IE tuple F1


def _slot_token_f1(a: Optional[str], b: Optional[str]) -> Optional[float]:
    """Token-multiset F1 between two slot values; None when both are absent."""
    a_empty = a is None or not a.strip()
    b_empty = b is None or not b.strip()
    if a_empty and b_empty:
        return None
    if a_empty or b_empty:
        return 0.0
    ca, cb = Counter(tokenize(a)), Counter(tokenize(b))
    overlap = sum((ca & cb).values())
    if not overlap:
        return 0.0
    p = overlap / sum(ca.values())
    r = overlap / sum(cb.values())
    return 2 * p * r / (p + r)


def tuple_pair_score(pred: Sequence[Optional[str]], gold: Sequence[Optional[str]]) -> float:
    """Slot-averaged token F1 over the slots present in either tuple."""
    width = max(len(pred), len(gold))
    scores = []
    for k in range(width):
        a = pred[k] if k < len(pred) else None
        b = gold[k] if k < len(gold) else None
        s = _slot_token_f1(a, b)
        if s is not None:
            scores.append(s)
    return sum(scores) / len(scores) if scores else 0.0


def openie_tuple_f1(
    pred: Sequence[Sequence[Optional[str]]],
    gold: Sequence[Sequence[Optional[str]]],
) -> PRF:
    """One-to-one tuple matching maximizing summed slot-averaged token F1
    (exact, via `max_assignment`); matched pairs contribute fractionally to tp."""
    tp = max_assignment([[tuple_pair_score(p, g) for g in gold] for p in pred])
    return PRF(tp, len(pred) - tp, len(gold) - tp)
