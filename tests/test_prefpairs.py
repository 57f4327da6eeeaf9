"""Preference-pair tests: scoring, the BLEU-gap rule, offline construction,
and corpus assembly ratios/determinism."""

import pytest

from iealign.client import BaseClient, MockClient
from iealign.errors import ConfigurationError
from iealign.model import PreferencePair
from iealign.prefpairs import (
    DpoPlan,
    ScoredSamples,
    assemble_dpo_corpus,
    build_offline_pair,
    build_online_pair,
    pair_to_record,
    score_samples,
)

GAP = 0.10  # DpoPlan's default gap_threshold, which these cases are written for


def _scored(scores, gold="the gold text here", texts=None):
    texts = texts or [f"sample {i}" for i in range(len(scores))]
    return ScoredSamples(
        instance_id="inst-1",
        dataset="ds",
        prompt="p",
        gold_text=gold,
        samples=tuple(zip(texts, scores)),
    )


# ---------------------------------------------------------------------------
# Scoring


def test_score_samples_echo_gold_all_ones():
    client = MockClient(policy="echo_gold")
    s = score_samples("i", "d", "prompt", "alpha beta gamma delta", client, n=5, temperature=1.0)
    assert len(s.samples) == 5
    assert all(score == pytest.approx(1.0) for _, score in s.samples)


def test_score_samples_mixed_gold_and_noise():
    gold = "alpha beta gamma delta"

    class _GoldThenNoise(BaseClient):
        def _generate(self, prompt, temperature, index, reference):
            return gold if index == 0 else "zzz yyy"

    s = score_samples("i", "d", "prompt", gold, _GoldThenNoise(), n=5, temperature=1.0)
    scores = [score for _, score in s.samples]
    assert scores[0] == pytest.approx(1.0)
    assert all(sc < 0.01 for sc in scores[1:])


def test_score_samples_cached_rerun_zero_calls(tmp_path):
    from iealign.client import ResponseCache

    client = MockClient(policy="echo_gold", cache=ResponseCache(str(tmp_path)))
    score_samples("i", "d", "prompt", "alpha beta", client, n=5, temperature=1.0)
    first = client.call_count
    assert first == 5
    score_samples("i", "d", "prompt", "alpha beta", client, n=5, temperature=1.0)
    assert client.call_count == first  # all served from cache


# ---------------------------------------------------------------------------
# Online pairs


def test_online_pair_picks_extremes():
    pair = build_online_pair(_scored([0.9, 0.5, 0.7, 0.6, 0.8]), GAP)
    assert pair is not None
    assert pair.preferred == "sample 0" and pair.dispreferred == "sample 1"
    assert pair.preferred_score == 0.9 and pair.dispreferred_score == 0.5
    assert pair.origin == "online"


def test_online_pair_all_equal_none():
    assert build_online_pair(_scored([0.5] * 5), GAP) is None


def test_online_pair_below_threshold_none():
    assert build_online_pair(_scored([0.55, 0.50]), GAP) is None
    assert build_online_pair(_scored([0.60, 0.50]), GAP) is None  # gap must exceed, not equal


def test_online_pair_tie_breaks_lowest_index():
    pair = build_online_pair(_scored([0.9, 0.9, 0.3, 0.3]), GAP)
    assert pair.preferred == "sample 0" and pair.dispreferred == "sample 2"


def test_online_pair_needs_two_samples():
    assert build_online_pair(_scored([0.9]), GAP) is None


# ---------------------------------------------------------------------------
# Offline pairs


def test_offline_pair_prefers_gold():
    pair = build_offline_pair(_scored([0.8, 0.3, 0.6]), GAP)
    assert pair.preferred == "the gold text here"
    assert pair.preferred_score == 1.0
    assert pair.dispreferred == "sample 1" and pair.dispreferred_score == 0.3
    assert pair.origin == "offline"
    assert pair.preferred_score - pair.dispreferred_score == pytest.approx(0.7)


def test_offline_pair_skips_near_gold():
    assert build_offline_pair(_scored([1.0, 1.0, 1.0]), GAP) is None
    assert build_offline_pair(_scored([0.95, 0.97]), GAP) is None  # min >= 1 - gap


def test_offline_pair_empty_samples():
    assert build_offline_pair(_scored([]), GAP) is None


# ---------------------------------------------------------------------------
# Assembly


def _candidates(n_online, n_offline):
    pairs = []
    for i in range(n_online):
        pairs.append(
            PreferencePair(f"on-{i}", "p", "good", "bad", 0.9, 0.2, "online", dataset="dA")
        )
    for i in range(n_offline):
        pairs.append(
            PreferencePair(f"off-{i}", "p", "gold", "bad", 1.0, 0.3, "offline", dataset="dB")
        )
    return pairs


def test_assemble_hits_target_ratio():
    corpus, summary = assemble_dpo_corpus(_candidates(200, 300), DpoPlan(target_size=100, seed=1))
    assert summary["total"] == 100
    assert summary["offline"] == 70 and summary["online"] == 30
    assert summary["offline_rate"] == pytest.approx(0.7)


def test_assemble_insufficient_supply_emits_all():
    corpus, summary = assemble_dpo_corpus(_candidates(5, 10), DpoPlan(target_size=100, seed=1))
    assert summary["total"] == 15
    assert summary["online"] == 5 and summary["offline"] == 10


def test_assemble_deterministic_shuffle():
    cands = _candidates(200, 300)
    c1, _ = assemble_dpo_corpus(cands, DpoPlan(target_size=100, seed=1))
    c2, _ = assemble_dpo_corpus(list(reversed(cands)), DpoPlan(target_size=100, seed=1))
    assert c1 == c2
    c3, _ = assemble_dpo_corpus(cands, DpoPlan(target_size=100, seed=2))
    assert c1 != c3


def test_assemble_summary_mean_delta():
    _, summary = assemble_dpo_corpus(_candidates(10, 0), DpoPlan(target_size=10, offline_rate=0.0, seed=1))
    assert summary["mean_delta"] == pytest.approx(0.7)
    assert summary["per_dataset"]["dA"]["mean_delta"] == pytest.approx(0.7)


def test_plan_validation():
    with pytest.raises(ConfigurationError):
        DpoPlan(gap_threshold=0.0)
    with pytest.raises(ConfigurationError):
        DpoPlan(offline_rate=1.5)


def test_no_pair_has_equal_sides():
    for scores in ([0.9, 0.5], [0.2, 0.9, 0.4], [1.0, 0.1]):
        for builder in (build_online_pair, build_offline_pair):
            pair = builder(_scored(scores), GAP)
            if pair is not None:
                assert pair.preferred != pair.dispreferred
