"""Preference-pair tests: scoring, the online and offline pair rules, and
corpus assembly ratios/determinism."""

import pytest

from iealign.client import BaseClient, MockClient
from iealign.errors import ConfigurationError
from iealign.prefpairs import DpoPlan, assemble_dpo_corpus, build_pairs, draw_samples, score_samples

GAP = 0.10  # DpoPlan's default gap_threshold, which these cases are written for
GOLD = "the gold text here"


def _pairs(scores, gap=GAP):
    """`build_pairs` over samples named "sample <index>" with `scores`."""
    samples = tuple((f"sample {i}", score) for i, score in enumerate(scores))
    return build_pairs("inst-1", "ds", "p", GOLD, samples, gap)


# ---------------------------------------------------------------------------
# Scoring


def test_score_samples_echo_gold_all_ones():
    client = MockClient(policy="echo_gold")
    texts = draw_samples("prompt", "alpha beta gamma delta", client, n=5, temperature=1.0)
    samples = tuple(zip(texts, score_samples("alpha beta gamma delta", texts)))
    assert len(samples) == 5
    assert all(score == pytest.approx(1.0) for _, score in samples)


def test_score_samples_mixed_gold_and_noise():
    gold = "alpha beta gamma delta"

    class _GoldThenNoise(BaseClient):
        def _generate(self, prompt, temperature, index, reference):
            return gold if index == 0 else "zzz yyy"

    texts = draw_samples("prompt", gold, _GoldThenNoise(), n=5, temperature=1.0)
    samples = tuple(zip(texts, score_samples(gold, texts)))
    scores = [score for _, score in samples]
    assert samples[0] == (gold, pytest.approx(1.0))
    assert all(sc < 0.01 for sc in scores[1:])


def test_score_samples_cached_rerun_zero_calls(tmp_path):
    from iealign.client import ResponseCache

    client = MockClient(policy="echo_gold", cache=ResponseCache(str(tmp_path)))
    draw_samples("prompt", "alpha beta", client, n=5, temperature=1.0)
    first = client.call_count
    assert first == 5
    draw_samples("prompt", "alpha beta", client, n=5, temperature=1.0)
    assert client.call_count == first  # all served from cache


# ---------------------------------------------------------------------------
# Pairs: the online pair (best vs worst sample) when the gap exceeds GAP,
# then the offline pair (gold vs worst sample) unless the worst is within
# GAP of gold


@pytest.mark.parametrize("scores,gap,expected", [
    ([0.9, 0.5, 0.7, 0.6, 0.8], GAP, [("online", "sample 0", "sample 1"), ("offline", GOLD, "sample 1")]),
    ([0.8, 0.3, 0.6], GAP, [("online", "sample 0", "sample 1"), ("offline", GOLD, "sample 1")]),
    ([0.5] * 5, GAP, [("offline", GOLD, "sample 0")]),
    ([0.55, 0.50], GAP, [("offline", GOLD, "sample 1")]),
    ([0.9, 0.9, 0.3, 0.3], GAP, [("online", "sample 0", "sample 2"), ("offline", GOLD, "sample 2")]),
    ([0.8], GAP, [("offline", GOLD, "sample 0")]),
    ([0.95], GAP, []),
    ([1.0, 1.0, 1.0], GAP, []),
    ([0.95, 0.97], GAP, []),
    ([1.0, 0.5], GAP, [("online", "sample 0", "sample 1"), ("offline", GOLD, "sample 1")]),
    ([], GAP, []),
    # gaps exactly equal to the threshold, in binary fractions so no rounding
    # decides them: the online gap must exceed it, and the worst sample must
    # be further than it from gold
    ([0.75, 0.5], 0.25, [("offline", GOLD, "sample 1")]),
    ([0.9, 0.75], 0.125, [("online", "sample 0", "sample 1"), ("offline", GOLD, "sample 1")]),
    ([0.9, 0.75], 0.25, []),
], ids=["extremes", "extremes_of_three", "all_equal", "gap_below", "ties_lowest_index", "single_sample",
        "single_sample_near_gold", "all_gold", "worst_near_gold", "best_is_gold", "no_samples",
        "online_gap_equal", "online_gap_above", "offline_gap_equal"])
def test_build_pairs(scores, gap, expected):
    assert [(p["origin"], p["chosen"], p["rejected"]) for p in _pairs(scores, gap)] == expected


def test_build_pairs_scores_and_fields():
    online, offline = _pairs([0.8, 0.3, 0.6])
    assert online == {"id": "inst-1", "dataset": "ds", "prompt": "p", "chosen": "sample 0", "rejected": "sample 1",
                      "chosen_score": 0.8, "rejected_score": 0.3, "origin": "online"}
    assert offline == {"id": "inst-1", "dataset": "ds", "prompt": "p", "chosen": GOLD, "rejected": "sample 1",
                       "chosen_score": 1.0, "rejected_score": 0.3, "origin": "offline"}
    assert offline["chosen_score"] - offline["rejected_score"] == pytest.approx(0.7)


# ---------------------------------------------------------------------------
# Assembly


def _candidates(n_online, n_offline):
    pairs = []
    for i in range(n_online):
        pairs.append({"id": f"on-{i}", "dataset": "dA", "prompt": "p", "chosen": "good", "rejected": "bad",
                      "chosen_score": 0.9, "rejected_score": 0.2, "origin": "online"})
    for i in range(n_offline):
        pairs.append({"id": f"off-{i}", "dataset": "dB", "prompt": "p", "chosen": "gold", "rejected": "bad",
                      "chosen_score": 1.0, "rejected_score": 0.3, "origin": "offline"})
    return pairs


def test_assemble_hits_target_ratio():
    corpus, summary = assemble_dpo_corpus(_candidates(200, 300), DpoPlan(target_size=100, seed=1))
    assert summary["total"] == 100
    assert summary["offline"] == 70 and summary["online"] == 30
    assert summary["offline_rate"] == pytest.approx(0.7)
    assert summary["candidate_offline"] == 300 and summary["candidate_online"] == 200


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
        for pair in _pairs(scores):
            assert pair["chosen"] != pair["rejected"]
