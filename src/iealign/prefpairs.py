"""DPO preference-pair construction.

Samples model outputs per instance, scores them with smoothed sentence BLEU
against the ground-truth serialization, forms online pairs under the BLEU-gap
rule and offline pairs against the ground truth, then assembles the final
corpus at the configured offline/online mix.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Sequence

from .client import BaseClient
from .errors import ConfigurationError
from .metrics import BleuReference
from .model import PreferencePair
from .seeds import derive_rng

logger = logging.getLogger(__name__)

ORIGIN_ONLINE = "online"
ORIGIN_OFFLINE = "offline"


@dataclass(frozen=True)
class ScoredSamples:
    instance_id: str
    dataset: str
    prompt: str
    gold_text: str
    samples: tuple[tuple[str, float], ...]  # (text, bleu vs gold)


@dataclass(frozen=True)
class DpoPlan:
    gap_threshold: float = 0.10
    offline_rate: float = 0.7
    target_size: int = 10_000
    sample_temperature: float = 1.0
    samples_per_instance: int = 5
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.gap_threshold < 1:
            raise ConfigurationError(f"gap_threshold must be in (0, 1), got {self.gap_threshold}")
        if not 0 <= self.offline_rate <= 1:
            raise ConfigurationError(f"offline_rate must be in [0, 1], got {self.offline_rate}")
        for name, low in (("target_size", 0), ("samples_per_instance", 1), ("sample_temperature", 0)):
            if getattr(self, name) < low:
                raise ConfigurationError(f"{name} must be >= {low}, got {getattr(self, name)}")


def score_samples(
    instance_id: str,
    dataset: str,
    prompt: str,
    gold_text: str,
    client: BaseClient,
    n: int,
    temperature: float,
) -> ScoredSamples:
    """Draw n samples for the prompt, each with the gold text as its
    reference, and score each against the gold text, whose n-grams are
    counted once."""
    texts = [client.complete(prompt, temperature, i, reference=gold_text) for i in range(n)]
    reference = BleuReference.of(gold_text)
    samples = tuple((t, reference.score(t)) for t in texts)
    return ScoredSamples(instance_id, dataset, prompt, gold_text, samples)


def build_online_pair(s: ScoredSamples, gap: float) -> Optional[PreferencePair]:
    """Pair the highest- and lowest-scoring samples when their BLEU gap
    exceeds the threshold; ties break toward the lowest sample index."""
    if len(s.samples) < 2:
        return None
    scores = [score for _, score in s.samples]
    best = min(range(len(scores)), key=lambda i: (-scores[i], i))
    worst = min(range(len(scores)), key=lambda i: (scores[i], i))
    if scores[best] - scores[worst] <= gap:
        return None
    return PreferencePair(
        instance_id=s.instance_id,
        prompt=s.prompt,
        preferred=s.samples[best][0],
        dispreferred=s.samples[worst][0],
        preferred_score=scores[best],
        dispreferred_score=scores[worst],
        origin=ORIGIN_ONLINE,
        dataset=s.dataset,
    )


def build_offline_pair(s: ScoredSamples, gap: float) -> Optional[PreferencePair]:
    """Pair the ground truth (score 1.0 by convention) against the lowest
    sample; skip when the lowest sample already matches gold within the gap."""
    if not s.samples:
        return None
    scores = [score for _, score in s.samples]
    worst = min(range(len(scores)), key=lambda i: (scores[i], i))
    if scores[worst] >= 1.0 - gap:
        return None
    return PreferencePair(
        instance_id=s.instance_id,
        prompt=s.prompt,
        preferred=s.gold_text,
        dispreferred=s.samples[worst][0],
        preferred_score=1.0,
        dispreferred_score=scores[worst],
        origin=ORIGIN_OFFLINE,
        dataset=s.dataset,
    )


def assemble_dpo_corpus(
    pairs: Sequence[PreferencePair], plan: DpoPlan
) -> tuple[list[PreferencePair], dict]:
    """Sample candidates without replacement to the target size at the
    configured offline fraction (within one pair); deterministic shuffle."""
    online = [p for p in pairs if p.origin == ORIGIN_ONLINE]
    offline = [p for p in pairs if p.origin == ORIGIN_OFFLINE]
    n_offline = round(plan.target_size * plan.offline_rate)
    n_online = plan.target_size - n_offline
    if len(offline) < n_offline:
        logger.warning("offline candidates short: %d < %d", len(offline), n_offline)
        n_offline = len(offline)
    if len(online) < n_online:
        logger.warning("online candidates short: %d < %d", len(online), n_online)
        n_online = len(online)
    chosen_off = _sample(offline, n_offline, plan.seed, "offline")
    chosen_on = _sample(online, n_online, plan.seed, "online")
    corpus = chosen_off + chosen_on
    derive_rng(plan.seed, "dpo", "shuffle").shuffle(corpus)

    per_dataset: dict[str, dict] = {}
    for p in corpus:
        stats = per_dataset.setdefault(
            p.dataset, {"count": 0, "online": 0, "offline": 0, "delta_sum": 0.0}
        )
        stats["count"] += 1
        stats[p.origin] += 1
        stats["delta_sum"] += p.preferred_score - p.dispreferred_score
    for stats in per_dataset.values():
        stats["mean_delta"] = stats.pop("delta_sum") / stats["count"] if stats["count"] else 0.0

    on_ids = {p.instance_id for p in chosen_on}
    off_ids = {p.instance_id for p in chosen_off}
    summary = {
        "total": len(corpus),
        "online": len(chosen_on),
        "offline": len(chosen_off),
        "offline_rate": len(chosen_off) / len(corpus) if corpus else 0.0,
        "mean_delta": (
            sum(p.preferred_score - p.dispreferred_score for p in corpus) / len(corpus)
            if corpus
            else 0.0
        ),
        "instances_in_both": len(on_ids & off_ids),
        "per_dataset": per_dataset,
    }
    return corpus, summary


def _sample(pool: list[PreferencePair], n: int, seed: int, tag: str) -> list[PreferencePair]:
    if n >= len(pool):
        return list(pool)
    ordered = sorted(pool, key=lambda p: p.instance_id)
    return derive_rng(seed, "dpo", tag).sample(ordered, n)


# ---------------------------------------------------------------------------
# JSONL record format


def pair_to_record(pair: PreferencePair) -> dict:
    return {
        "id": pair.instance_id,
        "prompt": pair.prompt,
        "chosen": pair.preferred,
        "rejected": pair.dispreferred,
        "chosen_score": pair.preferred_score,
        "rejected_score": pair.dispreferred_score,
        "origin": pair.origin,
        "dataset": pair.dataset,
    }

