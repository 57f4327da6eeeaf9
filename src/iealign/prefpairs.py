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
from .seeds import derive_rng

logger = logging.getLogger(__name__)

ORIGIN_ONLINE = "online"
ORIGIN_OFFLINE = "offline"


@dataclass(frozen=True)
class DpoPlan:
    gap_threshold: float = 0.10
    offline_rate: float = 0.7
    target_size: int = 10_000
    sample_temperature: float = 1.0
    samples_per_instance: int = 5
    seed: int = 0
    pool_dir: Optional[str] = None

    def __post_init__(self):
        if not 0 < self.gap_threshold < 1:
            raise ConfigurationError(f"gap_threshold must be in (0, 1), got {self.gap_threshold}")
        if not 0 <= self.offline_rate <= 1:
            raise ConfigurationError(f"offline_rate must be in [0, 1], got {self.offline_rate}")
        for name, low in (("target_size", 0), ("samples_per_instance", 1), ("sample_temperature", 0)):
            if getattr(self, name) < low:
                raise ConfigurationError(f"{name} must be >= {low}, got {getattr(self, name)}")


def draw_samples(prompt: str, gold_text: str, client: BaseClient, n: int, temperature: float) -> tuple[str, ...]:
    """n samples for the prompt, each drawn with the gold text as its
    reference."""
    return tuple(client.complete(prompt, temperature, i, reference=gold_text) for i in range(n))


def score_samples(gold_text: str, texts: Sequence[str]) -> tuple[float, ...]:
    """The BLEU of each text against the gold text, whose n-grams are counted
    once."""
    return tuple(map(BleuReference.of(gold_text).score, texts))


def build_pairs(
    instance_id: str,
    dataset: str,
    prompt: str,
    gold_text: str,
    samples: Sequence[tuple[str, float]],
    gap: float,
) -> list[dict]:
    """The pair candidates of one instance's scored samples, each the record
    `dpo.jsonl` holds: `id`, `dataset`, `prompt`, `chosen`, `rejected`,
    `chosen_score`, `rejected_score` and `origin`. The online pair
    (highest- vs lowest-scoring sample) comes when their BLEU gap exceeds
    `gap`, then the offline pair (the gold text, score 1.0 by convention, vs
    the lowest sample) unless that sample is already within `gap` of gold.
    Ties break toward the lowest sample index."""
    if not samples:
        return []
    chosen, chosen_score = max(samples, key=lambda sample: sample[1])  # the first of equal ones, as min's
    rejected, rejected_score = min(samples, key=lambda sample: sample[1])
    rejected_side = {"id": instance_id, "dataset": dataset, "prompt": prompt,
                     "rejected": rejected, "rejected_score": rejected_score}
    pairs = []
    if chosen_score - rejected_score > gap:
        pairs.append({**rejected_side, "chosen": chosen, "chosen_score": chosen_score, "origin": ORIGIN_ONLINE})
    if rejected_score < 1.0 - gap:
        pairs.append({**rejected_side, "chosen": gold_text, "chosen_score": 1.0, "origin": ORIGIN_OFFLINE})
    return pairs


def assemble_dpo_corpus(pairs: Sequence[dict], plan: DpoPlan) -> tuple[list[dict], dict]:
    """Sample candidates without replacement to the target size at the
    configured offline fraction (within one pair); deterministic shuffle."""
    online = [p for p in pairs if p["origin"] == ORIGIN_ONLINE]
    offline = [p for p in pairs if p["origin"] == ORIGIN_OFFLINE]
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
    delta_sum = 0.0  # added in order, as in BleuReference.score
    for p in corpus:
        stats = per_dataset.setdefault(
            p["dataset"], {"count": 0, "online": 0, "offline": 0, "delta_sum": 0.0}
        )
        delta = p["chosen_score"] - p["rejected_score"]
        stats["count"] += 1
        stats[p["origin"]] += 1
        stats["delta_sum"] += delta
        delta_sum += delta
    for stats in per_dataset.values():
        stats["mean_delta"] = stats.pop("delta_sum") / stats["count"]

    on_ids = {p["id"] for p in chosen_on}
    off_ids = {p["id"] for p in chosen_off}
    summary = {
        "candidate_online": len(online),
        "candidate_offline": len(offline),
        "total": len(corpus),
        "online": len(chosen_on),
        "offline": len(chosen_off),
        "offline_rate": len(chosen_off) / len(corpus) if corpus else 0.0,
        "mean_delta": delta_sum / len(corpus) if corpus else 0.0,
        "instances_in_both": len(on_ids & off_ids),
        "per_dataset": per_dataset,
    }
    return corpus, summary


def _sample(pool: list[dict], n: int, seed: int, tag: str) -> list[dict]:
    if n >= len(pool):
        return list(pool)
    ordered = sorted(pool, key=lambda p: p["id"])
    return derive_rng(seed, "dpo", tag).sample(ordered, n)
