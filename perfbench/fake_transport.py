"""A stand-in for the HTTP session behind ``iealign.client.LiveClient``.

No network is touched. Each ``post`` sleeps a fixed latency and answers with a
corrupted copy of the gold answer for the prompt. The response is keyed by the
prompt's digest and by how many times that prompt was requested before, so the
output stays the same even if a later change reorders or interleaves calls.
"""

from __future__ import annotations

import hashlib
import random
import time
from collections import Counter

NOISE_WORDS = ("lorem", "ipsum", "quux", "zebra", "static", "filler", "garble", "jumble")
UNKNOWN_PROMPT_TEXT = "NA"


def prompt_key(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


class FakeResponse:
    status_code = 200

    def __init__(self, text: str):
        self._body = {"choices": [{"message": {"content": text}}]}

    def raise_for_status(self) -> None:
        pass

    def json(self) -> dict:
        return self._body


class FakeSession:
    """Chat-completion endpoint with fixed latency and token-corrupted gold.

    ``gold`` maps ``prompt_key(prompt)`` to the gold answer text. Each token
    of the gold is replaced with probability ``noise``.
    """

    def __init__(self, gold: dict[str, str], latency_s: float, noise: float, seed: int):
        self.gold = gold
        self.latency_s = latency_s
        self.noise = noise
        self.seed = seed
        self.posts = 0
        self.unknown_prompts = 0
        self._requests: Counter = Counter()

    def post(self, url, json, headers=None, timeout=None) -> FakeResponse:
        self.posts += 1
        key = prompt_key(json["messages"][0]["content"])
        nth = self._requests[key]
        self._requests[key] += 1
        gold = self.gold.get(key)
        if gold is None:
            self.unknown_prompts += 1
            text = UNKNOWN_PROMPT_TEXT
        else:
            rng = random.Random(f"{self.seed}|{key}|{nth}")
            text = " ".join(
                rng.choice(NOISE_WORDS) if rng.random() < self.noise else tok for tok in gold.split()
            )
        time.sleep(self.latency_s)
        return FakeResponse(text)
