"""Chain-of-thought generation tests: the word limit, the prompt and an empty
response."""

import pytest

from iealign.augment import generate_cot, sample_words_limit
from iealign.client import BaseClient, MockClient
from iealign.errors import DataError


def test_sample_words_limit_range():
    import random

    rng = random.Random(0)
    values = {sample_words_limit(rng) for _ in range(500)}
    assert min(values) >= 70 and max(values) <= 200


def test_generate_cot_uses_prompt_fields():
    captured = {}

    class _Capture(BaseClient):
        def _generate(self, prompt, temperature, index, reference):
            captured["prompt"] = prompt
            return "Because the text mentions it."

    text = generate_cot("the question", "the answer", 100, _Capture())
    assert text == "Because the text mentions it."
    assert "the question" in captured["prompt"]
    assert "the answer" in captured["prompt"]
    assert "100" in captured["prompt"]


def test_generate_cot_empty_response_raises():
    with pytest.raises(DataError):
        generate_cot("q", "a", 100, MockClient(policy="fixed:"))
