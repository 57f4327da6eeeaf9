"""Generation-and-review tests: pool growth, CoT generation, and the review
queue with audit log."""

import json

import pytest

from iealign.augment import (
    KIND_TASK_DESCRIPTION,
    STATUS_ACCEPTED,
    STATUS_PENDING,
    STATUS_REJECTED,
    GenCandidate,
    generate_cot,
    grow_task_descriptions,
    load_candidates,
    review,
    sample_words_limit,
    save_candidates,
)
from iealign.client import BaseClient, MockClient
from iealign.errors import ConfigurationError, DataError
from iealign.model import TaskKind
from iealign.prompts import DescriptionPool, load_description_pool


class _SequenceClient(BaseClient):
    """Returns queued responses in order regardless of the prompt."""

    def __init__(self, responses):
        super().__init__()
        self.responses = list(responses)
        self.n = 0

    def _generate(self, prompt, temperature, index, reference):
        if self.n >= len(self.responses):
            return ""
        text = self.responses[self.n]
        self.n += 1
        return text


# ---------------------------------------------------------------------------
# Description growth


def test_grow_descriptions_reaches_target_and_dedups():
    pool = DescriptionPool(TaskKind.NER, manual=["one", "two", "three", "four"])
    responses = ["new a", "new b", "new a", "NEW   B", "new c"]
    client = _SequenceClient(responses)
    out = grow_task_descriptions(pool, client, target=3, seed=0)
    assert [c.text for c in out] == ["new a", "new b", "new c"]
    assert all(c.status == STATUS_PENDING for c in out)
    assert all(c.kind == KIND_TASK_DESCRIPTION for c in out)


def test_grow_descriptions_requires_three_manual():
    pool = DescriptionPool(TaskKind.NER, manual=["only", "two"])
    with pytest.raises(ConfigurationError):
        grow_task_descriptions(pool, MockClient(policy="fixed:x"), target=1)


def test_grow_descriptions_stops_at_iteration_cap():
    pool = DescriptionPool(TaskKind.NER, manual=["a", "b", "c"])
    client = _SequenceClient(["same"] * 100)
    out = grow_task_descriptions(pool, client, target=5, seed=0)
    assert len(out) == 1  # duplicates never accumulate
    assert client.n == 50  # 10 * target requests, then it gives up


# ---------------------------------------------------------------------------
# Chain of thought


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


# ---------------------------------------------------------------------------
# Review queue


def _pending(text="candidate text", task="NER"):
    return GenCandidate(KIND_TASK_DESCRIPTION, task, text, source="abc")


def test_review_accept_appends_to_pool_and_audit(tmp_path):
    cand = _pending()
    audit = tmp_path / "audit.jsonl"
    review([cand], {cand.id: "accept"}, pool_dir=str(tmp_path / "pools"), audit_path=str(audit))
    assert cand.status == STATUS_ACCEPTED
    pool = load_description_pool(TaskKind.NER, str(tmp_path / "pools"))
    assert "candidate text" in pool.generated
    entries = [json.loads(l) for l in audit.read_text().splitlines()]
    assert entries[0]["decision"] == "accept" and entries[0]["id"] == cand.id


def test_review_reject_and_errors(tmp_path):
    cand = _pending("another")
    review([cand], {cand.id: "reject"})
    assert cand.status == STATUS_REJECTED
    with pytest.raises(DataError, match="already decided"):
        review([cand], {cand.id: "accept"})
    with pytest.raises(DataError, match="unknown candidate"):
        review([cand], {"nope": "accept"})
    fresh = _pending("third")
    with pytest.raises(DataError, match="bad decision"):
        review([fresh], {fresh.id: "maybe"})
    # an accepted description with nowhere to go changes no candidate
    other = _pending("fourth")
    with pytest.raises(ConfigurationError, match="pool directory"):
        review([fresh, other], {fresh.id: "reject", other.id: "accept"})
    assert fresh.status == other.status == STATUS_PENDING


def test_candidates_file_roundtrip(tmp_path):
    cands = [_pending("a"), _pending("b")]
    path = tmp_path / "cands.jsonl"
    save_candidates(cands, path)
    # a record written when candidates also carried `diagnostic` and `parts`
    with open(path, "a", encoding="utf-8") as f:
        f.write(json.dumps(dict(_pending("c").to_record(), diagnostic="", parts=None)) + "\n")
    back = load_candidates(path)
    assert [c.text for c in back] == ["a", "b", "c"]
    assert [c.id for c in back] == [c.id for c in cands] + [_pending("c").id]
