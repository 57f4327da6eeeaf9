"""LLM-assisted generation of task descriptions and chain-of-thought
explanations, with a human review queue for the descriptions.

Generated descriptions are Pending until a reviewer accepts or rejects them;
only Accepted ones ever reach the description pools. All client calls go
through the cached model client, so reruns are free and resumable.
"""

from __future__ import annotations

import hashlib
import json
import logging
import random
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Optional

from .client import BaseClient, TransportError, prompt_digest
from .errors import ConfigurationError, DataError
from .model import TaskKind, read_records, write_jsonl_atomic
from .prompts import DescriptionPool

logger = logging.getLogger(__name__)

KIND_TASK_DESCRIPTION = "TaskDescription"

STATUS_PENDING = "Pending"
STATUS_ACCEPTED = "Accepted"
STATUS_REJECTED = "Rejected"

COT_WORDS_RANGE = (70, 200)
# Sampling temperature of every generation request: descriptions and CoT
# explanations.
GENERATION_TEMPERATURE = 0.7

COT_PROMPT_TEMPLATE = """\
Please generate a step-by-step explanation for [Answer] based on [Question], and give reasons for each step.
The generated explanation should make use of the content in the [Question] as much as possible, and must be consistent with the [Answer].
It will eventually be provided at the front of the answer.
No more than {words_number} words.

[Question]: {input}
[Answer]: {output}
[Step-by-Step Explanation]:"""


@dataclass
class GenCandidate:
    kind: str
    task: str
    text: str
    source: str  # digest of the prompt that produced it
    status: str = STATUS_PENDING

    @property
    def id(self) -> str:
        return hashlib.sha256(f"{self.kind}|{self.task}|{self.text}".encode()).hexdigest()[:16]

    def to_record(self) -> dict:
        rec = asdict(self)
        rec["id"] = self.id
        return rec


def candidate_from_record(rec: dict) -> GenCandidate:
    """The candidate a JSONL record holds. A field that is not a string is a
    TypeError and a task that is not a TaskKind value a ValueError, so no
    pool path is ever built from an unchecked task."""
    fields = {name: rec[name] for name in ("kind", "task", "text", "source")}
    fields["status"] = rec.get("status", STATUS_PENDING)
    for name, value in fields.items():
        if not isinstance(value, str):
            raise TypeError(f"candidate {name} is {type(value).__name__}, not a string")
    TaskKind(fields["task"])
    return GenCandidate(**fields)


def _normalize(text: str) -> str:
    return " ".join(text.lower().split())


# ---------------------------------------------------------------------------
# Task description growth


def _growth_prompt(task: TaskKind, manual: list[str], generated: list[str]) -> str:
    numbered = "\n".join(f"{i}. {d}" for i, d in enumerate(manual + generated, 1))
    return (
        f"Here are several descriptions of the {task.value} information extraction task:\n"
        f"{numbered}\n\n"
        "Write one new description of the same task with the same meaning but different "
        "wording and sentence structure. Output only the new description."
    )


def grow_task_descriptions(
    pool: DescriptionPool,
    client: BaseClient,
    target: int = 20,
    seed: int = 0,
) -> list[GenCandidate]:
    """Iteratively prompt with 3 random manual + up to 2 previously generated
    descriptions until `target` distinct Pending candidates exist, making at
    most 10 * `target` requests."""
    if len(pool.manual) < 3:
        raise ConfigurationError(
            f"need at least 3 manual descriptions for {pool.task.value}, have {len(pool.manual)}"
        )
    rng = random.Random(seed)
    candidates: list[GenCandidate] = []
    seen = {_normalize(d) for d in pool.all()}
    for iteration in range(10 * target):
        if len(candidates) >= target:
            break
        manual = rng.sample(pool.manual, 3)
        prior = [c.text for c in candidates]
        generated = rng.sample(prior, min(2, len(prior)))
        prompt = _growth_prompt(pool.task, manual, generated)
        try:
            text = client.complete(prompt, GENERATION_TEMPERATURE, index=iteration).strip()
        except TransportError as e:
            logger.error("generation failed after retries, returning partial result: %s", e)
            break
        if not text or _normalize(text) in seen:
            continue
        seen.add(_normalize(text))
        candidates.append(
            GenCandidate(KIND_TASK_DESCRIPTION, pool.task.value, text, prompt_digest(prompt))
        )
    return candidates


# ---------------------------------------------------------------------------
# Chain-of-thought explanations


def sample_words_limit(rng: random.Random) -> int:
    return rng.randint(*COT_WORDS_RANGE)


def generate_cot(question: str, answer: str, words_limit: int, client: BaseClient) -> str:
    prompt = COT_PROMPT_TEMPLATE.format(words_number=words_limit, input=question, output=answer)
    text = client.complete(prompt, GENERATION_TEMPERATURE).strip()
    if not text:
        raise DataError("empty CoT explanation from client")
    n_words = len(text.split())
    if n_words > words_limit * 1.5:
        logger.warning("CoT explanation is %d words, limit was %d", n_words, words_limit)
    return text


# ---------------------------------------------------------------------------
# Review queue


def load_candidates(path) -> list[GenCandidate]:
    return read_records(path, candidate_from_record)


def save_candidates(candidates: list[GenCandidate], path) -> None:
    write_jsonl_atomic((c.to_record() for c in candidates), path)


def review(
    candidates: list[GenCandidate],
    decisions: dict[str, str],
    pool_dir: Optional[str] = None,
    audit_path: Optional[str] = None,
) -> list[GenCandidate]:
    """Apply accept/reject decisions to Pending candidates. Accepted task
    descriptions are appended to `pool_dir/<task>/generated.txt`; every
    decision is appended to the audit log. Every decision is checked before
    any candidate changes, so a bad one leaves them all as they were."""
    by_id = {c.id: c for c in candidates}
    for cid, decision in decisions.items():
        if cid not in by_id:
            raise DataError(f"unknown candidate id {cid!r}")
        cand = by_id[cid]
        if cand.status != STATUS_PENDING:
            raise DataError(f"candidate {cid} already decided ({cand.status})")
        if decision not in ("accept", "reject"):
            raise DataError(f"bad decision {decision!r} for candidate {cid}")
        if decision == "accept" and cand.kind == KIND_TASK_DESCRIPTION and not pool_dir:
            raise ConfigurationError(
                f"accepting task description {cid} needs a pool directory to append it to"
            )
    for cid, decision in decisions.items():
        cand = by_id[cid]
        cand.status = STATUS_ACCEPTED if decision == "accept" else STATUS_REJECTED
        if cand.status == STATUS_ACCEPTED and cand.kind == KIND_TASK_DESCRIPTION:
            dest = Path(pool_dir) / cand.task / "generated.txt"
            dest.parent.mkdir(parents=True, exist_ok=True)
            with open(dest, "a", encoding="utf-8") as f:
                f.write(cand.text.replace("\n", " ") + "\n")
        if audit_path:
            with open(audit_path, "a", encoding="utf-8") as f:
                f.write(json.dumps({"id": cand.id, "decision": decision, "kind": cand.kind,
                                    "task": cand.task, "text": cand.text},
                                   ensure_ascii=False, sort_keys=True) + "\n")
    return candidates
