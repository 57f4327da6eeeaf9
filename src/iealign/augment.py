"""LLM-assisted generation of task descriptions, output-format templates, and
chain-of-thought explanations, with a human review queue.

Generated candidates are Pending until a reviewer accepts or rejects them;
only Accepted texts ever reach the description pools or the format library.
All client calls go through the cached model client, so reruns are free and
resumable.
"""

from __future__ import annotations

import hashlib
import json
import logging
import random
import re
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Optional

from .client import BaseClient, GenParams, TransportError, prompt_digest
from .errors import ConfigurationError, DataError
from .formats import template_slots
from .model import OPTIONAL_SLOTS, TASK_SLOTS, TaskKind, read_records, write_jsonl_atomic
from .prompts import DescriptionPool

logger = logging.getLogger(__name__)

KIND_TASK_DESCRIPTION = "TaskDescription"
KIND_FORMAT_TEMPLATE = "FormatTemplate"
KIND_COT = "CotExplanation"

STATUS_PENDING = "Pending"
STATUS_ACCEPTED = "Accepted"
STATUS_REJECTED = "Rejected"

COT_WORDS_RANGE = (70, 200)
# Sampling parameters of every generation request: descriptions, format
# templates and CoT explanations.
GENERATION_PARAMS = GenParams(temperature=0.7)

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
    diagnostic: str = ""
    parts: Optional[dict] = None  # FormatTemplate only

    @property
    def id(self) -> str:
        return hashlib.sha256(f"{self.kind}|{self.task}|{self.text}".encode()).hexdigest()[:16]

    def to_record(self) -> dict:
        rec = asdict(self)
        rec["id"] = self.id
        return rec


def candidate_from_record(rec: dict) -> GenCandidate:
    return GenCandidate(
        kind=rec["kind"],
        task=rec["task"],
        text=rec["text"],
        source=rec["source"],
        status=rec.get("status", STATUS_PENDING),
        diagnostic=rec.get("diagnostic", ""),
        parts=rec.get("parts"),
    )


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
    iteration_cap: Optional[int] = None,
) -> list[GenCandidate]:
    """Iteratively prompt with 3 random manual + up to 2 previously generated
    descriptions until `target` distinct Pending candidates exist."""
    if len(pool.manual) < 3:
        raise ConfigurationError(
            f"need at least 3 manual descriptions for {pool.task.value}, have {len(pool.manual)}"
        )
    cap = iteration_cap if iteration_cap is not None else 10 * target
    rng = random.Random(seed)
    candidates: list[GenCandidate] = []
    seen = {_normalize(d) for d in pool.all()}
    for iteration in range(cap):
        if len(candidates) >= target:
            break
        manual = rng.sample(pool.manual, 3)
        prior = [c.text for c in candidates]
        generated = rng.sample(prior, min(2, len(prior)))
        prompt = _growth_prompt(pool.task, manual, generated)
        try:
            text = client.complete(prompt, GENERATION_PARAMS, index=iteration).strip()
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
# Output-format template generation

_PART_RE = re.compile(
    r"\(1\)\s*Instruction:\s*(?P<instruction>.*?)"
    r"\(2\)\s*Fail output:\s*(?P<fail_output>.*?)"
    r"\(3\)\s*Input template:\s*(?P<input_template>.*?)"
    r"\(4\)\s*Answer template:\s*(?P<answer_template>.*)",
    re.DOTALL,
)


def _format_prompt(task: TaskKind, exemplar: dict) -> str:
    slots = ", ".join("{" + s + "}" for s in TASK_SLOTS[task])
    return (
        "You need to follow the template list to come up with a set of diverse templates.\n"
        f'The task indicated by this template is the "{task.value}" information extraction task.\n'
        "We need to write the instruction, input format and corresponding output format template for it.\n"
        "The instruction template content should include the following strings to facilitate "
        "subsequent replacement of the content: {text}.\n"
        "The answer template content should include the following strings to facilitate "
        f"subsequent replacement of the content: {slots}.\n"
        "Here are the requirements:\n"
        "1. Try not to repeat the verb for each template to maximize diversity.\n"
        "2. The language used for the template also should be diverse.\n"
        "3. Input and output templates should also be as diverse as possible.\n"
        "4. Input and output must correspond to each other.\n"
        "5. The templates should be in English.\n"
        "\n"
        "Template 1:\n"
        f"(1) Instruction: {exemplar['instruction']}\n"
        f"(2) Fail output: {exemplar['fail_output']}\n"
        f"(3) Input template: {exemplar['input_template']}\n"
        f"(4) Answer template: {exemplar['answer_template']}\n"
        "\n"
        "Please follow the format given in the example to generate 1 templates."
    )


def parse_template_parts(text: str) -> Optional[dict]:
    m = _PART_RE.search(text)
    if m is None:
        return None
    return {k: v.strip().rstrip(",") for k, v in m.groupdict().items()}


def validate_template_parts(task: TaskKind, parts: dict) -> list[str]:
    problems = []
    if "{text}" not in parts["instruction"]:
        problems.append("instruction missing {text} placeholder")
    if not parts["fail_output"]:
        problems.append("empty fail output")
    required = set(TASK_SLOTS[task]) - set(OPTIONAL_SLOTS.get(task, ()))
    used = set(template_slots(parts["answer_template"]))
    missing = required - used
    if missing:
        problems.append(f"answer template missing placeholders {sorted(missing)}")
    unknown = used - set(TASK_SLOTS[task])
    if unknown:
        problems.append(f"answer template has unknown placeholders {sorted(unknown)}")
    return problems


def generate_format_templates(
    task: TaskKind,
    client: BaseClient,
    exemplars: list[dict],
    target: int = 15,
    seed: int = 0,
    iteration_cap: Optional[int] = None,
) -> list[GenCandidate]:
    """Generate format-template candidates; candidates that fail placeholder
    validation are auto-Rejected with a diagnostic."""
    if not exemplars:
        raise ConfigurationError(f"no seed exemplar templates for task {task.value}")
    if task not in TASK_SLOTS:
        raise ConfigurationError(f"format templates not applicable to task {task.value}")
    cap = iteration_cap if iteration_cap is not None else 10 * target
    rng = random.Random(seed)
    candidates: list[GenCandidate] = []
    seen: set[str] = set()
    pending = 0
    for iteration in range(cap):
        if pending >= target:
            break
        prompt = _format_prompt(task, rng.choice(exemplars))
        try:
            text = client.complete(prompt, GENERATION_PARAMS, index=iteration).strip()
        except TransportError as e:
            logger.error("generation failed after retries, returning partial result: %s", e)
            break
        if not text or _normalize(text) in seen:
            continue
        seen.add(_normalize(text))
        source = prompt_digest(prompt)
        parts = parse_template_parts(text)
        if parts is None:
            candidates.append(
                GenCandidate(KIND_FORMAT_TEMPLATE, task.value, text, source,
                             status=STATUS_REJECTED, diagnostic="unparseable template response")
            )
            continue
        problems = validate_template_parts(task, parts)
        if problems:
            candidates.append(
                GenCandidate(KIND_FORMAT_TEMPLATE, task.value, text, source,
                             status=STATUS_REJECTED, diagnostic="; ".join(problems), parts=parts)
            )
            continue
        candidates.append(
            GenCandidate(KIND_FORMAT_TEMPLATE, task.value, text, source, parts=parts)
        )
        pending += 1
    return candidates


# ---------------------------------------------------------------------------
# Chain-of-thought explanations


@dataclass(frozen=True)
class CotRequest:
    question: str
    answer: str
    words_limit: int

    def __post_init__(self):
        lo, hi = COT_WORDS_RANGE
        if not lo <= self.words_limit <= hi:
            raise ConfigurationError(
                f"words_limit must be in [{lo}, {hi}], got {self.words_limit}"
            )


def sample_words_limit(rng: random.Random) -> int:
    return rng.randint(*COT_WORDS_RANGE)


def generate_cot(req: CotRequest, client: BaseClient) -> str:
    prompt = COT_PROMPT_TEMPLATE.format(
        words_number=req.words_limit, input=req.question, output=req.answer
    )
    text = client.complete(prompt, GENERATION_PARAMS).strip()
    if not text:
        raise DataError("empty CoT explanation from client")
    n_words = len(text.split())
    if n_words > req.words_limit * 1.5:
        logger.warning("CoT explanation is %d words, limit was %d", n_words, req.words_limit)
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
    decision is appended to the audit log."""
    by_id = {c.id: c for c in candidates}
    for cid, decision in decisions.items():
        if cid not in by_id:
            raise DataError(f"unknown candidate id {cid!r}")
        cand = by_id[cid]
        if cand.status != STATUS_PENDING:
            raise DataError(f"candidate {cid} already decided ({cand.status})")
        if decision not in ("accept", "reject"):
            raise DataError(f"bad decision {decision!r} for candidate {cid}")
        cand.status = STATUS_ACCEPTED if decision == "accept" else STATUS_REJECTED
        if cand.status == STATUS_ACCEPTED and pool_dir and cand.kind == KIND_TASK_DESCRIPTION:
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
