"""Canonical data model shared by every pipeline stage.

All types are immutable values after construction. Instances round-trip
through one JSON object per line (UTF-8) with fields exactly
{id, dataset, task, text, schema, gold, is_na}; unknown fields are rejected.
This module is also the one place that decides how a file is written
(`atomic_open`; `write_json_atomic` for every JSON report) and how JSONL is
read back: `read_records` is the one loop over the lines of a JSONL file.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional, TextIO, TypeVar

from .errors import DataError

T = TypeVar("T")

logger = logging.getLogger(__name__)


class TaskKind(str, Enum):
    NER = "NER"
    RC = "RC"
    RE = "RE"
    ED = "ED"
    EAE = "EAE"
    EE = "EE"
    ERE = "ERE"
    OPENIE = "OpenIE"
    ONDEMANDIE = "OnDemandIE"


CLOSED_IE_TASKS = frozenset(
    {TaskKind.NER, TaskKind.RC, TaskKind.RE, TaskKind.ED, TaskKind.EAE, TaskKind.EE, TaskKind.ERE}
)
# Closed-IE tasks whose items hold their one schema label at index 1 (all but EE).
_PAIR_LABEL_TASKS = (TaskKind.NER, TaskKind.RC, TaskKind.RE, TaskKind.ED, TaskKind.EAE, TaskKind.ERE)

# Canonical slot order per task; template slot names map to item positions.
# OnDemandIE has no items.
TASK_SLOTS: dict[TaskKind, tuple[str, ...]] = {
    TaskKind.NER: ("entity", "type"),
    TaskKind.RC: ("subject", "relation", "object"),
    TaskKind.RE: ("subject", "relation", "object"),
    TaskKind.ED: ("event", "class"),
    TaskKind.EAE: ("word", "role"),
    TaskKind.EE: ("trigger", "type", "arguments"),
    TaskKind.ERE: ("first_event", "relation", "second_event"),
    TaskKind.OPENIE: ("predicate", "subject", "object", "time", "location"),
}

EE_ARG_SLOTS = ("word", "role")

# Trailing OpenIE slots that may be omitted entirely.
OPTIONAL_SLOTS: dict[TaskKind, tuple[str, ...]] = {
    TaskKind.OPENIE: ("time", "location"),
}


@dataclass(frozen=True)
class LabelDef:
    name: str
    guideline: Optional[str] = None
    exemplars: tuple[str, ...] = ()


@dataclass(frozen=True)
class SchemaDef:
    task: TaskKind
    labels: tuple[LabelDef, ...]

    def label_names(self) -> tuple[str, ...]:
        return tuple(l.name for l in self.labels)

    def validate(self) -> list[str]:
        problems = []
        names = self.label_names()
        if len(set(names)) != len(names):
            problems.append("schema: duplicate label names")
        for l in self.labels:
            if l.guideline is not None and not (isinstance(l.guideline, str) and l.guideline.strip()):
                problems.append(f"schema: guideline for label {l.name!r} is not a non-empty string")
        return problems


@dataclass(frozen=True)
class Extraction:
    """Task-tagged extraction result.

    Item tuple shapes per task:
      NER    (mention, label)
      RC     (subject, relation, object)  -- exactly one item
      RE     (subject, relation, object)
      ED     (trigger, event_type)
      EAE    (argument, role)             -- `trigger` names the event
      EE     (trigger, event_type, ((argument, role), ...))
      ERE    (event1, relation, event2)
      OpenIE (predicate, subject, object, time | None, location | None)
      OnDemandIE has no items; `table` holds the markdown table text.
    """

    task: TaskKind
    items: tuple[tuple, ...] = ()
    trigger: Optional[str] = None
    table: Optional[str] = None

    def is_empty(self) -> bool:
        if self.task is TaskKind.ONDEMANDIE:
            return False
        return len(self.items) == 0

    # Label-slot dispatch, the same in the three methods below: EE nests roles
    # under each event type, every other closed-IE task keeps its label at
    # index 1, and schema-free tasks carry no schema labels.

    def labels_used(self) -> tuple[str, ...]:
        """Schema-constrained label strings appearing in the items."""
        if self.task is TaskKind.EE:
            out: list[str] = []
            for trig, etype, args in self.items:
                out.append(etype)
                out.extend(role for _, role in args)
            return tuple(out)
        if self.task in _PAIR_LABEL_TASKS:
            return tuple(it[1] for it in self.items)
        return ()

    def relabel(self, mapping: dict[str, str]) -> "Extraction":
        """Return a copy with every schema label renamed through `mapping`."""

        def m(x: str) -> str:
            return mapping.get(x, x)

        if self.task is TaskKind.EE:
            items = tuple(
                (trig, m(etype), tuple((a, m(r)) for a, r in args)) for trig, etype, args in self.items
            )
        elif self.task in _PAIR_LABEL_TASKS:
            items = tuple((it[0], m(it[1])) + tuple(it[2:]) for it in self.items)
        else:
            items = self.items
        return Extraction(self.task, items, self.trigger, self.table)

    def restrict(self, allowed: Iterable[str]) -> "Extraction":
        """Drop items whose label is outside `allowed` (closed IE only)."""
        allowed = set(allowed)
        if self.task is TaskKind.EE:
            items = tuple(
                (trig, etype, tuple((a, r) for a, r in args if r in allowed))
                for trig, etype, args in self.items
                if etype in allowed
            )
        elif self.task in _PAIR_LABEL_TASKS:
            items = tuple(it for it in self.items if it[1] in allowed)
        else:
            items = self.items
        return Extraction(self.task, items, self.trigger, self.table)


@dataclass(frozen=True)
class IEInstance:
    id: str
    dataset: str
    task: TaskKind
    text: str
    schema: Optional[SchemaDef]
    gold: Extraction
    is_na: bool


@dataclass(frozen=True)
class FormatSpec:
    """One output-format description: how answers are rendered and parsed."""

    family: str  # Triplet | Json | NaturalLanguage | Markdown
    name: str
    task: TaskKind
    input_template: str  # natural-language description of the format, shown in the prompt
    answer_template: str  # per-item template with named slots
    item_separator: str = " "
    fail_output: str = "NA"
    answer_prefix: str = ""  # literal text before the first item, e.g. "[Answer]: "
    arg_template: str = ""  # EE only: per-argument sub-template
    arg_separator: str = ", "  # EE only


@dataclass(frozen=True)
class AlignmentExample:
    instance_id: str
    task: TaskKind
    prompt: str
    demonstrations: tuple[tuple[str, str], ...]
    output: str
    answer: str  # output minus the CoT preamble (equal to output when cot is None)
    cot: Optional[str]
    format: FormatSpec
    schema_view_labels: tuple[str, ...]  # labels as shown in the prompt ([] for open/on-demand)
    has_guidelines: bool = False
    symbolized: bool = False


@dataclass(frozen=True)
class PreferencePair:
    instance_id: str
    prompt: str
    preferred: str
    dispreferred: str
    preferred_score: float
    dispreferred_score: float
    origin: str  # "online" | "offline"
    dataset: str = ""


# ---------------------------------------------------------------------------
# Identity and validation


def stable_id(dataset: str, index: int, text: str) -> str:
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
    return f"{dataset}-{index}-{digest}"


def gold_shape_problems(gold: Extraction) -> list[str]:
    """Problems with the shape of `gold`, as raw input can have them: every
    item must have the task's width (`TASK_SLOTS`; EE arguments
    `EE_ARG_SLOTS`) and string slot values (an absent optional slot is None;
    an OpenIE value must not be empty, as it would not parse back), and a
    trigger or table must be a string or None."""
    problems = []
    for name, value in (("trigger", gold.trigger), ("table", gold.table)):
        if value is not None and not isinstance(value, str):
            problems.append(f"gold: {name} {value!r} is not a string")
    slots = TASK_SLOTS.get(gold.task, ())
    optional = OPTIONAL_SLOTS.get(gold.task, ())
    for it in gold.items:
        if len(it) != len(slots):
            problems.append(f"gold: item {it!r} has {len(it)} slots, expected {len(slots)}")
            continue
        values = it
        if gold.task is TaskKind.EE:
            values = list(it[:2])
            for arg in it[2]:
                if len(arg) != len(EE_ARG_SLOTS):
                    problems.append(f"gold: argument {arg!r} has {len(arg)} slots, expected {len(EE_ARG_SLOTS)}")
                values.extend(arg)
        elif optional:
            values = [v for slot, v in zip(slots, it) if v is not None or slot not in optional]
        if not all(isinstance(v, str) for v in values):
            problems.append(f"gold: item {it!r} has a slot value that is not a string")
        elif gold.task is TaskKind.OPENIE and "" in values:
            problems.append(f"gold: OpenIE item {it!r} has an empty slot value")
    return problems


def validate_extraction(gold: Extraction, schema: Optional[SchemaDef]) -> list[str]:
    # The checks below hash items and read their labels, so they need well-shaped items.
    problems = gold_shape_problems(gold)
    if problems:
        return problems
    if gold.task is TaskKind.RC and len(gold.items) > 1:
        problems.append("gold: RC carries more than one relation item")
    if gold.task is TaskKind.EAE and gold.items and gold.trigger is None:
        problems.append("gold: EAE items without a trigger")
    if gold.task is TaskKind.ONDEMANDIE and gold.table is None:
        problems.append("gold: OnDemandIE without a table")
    if len(set(gold.items)) != len(gold.items):
        problems.append("gold: duplicate tuple")
    if gold.task in CLOSED_IE_TASKS:
        if schema is None:
            problems.append("schema: missing for closed IE task")
        else:
            known = set(schema.label_names())
            for lab in gold.labels_used():
                if lab not in known:
                    problems.append(f"gold: label {lab!r} not in schema")
    return problems


def validate_instance(inst: IEInstance) -> list[str]:
    problems = []
    if inst.task is not inst.gold.task:
        problems.append(f"task: instance task {inst.task.value} != gold task {inst.gold.task.value}")
    if inst.schema is not None:
        if inst.schema.task is not inst.task:
            problems.append("schema: task mismatch")
        problems.extend(inst.schema.validate())
    problems.extend(validate_extraction(inst.gold, inst.schema))
    if inst.task is TaskKind.ONDEMANDIE:
        if inst.is_na:
            problems.append("is_na: OnDemandIE instances are never NA")
    elif inst.is_na != inst.gold.is_empty():
        problems.append("is_na: inconsistent with gold emptiness")
    if not inst.text:
        problems.append("text: empty")
    return problems


# ---------------------------------------------------------------------------
# Canonical JSONL record format

RECORD_FIELDS = ("id", "dataset", "task", "text", "schema", "gold", "is_na")


def gold_to_json(gold: Extraction) -> Any:
    task = gold.task
    if task is TaskKind.ONDEMANDIE:
        return {"table": gold.table}
    if task is TaskKind.EAE:
        return {"trigger": gold.trigger, "args": [list(it) for it in gold.items]}
    if task is TaskKind.EE:
        return [
            {"trigger": trig, "type": etype, "arguments": [list(a) for a in args]}
            for trig, etype, args in gold.items
        ]
    return [list(it) for it in gold.items]


def gold_from_json(task: TaskKind, data: Any) -> Extraction:
    if task is TaskKind.ONDEMANDIE:
        return Extraction(task, table=data["table"])
    if task is TaskKind.EAE:
        return Extraction(task, tuple(tuple(it) for it in data["args"]), trigger=data["trigger"])
    if task is TaskKind.EE:
        return Extraction(
            task,
            tuple(
                (ev["trigger"], ev["type"], tuple(tuple(a) for a in ev["arguments"])) for ev in data
            ),
        )
    return Extraction(task, tuple(tuple(it) for it in data))


def schema_to_json(schema: Optional[SchemaDef]) -> Any:
    if schema is None:
        return None
    return {
        "task": schema.task.value,
        "labels": [
            {"name": l.name, "guideline": l.guideline, "exemplars": list(l.exemplars)}
            for l in schema.labels
        ],
    }


def schema_from_json(data: Any) -> Optional[SchemaDef]:
    if data is None:
        return None
    return SchemaDef(
        task=TaskKind(data["task"]),
        labels=tuple(
            LabelDef(l["name"], l.get("guideline"), tuple(l.get("exemplars") or ()))
            for l in data["labels"]
        ),
    )


def instance_to_record(inst: IEInstance) -> dict:
    return {
        "id": inst.id,
        "dataset": inst.dataset,
        "task": inst.task.value,
        "text": inst.text,
        "schema": schema_to_json(inst.schema),
        "gold": gold_to_json(inst.gold),
        "is_na": inst.is_na,
    }


def instance_from_record(record: dict) -> IEInstance:
    unknown = set(record) - set(RECORD_FIELDS)
    if unknown:
        raise ValueError(f"unknown record fields: {sorted(unknown)}")
    missing = set(RECORD_FIELDS) - set(record)
    if missing:
        raise ValueError(f"missing record fields: {sorted(missing)}")
    task = TaskKind(record["task"])
    return IEInstance(
        id=record["id"],
        dataset=record["dataset"],
        task=task,
        text=record["text"],
        schema=schema_from_json(record["schema"]),
        gold=gold_from_json(task, record["gold"]),
        is_na=record["is_na"],
    )


@contextmanager
def atomic_open(path) -> Iterator[TextIO]:
    """Open a text file that replaces `path` when the block exits cleanly.

    Writes go to a temp file in the same directory, renamed over `path` on
    success and removed on any exception, so `path` only ever holds a complete
    file. The file gets the mode a plain ``open(path, "w")`` would give it.
    Text that UTF-8 cannot encode raises DataError naming `path`.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    f = open(tmp, "x", encoding="utf-8")
    try:
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException as e:
        tmp.unlink(missing_ok=True)
        if isinstance(e, UnicodeEncodeError):  # a lone surrogate, e.g. from a "\ud800" JSON escape
            raise DataError(f"cannot write {path}: {e}") from None
        raise


def write_json_atomic(data: Any, path) -> None:
    """Write one indented JSON document with sorted keys, atomically."""
    with atomic_open(path) as f:
        f.write(json.dumps(data, ensure_ascii=False, sort_keys=True, indent=2) + "\n")


def write_jsonl_atomic(records: Iterable[dict], path) -> None:
    """Write one JSON object per line, streaming `records`, atomically."""
    with atomic_open(path) as f:
        for rec in records:
            f.write(json.dumps(rec, ensure_ascii=False, sort_keys=True) + "\n")


def load_jsonl(path) -> list[Any]:
    """The value of each non-blank line, as `read_records` reads it."""
    return read_records(path, lambda value, lineno: value, lenient=False)[0]


def read_records(path, convert: Callable[[Any, int], T], lenient: bool) -> tuple[list[T], int]:
    """`convert(value, lineno)` of each non-blank line of a JSONL file, and the
    number of lines skipped. The file is read in binary mode and decoded line
    by line, so a bad byte is reported at its own line. A line that is not
    UTF-8 JSON, or that `convert` rejects with DataError, ValueError, KeyError
    or TypeError, raises DataError naming the line; when `lenient`, it is
    logged and skipped instead."""
    out: list[T] = []
    skipped = 0
    with open(path, "rb") as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                try:
                    value = json.loads(line.decode("utf-8"))
                except ValueError as e:  # JSONDecodeError or UnicodeDecodeError
                    raise DataError(f"invalid JSON: {e}", line=lineno) from None
                out.append(convert(value, lineno))
            except (DataError, ValueError, KeyError, TypeError) as e:
                error = e if isinstance(e, DataError) else DataError(f"bad record: {e!r}", line=lineno)
                if not lenient:
                    raise error from None
                logger.warning("skipping malformed line %s:%d: %s", path, lineno, error)
                skipped += 1
    return out, skipped


def write_instances(instances: Iterable[IEInstance], path) -> None:
    write_jsonl_atomic((instance_to_record(i) for i in instances), path)


def read_instances(path) -> list[IEInstance]:
    """The canonical instances of a JSONL file. A record that is not a valid
    instance (`validate_instance`), or whose id an earlier line holds, is a
    DataError naming its line. Instances with equal schemas share one
    SchemaDef, so a file's many copies of a few schemas are not all kept."""
    seen: set[str] = set()
    schemas: dict[SchemaDef, SchemaDef] = {}

    def convert(record: Any, lineno: int) -> IEInstance:
        inst = instance_from_record(record)
        if not (isinstance(inst.id, str) and isinstance(inst.dataset, str) and isinstance(inst.text, str)
                and isinstance(inst.is_na, bool)):
            raise TypeError("instance id, dataset and text must be strings, and is_na a bool")
        if inst.schema is not None:
            inst = replace(inst, schema=schemas.setdefault(inst.schema, inst.schema))
        problems = validate_instance(inst)
        if problems:
            raise ValueError("invalid instance: " + "; ".join(problems))
        if inst.id in seen:
            raise ValueError(f"duplicate instance id {inst.id!r}")
        seen.add(inst.id)
        return inst

    return read_records(path, convert, lenient=False)[0]
