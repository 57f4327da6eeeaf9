"""Canonical data model shared by every pipeline stage.

All types are immutable values after construction. Instances round-trip
through one JSON object per line (UTF-8) with fields exactly
{id, dataset, task, text, schema, gold, is_na}; unknown fields are rejected.
This module is also the one place that decides how a file is written
(`atomic_open`; `json_report` for the text of every JSON report, printed or
written, `jsonl_line` for every JSONL line) and how JSONL is read back:
`read_records` is the one loop over the lines of a JSONL file.
"""

from __future__ import annotations

import hashlib
import json
import logging
import marshal
import os
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import AbstractSet, Any, Callable, Iterable, Iterator, Mapping, Optional, TextIO, TypeVar

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
_PAIR_LABEL_TASKS = CLOSED_IE_TASKS - {TaskKind.EE}

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

# Each task's optional slots, the only ones an item may leave out (None): the
# last slots of TASK_SLOTS, which its answer templates may drop as their tail.
# Only `item_from_slots`, `slot_values` and `formats.compile_template` read it.
OPTIONAL_SLOTS: dict[TaskKind, tuple[str, ...]] = {
    TaskKind.OPENIE: ("object", "time", "location"),
}


_ITEM_OF = {task: itemgetter(*slots) for task, slots in TASK_SLOTS.items()}  # a tuple: 2+ slots each


def item_from_slots(task: TaskKind, values: Mapping[str, Any]) -> tuple:
    """The `task` item whose slots hold `values`, a slot -> value mapping. An
    optional slot that is missing or empty ("") is None, so an item reads the
    same whatever the format it was parsed from; a missing required slot is a
    KeyError."""
    optional = OPTIONAL_SLOTS.get(task)
    if optional is None:
        return _ITEM_OF[task](values)
    return tuple([values[slot] if slot not in optional else None if (v := values.get(slot)) == "" else v
                  for slot in TASK_SLOTS[task]])


def slot_values(task: TaskKind, item: tuple) -> list:
    """The values of a `task` item that must be strings: for EE the trigger,
    the type and each argument's word and role; for every other task each
    slot but an absent (None) optional one."""
    if task is TaskKind.EE:
        return [item[0], item[1], *chain.from_iterable(item[2])]
    optional = OPTIONAL_SLOTS.get(task)
    if optional is None:
        return list(item)
    return [v for slot, v in zip(TASK_SLOTS[task], item) if v is not None or slot not in optional]


@dataclass(frozen=True)
class LabelDef:
    name: str
    guideline: Optional[str] = None
    exemplars: tuple[str, ...] = ()


@dataclass(frozen=True)
class SchemaDef:
    """A task's labels. Its label strings and its problems are worked out once
    per object, so instances that share one SchemaDef share that work."""

    task: TaskKind
    labels: tuple[LabelDef, ...]

    def label_names(self) -> tuple[str, ...]:
        return tuple(l.name for l in self.labels)

    @cached_property
    def label_strings(self) -> dict[str, str]:
        """Each label name that is a string, mapped to that very string: the
        schema's label set, and the objects that gold read under it holds in
        its label slots (`gold_from_json`)."""
        return {l.name: l.name for l in self.labels if isinstance(l.name, str)}

    def validate(self) -> list[str]:
        """Problems with the schema itself: no labels, a label name that is
        not a non-empty string or that repeats, a guideline that is not a
        non-empty string, an exemplar that is not a string."""
        return list(self._problems)

    @cached_property
    def _problems(self) -> tuple[str, ...]:
        problems = [] if self.labels else ["schema: no labels"]
        names = [l.name for l in self.labels if isinstance(l.name, str) and l.name]
        if len(names) != len(self.labels):
            problems.append("schema: a label name is not a non-empty string")
        if len(set(names)) != len(names):
            problems.append("schema: duplicate label names")
        for l in self.labels:
            if l.guideline is not None and not (isinstance(l.guideline, str) and l.guideline.strip()):
                problems.append(f"schema: guideline for label {l.name!r} is not a non-empty string")
            if not all(isinstance(e, str) for e in l.exemplars):
                problems.append(f"schema: an exemplar of label {l.name!r} is not a string")
        return tuple(problems)


@dataclass(frozen=True, slots=True)
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
      OpenIE (predicate, subject, object | None, time | None, location | None)
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

    # Label-slot dispatch, the same in the two methods below: EE nests roles
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

    def project(self, allowed: AbstractSet[str], rename: Optional[Mapping[str, str]]) -> "Extraction":
        """A copy under a schema view: the items whose label is in `allowed`
        (an EE event keeps the arguments whose role is), each label then
        renamed through `rename` when it is a mapping. Schema-free tasks are
        kept as they are."""
        rename = rename or {}
        if self.task is TaskKind.EE:
            items = tuple(
                (trig, rename.get(etype, etype), tuple((a, rename.get(r, r)) for a, r in args if r in allowed))
                for trig, etype, args in self.items
                if etype in allowed
            )
        elif self.task in _PAIR_LABEL_TASKS:
            items = tuple((it[0], rename.get(it[1], it[1])) + it[2:] if rename else it
                          for it in self.items if it[1] in allowed)
        else:
            items = self.items
        return Extraction(self.task, items, self.trigger, self.table)


@dataclass(frozen=True, slots=True)
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


# ---------------------------------------------------------------------------
# Identity and validation


def stable_id(dataset: str, index: int, text: str) -> str:
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
    return f"{dataset}-{index}-{digest}"


def gold_shape_problems(gold: Extraction) -> list[str]:
    """Problems with the shape of `gold`, as raw input can have them: every
    item must have the task's width (`TASK_SLOTS`; EE arguments
    `EE_ARG_SLOTS`) and non-empty string `slot_values` (a template renders an
    empty value as nothing, so it would not parse back), and a trigger or
    table must be a string or None."""
    problems = []
    for name, value in (("trigger", gold.trigger), ("table", gold.table)):
        if value is not None and not isinstance(value, str):
            problems.append(f"gold: {name} {value!r} is not a string")
    slots = TASK_SLOTS.get(gold.task, ())
    for it in gold.items:
        if len(it) != len(slots):
            problems.append(f"gold: item {it!r} has {len(it)} slots, expected {len(slots)}")
            continue
        if gold.task is TaskKind.EE:
            for arg in it[2]:
                if len(arg) != len(EE_ARG_SLOTS):
                    problems.append(f"gold: argument {arg!r} has {len(arg)} slots, expected {len(EE_ARG_SLOTS)}")
        values = slot_values(gold.task, it)
        if not all(isinstance(v, str) for v in values):
            problems.append(f"gold: item {it!r} has a slot value that is not a string")
        elif "" in values:
            problems.append(f"gold: {gold.task.value} item {it!r} has an empty slot value")
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
            known = schema.label_strings
            for lab in gold.labels_used():
                if lab not in known:
                    problems.append(f"gold: label {lab!r} not in schema")
    return problems


def validate_instance(inst: IEInstance) -> list[str]:
    """The problems of `inst`. When there are none, its gold serializes under
    every packaged format of its task, and under its evaluation format, to
    text that strict-parses back to the same items, up to order."""
    problems = []
    if inst.task is not inst.gold.task:
        problems.append(f"task: instance task {inst.task.value} != gold task {inst.gold.task.value}")
    if inst.schema is not None:
        if inst.schema.task is not inst.task:
            problems.append("schema: task mismatch")
        schema_problems = inst.schema.validate()
        if schema_problems:  # the checks below read the schema's label names
            return problems + schema_problems
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
_RECORD_FIELD_SET = frozenset(RECORD_FIELDS)


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


def gold_from_json(task: TaskKind, data: Any, schema: Optional[SchemaDef]) -> Extraction:
    """The gold that `data` encodes. A label slot (those `Extraction.labels_used`
    reads) holding a label of `schema` holds the schema's own name string, so
    the many instances of one schema keep one copy of each label."""
    if task is TaskKind.ONDEMANDIE:
        return Extraction(task, table=data["table"])
    labels = schema.label_strings if schema is not None else {}
    if task is TaskKind.EAE:
        return Extraction(task, _labelled_items(data["args"], labels), trigger=data["trigger"])
    if task is TaskKind.EE:
        events = []
        for ev in data:
            trigger, etype = ev["trigger"], ev["type"]
            if type(etype) is str:
                etype = labels.get(etype, etype)
            events.append((trigger, etype, _labelled_items(ev["arguments"], labels)))
        return Extraction(task, tuple(events))
    if task in _PAIR_LABEL_TASKS:
        return Extraction(task, _labelled_items(data, labels))
    return Extraction(task, tuple(tuple(it) for it in data))


def _labelled_items(data: Iterable, labels: Mapping[str, str]) -> tuple:
    """`tuple(tuple(it) for it in data)`, but a label at index 1 that is a key
    of `labels` is its value. Only a str is looked up, so a label of another
    type, or an item too short to hold one, is kept for validation to report."""
    items = []
    for it in data:
        item = tuple(it)
        if len(item) > 1 and type(label := item[1]) is str:
            item = (item[0], labels.get(label, label), *item[2:])
        items.append(item)
    return tuple(items)


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
        labels=tuple(LabelDef(l["name"], l.get("guideline"), _exemplars(l)) for l in data["labels"]),
    )


def _exemplars(label: dict) -> tuple:
    exemplars = label.get("exemplars") or ()
    if not isinstance(exemplars, (list, tuple)):
        raise TypeError(f"exemplars of label {label['name']!r} are not a list")
    return tuple(exemplars)


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


def instance_from_record(
    record: dict, schemas: dict[bytes, Optional[SchemaDef]], datasets: dict[str, str]
) -> IEInstance:
    """The instance a canonical record holds. `schemas` maps each raw schema
    value read so far, in its `marshal` form, to its SchemaDef: a schema
    equal to an earlier one is not built again, and the instances share it.
    Equal forms mean equal JSON values (marshal keeps 1 and true apart, which
    `==` would not), and marshal is several times faster than `repr` or
    `json.dumps` on a schema. `datasets` maps each dataset name read so far
    to the first string that held it, which the instances of that dataset
    share; their gold labels are the schema's own (`gold_from_json`)."""
    if not isinstance(record, dict):
        raise TypeError(f"record is {type(record).__name__}, not an object")
    if record.keys() != _RECORD_FIELD_SET:
        unknown = record.keys() - _RECORD_FIELD_SET
        if unknown:
            raise ValueError(f"unknown record fields: {sorted(unknown)}")
        raise ValueError(f"missing record fields: {sorted(_RECORD_FIELD_SET - record.keys())}")
    task = TaskKind(record["task"])
    key = marshal.dumps(record["schema"])
    if key not in schemas:
        schemas[key] = schema_from_json(record["schema"])
    schema = schemas[key]
    dataset = record["dataset"]
    if type(dataset) is str:  # any other type is rejected by the reader's type check
        dataset = datasets.setdefault(dataset, dataset)
    return IEInstance(
        id=record["id"],
        dataset=dataset,
        task=task,
        text=record["text"],
        schema=schema,
        gold=gold_from_json(task, record["gold"], schema),
        is_na=record["is_na"],
    )


def writable_as(kind: str, path) -> bool:
    """Whether `path` can be written as a `kind`, a "regular file" or a
    "directory": it names that kind or nothing, and its nearest existing
    ancestor is a directory, in which `atomic_open` makes the rest."""
    path = Path(path).absolute()
    existing = next(p for p in (path, *path.parents) if p.exists())
    if existing != path:
        return existing.is_dir()
    return path.is_dir() if kind == "directory" else path.is_file()


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


def json_report(data: Any) -> str:
    """The text of a JSON report: indented, keys sorted, non-ASCII kept, newline-ended."""
    return json.dumps(data, ensure_ascii=False, sort_keys=True, indent=2) + "\n"


def write_json_atomic(data: Any, path) -> None:
    """Write the JSON report `data` (`json_report`), atomically."""
    with atomic_open(path) as f:
        f.write(json_report(data))


def jsonl_line(record: Any) -> str:
    """`record` as one line of a JSONL file: compact JSON with sorted keys,
    non-ASCII text kept as is. Every JSONL file is written in these lines."""
    return json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n"


def write_jsonl_atomic(lines: Iterable[str], path) -> None:
    """Write JSONL text atomically, one piece at a time: each piece holds
    whole `jsonl_line`s, so a stream of pieces is never held together."""
    with atomic_open(path) as f:
        f.writelines(lines)


def load_jsonl(path) -> list[Any]:
    """The value of each non-blank line, as `read_records` reads it."""
    return read_records(path, lambda value, lineno: value, lenient=False)[0]


def read_records(path, convert: Callable[[Any, int], T], lenient: bool) -> tuple[list[T], int]:
    """`convert(value, lineno)` of each non-blank line of a JSONL file, and the
    number of lines skipped. The file is read in binary mode and decoded line
    by line, so a bad byte is reported at its own line. A line that is not
    UTF-8 JSON, or nests too deep to decode, or that `convert` rejects with
    DataError, ValueError, KeyError or TypeError, raises DataError naming the
    line; when `lenient`, it is logged and skipped instead."""
    out: list[T] = []
    skipped = 0
    with open(path, "rb") as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                try:
                    value = json.loads(line.decode("utf-8"))
                except (ValueError, RecursionError) as e:  # JSONDecodeError, UnicodeDecodeError, or too deep
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
    write_jsonl_atomic((jsonl_line(instance_to_record(i)) for i in instances), path)


def read_instances(path) -> list[IEInstance]:
    """The canonical instances of a JSONL file. A record that is not a valid
    instance (`validate_instance`), or whose id an earlier line holds, is a
    DataError naming its line. Each distinct schema is built and validated
    once, and the instances that hold it share one SchemaDef, so a file's
    many copies of a few schemas are neither all kept nor all checked. In
    the same way the instances share one string per distinct dataset name,
    and each gold label is its schema's own `LabelDef.name` string."""
    seen: set[str] = set()
    schemas: dict[bytes, Optional[SchemaDef]] = {}
    datasets: dict[str, str] = {}

    def convert(record: Any, lineno: int) -> IEInstance:
        inst = instance_from_record(record, schemas, datasets)
        if not (isinstance(inst.id, str) and isinstance(inst.dataset, str) and isinstance(inst.text, str)
                and isinstance(inst.is_na, bool)):
            raise TypeError("instance id, dataset and text must be strings, and is_na a bool")
        problems = validate_instance(inst)
        if problems:
            raise ValueError("invalid instance: " + "; ".join(problems))
        if inst.id in seen:
            raise ValueError(f"duplicate instance id {inst.id!r}")
        seen.add(inst.id)
        return inst

    return read_records(path, convert, lenient=False)[0]
