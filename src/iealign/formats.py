"""Format specifications and the answer template engine.

An answer template is a per-item string with named slots, e.g.
"({subject}; {relation}; {object});". Slot values that contain structural
characters are wrapped in double quotes with backslash escapes so that the
grammar stays unambiguous and parsing is an exact inverse of rendering.
`compile_template(template, task)` makes every template's regex; its droppable
tail is its trailing run of the task's optional slots, each with the literal
before it (an open IE tuple's object, time and location).
`model.item_from_slots` makes a match an item, and alone decides that an
empty optional slot is absent. `check_format(spec)` is the one check of a
format, made by the library loader and by `stats`' record check.

The library of training-time formats is shipped as JSON data files under
``iealign/data/formats``. The six held-out evaluation format strings are
embedded verbatim in ``EVAL_FORMATS``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import lru_cache, partial
from importlib import resources

from .model import EE_ARG_SLOTS, OPTIONAL_SLOTS, TASK_SLOTS, FormatSpec, TaskKind

# A slot, with its quotes when the template wraps it in them ("{type}").
_SLOT_RE = re.compile(r'(?P<quote>"?)\{(?P<name>[a-zA-Z_][a-zA-Z0-9_ ]*)\}(?P=quote)')
# The structural characters: a slot value holding one is rendered quoted.
_STRUCTURAL = ';:()"\n,.|[]'
_QUOTE_TRIGGERS = frozenset(_STRUCTURAL)
# A complete quoted literal: a quoted body holds no unescaped quote.
_QUOTED = r'"(?:[^"\\]|\\[\s\S])*"'


def normalize_slot(name: str) -> str:
    return name.strip().replace(" ", "_")


def quote_value(value: str) -> str:
    """Quote a slot value if it would break the grammar when rendered raw."""
    if value and _QUOTE_TRIGGERS.isdisjoint(value) and value == value.strip():
        return value
    return force_quote(value)


def force_quote(value: str) -> str:
    """Quote unconditionally; used for slots the template wraps in quotes."""
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


_QUOTED_LITERAL = re.compile(_QUOTED)
_ESCAPE = re.compile(r"\\([\s\S])")


def unquote_value(text: str) -> str:
    if _QUOTED_LITERAL.fullmatch(text):
        return _ESCAPE.sub(r"\1", text[1:-1])
    return text


# A slot matches a lazy sequence of units, each unit being a complete quoted
# literal or a single plain character. Quoted units are consumed atomically,
# so structural characters inside quotes never end a slot. Plain units exclude
# every quoting trigger: a rendered value containing one is always quoted, so
# an unquoted structural character can only be template punctuation.
_SLOT_UNIT = f"(?:{_QUOTED}|[^{re.escape(_STRUCTURAL)}])"
# Loose variant for slots holding pre-rendered sub-template text (which
# legitimately contains separators), e.g. an event's arguments blob.
_LOOSE_SLOT_UNIT = f'(?:{_QUOTED}|[^"\\n])'


@dataclass(frozen=True)
class CompiledTemplate:
    """A template split into alternating literals and slots, plus its regex.

    Slots the template itself wraps in double quotes (e.g. ``"{type}"``) are
    "forced": the quotes move out of the literals and the value is rendered
    with exactly one layer of quoting, so quotes never nest ambiguously.
    Loose slots hold pre-rendered text and render as is.

    The last `droppable` slots are the droppable tail: the regex nests each,
    with the literal before it, in an optional group, so a dropped slot's
    group reads None, and `render` leaves out each trailing one that is None.
    """

    slots: tuple[str, ...]
    parts: tuple[str, ...]  # literals; len(parts) == len(slots) + 1
    pattern: re.Pattern
    forced: frozenset
    loose: frozenset
    droppable: int

    def render(self, values: dict[str, str | None]) -> str:
        keep = len(self.slots)
        while keep > len(self.slots) - self.droppable and values.get(self.slots[keep - 1]) is None:
            keep -= 1
        out = []
        for lit, slot in zip(self.parts, self.slots[:keep]):
            v = values.get(slot)
            out.append(lit)
            if slot in self.loose:
                out.append(v or "")
            elif slot in self.forced:
                out.append(force_quote(v or ""))
            else:
                out.append(quote_value(v) if v else "")
        out.append(self.parts[-1])
        return "".join(out)


@lru_cache(maxsize=256)
def compile_template(template: str, task: TaskKind) -> CompiledTemplate:
    """Compile `template`, an answer or EE argument template of `task`. Its
    droppable tail is its trailing run of the task's `OPTIONAL_SLOTS`, found
    by name; only optional slots and EE's loose `arguments` slot (the
    rendered argument sub-template, empty for an event without arguments)
    may match empty. A slot named twice is a ValueError."""
    optional = OPTIONAL_SLOTS.get(task, ())
    loose = frozenset({"arguments"} if task is TaskKind.EE else ())
    slots: list[str] = []
    parts: list[str] = []
    pieces: list[str] = []  # per slot: the regex of the literal before it and of the slot
    forced: set[str] = set()
    pos = 0
    for m in _SLOT_RE.finditer(template):
        slot = normalize_slot(m["name"])
        if slot in slots:
            raise ValueError(f"template {template!r} names slot {slot!r} twice")
        literal = template[pos : m.start()]
        parts.append(literal)
        if m["quote"]:  # template-quoted slot: its quotes are the slot pattern's
            forced.add(slot)
            slot_regex = f"(?P<{slot}>{_QUOTED})"
        else:
            quantifier = "*?" if slot in optional or slot in loose else "+?"
            unit = _LOOSE_SLOT_UNIT if slot in loose else _SLOT_UNIT
            slot_regex = f"(?P<{slot}>{unit}{quantifier})"
        pieces.append(re.escape(literal) + slot_regex)
        slots.append(slot)
        pos = m.end()
    tail = template[pos:]
    parts.append(tail)
    kept = len(slots)
    while kept and slots[kept - 1] in optional:
        kept -= 1
    dropped = ""
    for piece in reversed(pieces[kept:]):  # nested: a slot drops only with every slot after it
        dropped = f"(?:{piece}{dropped})?"
    pattern = re.compile("".join(pieces[:kept]) + dropped + re.escape(tail))
    return CompiledTemplate(tuple(slots), tuple(parts), pattern, frozenset(forced), loose, len(slots) - kept)


# ---------------------------------------------------------------------------
# FormatSpec (de)serialization


def spec_to_json(spec: FormatSpec) -> dict:
    return {**vars(spec), "task": spec.task.value}


def spec_from_json(data: dict) -> FormatSpec:
    return FormatSpec(**{**data, "task": TaskKind(data["task"])})


def check_format(spec: FormatSpec) -> FormatSpec:
    """`spec`, or one ValueError naming every problem: an unknown family, an empty
    fail output, and under Triplet and NaturalLanguage a slot its task lacks
    (EE arguments: `EE_ARG_SLOTS`) or named twice, a required slot (all but
    the task's `OPTIONAL_SLOTS`) left out, or no EE argument template. A
    template without a required slot would render answers that do not
    parse back to their items."""
    problems = []
    if spec.family not in ("Triplet", "Json", "NaturalLanguage", "Markdown"):
        problems.append(f"family: unknown {spec.family!r}")
    if not spec.fail_output:
        problems.append("fail_output: empty")
    if spec.family in ("Triplet", "NaturalLanguage"):
        templates = [("answer_template", spec.answer_template, TASK_SLOTS.get(spec.task, ()))]
        if spec.task is TaskKind.EE:
            if spec.arg_template:
                templates.append(("arg_template", spec.arg_template, EE_ARG_SLOTS))
            else:
                problems.append("arg_template: required for EE")
        optional = OPTIONAL_SLOTS.get(spec.task, ())
        for field, template, allowed in templates:
            try:
                slots = compile_template(template, spec.task).slots
            except ValueError as e:  # a slot named twice
                problems.append(f"{field}: {e}")
                continue
            extra = sorted(set(slots) - set(allowed))
            if extra:
                problems.append(f"{field}: unknown slots {extra}")
            missing = [slot for slot in allowed if slot not in slots and slot not in optional]
            if missing:
                problems.append(f"{field}: missing slots {missing}")
    if problems:
        raise ValueError(f"bad format spec {spec.name!r}: {'; '.join(problems)}")
    return spec


# ---------------------------------------------------------------------------
# Built-in libraries


def load_format_library() -> dict[TaskKind, list[FormatSpec]]:
    """Training-time format library, loaded from the packaged data files."""
    library: dict[TaskKind, list[FormatSpec]] = {}
    root = resources.files("iealign").joinpath("data/formats")
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if not entry.name.endswith(".json"):
            continue
        for data in json.loads(entry.read_text(encoding="utf-8")):
            spec = check_format(spec_from_json(data))
            library.setdefault(spec.task, []).append(spec)
    return library


# The held-out evaluation output-format descriptions, one fixed format per
# task, embedded verbatim; all are Triplet formats behind "[Answer]: ".
_EVAL_FORMAT = partial(FormatSpec, family="Triplet", answer_prefix="[Answer]: ")
EVAL_FORMATS: dict[TaskKind, FormatSpec] = {
    TaskKind.NER: _EVAL_FORMAT(
        name="eval-ner",
        task=TaskKind.NER,
        input_template='Please give the answer in the form "[Answer]: {entity}: {type}; ".',
        answer_template="{entity}: {type};",
    ),
    TaskKind.RC: _EVAL_FORMAT(
        name="eval-rc",
        task=TaskKind.RC,
        input_template='Please give the answer in the tuple form "[Answer]: ({subject}; {relation}; {object}); ".',
        answer_template="({subject}; {relation}; {object});",
    ),
    TaskKind.ED: _EVAL_FORMAT(
        name="eval-ed",
        task=TaskKind.ED,
        input_template='Please give the answer in the form "[Answer]: {event}: {class}; ".',
        answer_template="{event}: {class};",
    ),
    TaskKind.EAE: _EVAL_FORMAT(
        name="eval-eae",
        task=TaskKind.EAE,
        input_template='Please give the answer in the form "[Answer]: {word}: {role}; ".',
        answer_template="{word}: {role};",
    ),
    TaskKind.ERE: _EVAL_FORMAT(
        name="eval-ere",
        task=TaskKind.ERE,
        input_template='Please give the answer in the tuple form "[Answer]: ({first event}; {relation}; {second event}); ".',
        answer_template="({first event}; {relation}; {second event});",
    ),
    TaskKind.OPENIE: _EVAL_FORMAT(
        name="eval-openie",
        task=TaskKind.OPENIE,
        input_template=(
            'Please give the answer in the tuple form "[Answer]: ({predicate}; {subject}; '
            '{object}; {time}; {location})". If one or more of the last three elements does '
            "not exist, it can be omitted."
        ),
        answer_template="({predicate}; {subject}; {object}; {time}; {location})",
    ),
}
