"""Format specifications and the answer template engine.

An answer template is a per-item string with named slots, e.g.
"({subject}; {relation}; {object});". Slot values that contain structural
characters are wrapped in double quotes with backslash escapes so that the
grammar stays unambiguous and parsing is an exact inverse of rendering.

The library of training-time formats is shipped as JSON data files under
``iealign/data/formats``. The six held-out evaluation format strings are
embedded verbatim in ``EVAL_FORMATS``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from importlib import resources

from .model import EE_ARG_SLOTS, TASK_SLOTS, FormatSpec, TaskKind

_SLOT_RE = re.compile(r"\{([a-zA-Z_][a-zA-Z0-9_ ]*)\}")
_QUOTE_TRIGGERS = set(';:()"\n,.|[]')


def normalize_slot(name: str) -> str:
    return name.strip().replace(" ", "_")


def quote_value(value: str) -> str:
    """Quote a slot value if it would break the grammar when rendered raw."""
    if value and not any(ch in _QUOTE_TRIGGERS for ch in value) and value == value.strip():
        return value
    return force_quote(value)


def force_quote(value: str) -> str:
    """Quote unconditionally; used for slots the template wraps in quotes."""
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


_QUOTED_LITERAL = re.compile(r'"(?:[^"\\]|\\[\s\S])*"', re.DOTALL)


def unquote_value(text: str) -> str:
    if _QUOTED_LITERAL.fullmatch(text):
        return re.sub(r"\\([\s\S])", r"\1", text[1:-1])
    return text


# A slot matches a lazy sequence of units, each unit being a complete quoted
# literal or a single plain character. Quoted units are consumed atomically,
# so structural characters inside quotes never end a slot. Plain units exclude
# every quoting trigger: a rendered value containing one is always quoted, so
# an unquoted structural character can only be template punctuation.
_SLOT_UNIT = r'(?:"(?:[^"\\]|\\[\s\S])*"|[^;:()"\n,.|\[\]])'
# Loose variant for slots holding pre-rendered sub-template text (which
# legitimately contains separators), e.g. an event's arguments blob.
_LOOSE_SLOT_UNIT = r'(?:"(?:[^"\\]|\\[\s\S])*"|[^"\n])'


@dataclass(frozen=True)
class CompiledTemplate:
    """A template split into alternating literals and slots, plus its regex.

    Slots the template itself wraps in double quotes (e.g. ``"{type}"``) are
    "forced": the quotes move out of the literals and the value is rendered
    with exactly one layer of quoting, so quotes never nest ambiguously.
    Loose slots hold pre-rendered text and render as is.
    """

    slots: tuple[str, ...]
    parts: tuple[str, ...]  # literals; len(parts) == len(slots) + 1
    pattern: re.Pattern
    forced: frozenset
    loose: frozenset

    def render(self, values: dict[str, str | None]) -> str:
        out = [self.parts[0]]
        for slot, lit in zip(self.slots, self.parts[1:]):
            v = values.get(slot)
            if slot in self.loose:
                out.append(v or "")
            elif slot in self.forced:
                out.append(force_quote(v or ""))
            else:
                out.append(quote_value(v) if v else "")
            out.append(lit)
        return "".join(out)


_FORCED_SLOT_PATTERN = r'(?P<%s>"(?:[^"\\]|\\[\s\S])*?")'


def compile_template(
    template: str,
    optional: set[str] | None = None,
    loose: set[str] | None = None,
) -> CompiledTemplate:
    optional = optional or set()
    loose = loose or set()
    slots: list[str] = []
    parts: list[str] = []
    regex: list[str] = []
    forced: set[str] = set()
    pos = 0
    strip_leading = False
    for m in _SLOT_RE.finditer(template):
        slot = normalize_slot(m.group(1))
        literal = template[pos : m.start()]
        if strip_leading:
            literal = literal[1:]
            strip_leading = False
        if literal.endswith('"') and template[m.end() : m.end() + 1] == '"':
            # template-quoted slot: absorb the quotes into the slot pattern
            literal = literal[:-1]
            forced.add(slot)
            strip_leading = True
        parts.append(literal)
        regex.append(re.escape(literal))
        if slot in forced:
            regex.append(_FORCED_SLOT_PATTERN % slot)
        else:
            quantifier = "*?" if slot in optional else "+?"
            unit = _LOOSE_SLOT_UNIT if slot in loose else _SLOT_UNIT
            regex.append(f"(?P<{slot}>{unit}{quantifier})")
        slots.append(slot)
        pos = m.end()
    tail = template[pos:]
    if strip_leading:
        tail = tail[1:]
    parts.append(tail)
    regex.append(re.escape(tail))
    pattern = re.compile("".join(regex))
    return CompiledTemplate(tuple(slots), tuple(parts), pattern, frozenset(forced), frozenset(loose))


def compile_truncations(template: str, optional_count: int) -> list[CompiledTemplate]:
    """Compiled variants of an OpenIE-style template with 0..optional_count
    trailing slots dropped, longest first."""
    base = compile_template(template, optional=set())
    variants = []

    def slot_token(i: int) -> str:
        token = "{" + base.slots[i] + "}"
        return f'"{token}"' if base.slots[i] in base.forced else token

    for dropped in range(optional_count + 1):
        keep = len(base.slots) - dropped
        # Rebuild the template with only the first `keep` slots; absent middle
        # slots render empty, so every slot in a variant may match empty.
        text = base.parts[0] + "".join(
            slot_token(i) + (base.parts[i + 1] if i < keep - 1 else "")
            for i in range(keep)
        ) + base.parts[-1]
        variants.append(compile_template(text, optional=set(base.slots)))
    return variants


def template_slots(template: str) -> tuple[str, ...]:
    return tuple(normalize_slot(m.group(1)) for m in _SLOT_RE.finditer(template))


# ---------------------------------------------------------------------------
# FormatSpec (de)serialization


def spec_to_json(spec: FormatSpec) -> dict:
    return {**vars(spec), "task": spec.task.value}


def spec_from_json(data: dict) -> FormatSpec:
    return FormatSpec(**{**data, "task": TaskKind(data["task"])})


def validate_spec(spec: FormatSpec) -> list[str]:
    problems = []
    if not spec.fail_output:
        problems.append("fail_output: empty")
    if spec.family not in ("Triplet", "Json", "NaturalLanguage", "Markdown"):
        problems.append(f"family: unknown {spec.family!r}")
    if spec.family in ("Triplet", "NaturalLanguage"):
        allowed = set(TASK_SLOTS.get(spec.task, ()))
        used = set(template_slots(spec.answer_template))
        extra = used - allowed
        if extra:
            problems.append(f"answer_template: unknown slots {sorted(extra)}")
        if spec.task is TaskKind.EE:
            arg_extra = set(template_slots(spec.arg_template)) - set(EE_ARG_SLOTS)
            if arg_extra:
                problems.append(f"arg_template: unknown slots {sorted(arg_extra)}")
            if not spec.arg_template:
                problems.append("arg_template: required for EE")
    return problems


# ---------------------------------------------------------------------------
# Built-in libraries


def load_format_library() -> dict[TaskKind, list[FormatSpec]]:
    """Training-time format library, loaded from the packaged data files."""
    library: dict[TaskKind, list[FormatSpec]] = {}
    root = resources.files("iealign").joinpath("data/formats")
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if not entry.name.endswith(".json"):
            continue
        specs = [spec_from_json(d) for d in json.loads(entry.read_text(encoding="utf-8"))]
        for spec in specs:
            problems = validate_spec(spec)
            if problems:
                raise ValueError(f"bad format spec {spec.name!r}: {problems}")
            library.setdefault(spec.task, []).append(spec)
    return library


# The held-out evaluation output-format descriptions, one fixed format per
# task, embedded verbatim.
EVAL_FORMATS: dict[TaskKind, FormatSpec] = {
    TaskKind.NER: FormatSpec(
        family="Triplet",
        name="eval-ner",
        task=TaskKind.NER,
        input_template='Please give the answer in the form "[Answer]: {entity}: {type}; ".',
        answer_template="{entity}: {type};",
        item_separator=" ",
        fail_output="NA",
        answer_prefix="[Answer]: ",
    ),
    TaskKind.RC: FormatSpec(
        family="Triplet",
        name="eval-rc",
        task=TaskKind.RC,
        input_template='Please give the answer in the tuple form "[Answer]: ({subject}; {relation}; {object}); ".',
        answer_template="({subject}; {relation}; {object});",
        item_separator=" ",
        fail_output="NA",
        answer_prefix="[Answer]: ",
    ),
    TaskKind.ED: FormatSpec(
        family="Triplet",
        name="eval-ed",
        task=TaskKind.ED,
        input_template='Please give the answer in the form "[Answer]: {event}: {class}; ".',
        answer_template="{event}: {class};",
        item_separator=" ",
        fail_output="NA",
        answer_prefix="[Answer]: ",
    ),
    TaskKind.EAE: FormatSpec(
        family="Triplet",
        name="eval-eae",
        task=TaskKind.EAE,
        input_template='Please give the answer in the form "[Answer]: {word}: {role}; ".',
        answer_template="{word}: {role};",
        item_separator=" ",
        fail_output="NA",
        answer_prefix="[Answer]: ",
    ),
    TaskKind.ERE: FormatSpec(
        family="Triplet",
        name="eval-ere",
        task=TaskKind.ERE,
        input_template='Please give the answer in the tuple form "[Answer]: ({first event}; {relation}; {second event}); ".',
        answer_template="({first event}; {relation}; {second event});",
        item_separator=" ",
        fail_output="NA",
        answer_prefix="[Answer]: ",
    ),
    TaskKind.OPENIE: FormatSpec(
        family="Triplet",
        name="eval-openie",
        task=TaskKind.OPENIE,
        input_template=(
            'Please give the answer in the tuple form "[Answer]: ({predicate}; {subject}; '
            '{object}; {time}; {location})". If one or more of the last three elements does '
            "not exist, it can be omitted."
        ),
        answer_template="({predicate}; {subject}; {object}; {time}; {location})",
        item_separator=" ",
        fail_output="NA",
        answer_prefix="[Answer]: ",
    ),
}

MARKDOWN_SPEC = FormatSpec(
    family="Markdown",
    name="ondemand-markdown",
    task=TaskKind.ONDEMANDIE,
    input_template="Organize the extracted information into a Markdown table.",
    answer_template="",
    fail_output="NA",
)
