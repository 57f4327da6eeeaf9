"""Answer serialization and recovery.

``serialize_answer`` renders a gold extraction under a FormatSpec;
``parse_answer`` is its exact inverse on well-formed text (up to item order).
Lenient parsing never raises: it recovers the maximal well-formed prefix and
records diagnostics, which is the right default for noisy model outputs.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import lru_cache
from typing import NamedTuple, Optional

from .formats import CompiledTemplate, compile_template, compile_truncations, unquote_value
from .model import OPTIONAL_SLOTS, TASK_SLOTS, AlignmentExample, Extraction, FormatSpec, TaskKind


class SerializationError(ValueError):
    pass


class ParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class DiagnosticKind(Enum):
    UNPARSEABLE = "unparseable"  # text the item grammar does not match
    MISSING_PREFIX = "missing_prefix"  # the format's answer prefix is absent
    BAD_JSON = "bad_json"  # no JSON object, malformed JSON, or no 'items'
    BAD_ITEM = "bad_item"  # a JSON item that is not an object or lacks a slot
    DUPLICATE = "duplicate"  # a repeated item, dropped
    RECOVERED_JSON = "recovered_json"  # a JSON object found inside prose

    @property
    def fatal(self) -> bool:
        """Whether strict parsing rejects an answer with this diagnostic."""
        return self not in (DiagnosticKind.DUPLICATE, DiagnosticKind.RECOVERED_JSON)


class Diagnostic(NamedTuple):
    kind: DiagnosticKind
    offset: int  # the offset the message names, else 0
    message: str


@dataclass
class ParseResult:
    extraction: Extraction
    diagnostics: list[Diagnostic] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Serialization


def _item_values(task: TaskKind, item: tuple, spec: FormatSpec) -> dict[str, Optional[str]]:
    slots = TASK_SLOTS[task]
    if task is TaskKind.EE:
        trig, etype, args = item
        arg_tpl = _compiled(spec.arg_template)
        rendered_args = spec.arg_separator.join(arg_tpl.render({"word": w, "role": r}) for w, r in args)
        return {"trigger": trig, "type": etype, "arguments": rendered_args}
    return {slot: item[i] if i < len(item) else None for i, slot in enumerate(slots)}


@lru_cache(maxsize=256)
def _compiled(template: str) -> CompiledTemplate:
    # EE arguments blobs may legitimately be empty (an event with no
    # arguments) and contain sub-template separators, hence optional + loose
    special = {"arguments"} if "{arguments}" in template else set()
    return compile_template(template, optional=special, loose=special)


@lru_cache(maxsize=64)
def _compiled_openie(template: str) -> tuple[CompiledTemplate, ...]:
    """The template with 0, 1 and 2 trailing slots dropped, longest first."""
    return tuple(compile_truncations(template, optional_count=2))


def _openie_accept(groups: dict[str, str]) -> bool:
    # A match with an empty predicate or subject is degenerate; a shorter
    # variant may still match.
    return all(unquote_value(groups.get(slot) or "") for slot in ("predicate", "subject"))


def _json_item(task: TaskKind, item: tuple) -> dict:
    if task is TaskKind.EE:
        trig, etype, args = item
        return {
            "trigger": trig,
            "type": etype,
            "arguments": [{"word": w, "role": r} for w, r in args],
        }
    slots = TASK_SLOTS[task]
    out = {}
    for i, slot in enumerate(slots):
        value = item[i] if i < len(item) else None
        if value is None and slot in OPTIONAL_SLOTS.get(task, ()):
            continue
        out[slot] = value
    return out


def serialize_answer(gold: Extraction, spec: FormatSpec, seed: Optional[int] = None) -> str:
    """Render a gold extraction. Triplet items are shuffled under `seed`
    (pass None for a fixed gold order); empty gold renders the fail output."""
    if spec.task is not gold.task:
        raise SerializationError(f"format {spec.name!r} is for {spec.task.value}, gold is {gold.task.value}")
    if gold.task is TaskKind.ONDEMANDIE:
        return gold.table if gold.table is not None else spec.fail_output
    if gold.is_empty():
        return spec.fail_output
    items = list(gold.items)
    if spec.family == "Triplet" and seed is not None and len(items) > 1:
        random.Random(seed).shuffle(items)
    if spec.family == "Json":
        payload = {"task": gold.task.value, "items": [_json_item(gold.task, it) for it in items]}
        if gold.task is TaskKind.EAE:
            payload = {"task": gold.task.value, "trigger": gold.trigger, "items": payload["items"]}
        return json.dumps(payload, ensure_ascii=False)
    rendered = []
    for item in items:
        values = _item_values(gold.task, item, spec)
        if gold.task is TaskKind.OPENIE:
            # drop the absent trailing slots, in the template's slot order
            variants = _compiled_openie(spec.answer_template)
            slots = variants[0].slots
            dropped = 0
            while len(slots) - dropped > 3 and values.get(slots[-1 - dropped]) is None:
                dropped += 1
            rendered.append(variants[dropped].render(values))
        elif any(v is None for v in values.values()):
            raise SerializationError(f"missing slot value in item {item!r}")
        else:
            rendered.append(_compiled(spec.answer_template).render(values))
    return spec.answer_prefix + spec.item_separator.join(rendered)


# ---------------------------------------------------------------------------
# Parsing


def _item_from_groups(task: TaskKind, groups: dict[str, str], spec: FormatSpec,
                      diagnostics: list[Diagnostic]) -> tuple:
    slots = TASK_SLOTS[task]
    if task is TaskKind.EE:
        args = _parse_items_loop(groups.get("arguments", ""), (_compiled(spec.arg_template),),
                                 spec.arg_separator, diagnostics, label="argument")
        arg_items = tuple((unquote_value(g["word"]), unquote_value(g["role"])) for g in args)
        return (unquote_value(groups["trigger"]), unquote_value(groups["type"]), arg_items)
    if task is TaskKind.OPENIE:  # an empty slot, quoted or not, is absent
        return tuple(unquote_value(groups.get(slot) or "") or None for slot in slots)
    return tuple(None if groups.get(slot) is None else unquote_value(groups[slot]) for slot in slots)


def _parse_items_loop(text: str, templates: tuple[CompiledTemplate, ...], separator: str,
                      diagnostics: list[Diagnostic], label: str = "item",
                      accept=None) -> list[dict[str, str]]:
    """Match items from the start of `text`, trying `templates` in order at
    each position and skipping a match that `accept(groups)` rejects; stop
    with a diagnostic at the first position no template matches."""
    items = []
    pos = 0
    n = len(text)
    sep = separator.strip()
    patterns = []
    for tpl in templates:
        pattern = tpl.pattern
        if tpl.parts[-1] == "":
            # template ends with a slot: terminate it at the separator or the end,
            # otherwise the trailing lazy slot would match a single unit
            term = f"(?={re.escape(separator)}|$)" if sep else r"(?=\s|$)"
            pattern = re.compile(pattern.pattern + term)
        patterns.append(pattern)
    while pos < n:
        while pos < n and text[pos].isspace():
            pos += 1
        if pos >= n:
            break
        if sep and text.startswith(sep, pos):
            pos += len(sep)
            continue
        for pattern in patterns:
            m = pattern.match(text, pos)
            if m is not None and (accept is None or accept(m.groupdict())):
                break
        else:
            diagnostics.append(Diagnostic(
                DiagnosticKind.UNPARSEABLE, pos, f"unparseable {label} at offset {pos}: {text[pos:pos + 40]!r}"
            ))
            break
        items.append(m.groupdict())
        pos = m.end()
    return items


def _strip_prefix(text: str, spec: FormatSpec, diagnostics: list[Diagnostic]) -> str:
    prefix = spec.answer_prefix
    if not prefix:
        return text
    stripped = text.lstrip()
    if stripped.startswith(prefix):
        return stripped[len(prefix):]
    if stripped.startswith(prefix.rstrip()):
        return stripped[len(prefix.rstrip()):]
    diagnostics.append(Diagnostic(DiagnosticKind.MISSING_PREFIX, 0, f"missing answer prefix {prefix!r}"))
    return text


def parse_answer_lenient(
    text: str,
    spec: FormatSpec,
    trigger: Optional[str] = None,
) -> ParseResult:
    task = spec.task
    diagnostics: list[Diagnostic] = []
    body = text.strip()
    if task is TaskKind.ONDEMANDIE:
        return ParseResult(Extraction(task, table=text))
    if body == spec.fail_output.strip() or body == spec.fail_output.strip().rstrip("."):
        return ParseResult(Extraction(task, trigger=trigger if task is TaskKind.EAE else None))
    body = _strip_prefix(body, spec, diagnostics).strip()
    if body == spec.fail_output.strip() or body == spec.fail_output.strip().rstrip("."):
        return ParseResult(Extraction(task, trigger=trigger if task is TaskKind.EAE else None))

    if spec.family == "Json":
        items, extra = _parse_json_body(body, task, diagnostics)
        if task is TaskKind.EAE and trigger is None:
            trigger = extra
    else:
        if task is TaskKind.OPENIE:
            groups = _parse_items_loop(body, _compiled_openie(spec.answer_template), ",", diagnostics,
                                       accept=_openie_accept)
        else:
            groups = _parse_items_loop(body, (_compiled(spec.answer_template),), spec.item_separator, diagnostics)
        items = [_item_from_groups(task, g, spec, diagnostics) for g in groups]

    deduped: list[tuple] = []
    seen = set()
    for it in items:
        if it in seen:
            diagnostics.append(Diagnostic(DiagnosticKind.DUPLICATE, 0, f"duplicate item dropped: {it!r}"))
        else:
            seen.add(it)
            deduped.append(it)

    extraction = Extraction(
        task,
        tuple(deduped),
        trigger=trigger if task is TaskKind.EAE else None,
    )
    return ParseResult(extraction, diagnostics)


def _parse_json_body(body: str, task: TaskKind, diagnostics: list[Diagnostic]):
    extra = None
    try:
        payload = json.loads(body)
    except json.JSONDecodeError:
        # recover an embedded JSON object if the model wrapped it in prose
        start, end = body.find("{"), body.rfind("}")
        if start == -1 or end <= start:
            diagnostics.append(Diagnostic(DiagnosticKind.BAD_JSON, 0, "no JSON object found"))
            return [], extra
        try:
            payload = json.loads(body[start : end + 1])
            diagnostics.append(Diagnostic(DiagnosticKind.RECOVERED_JSON, 0, "recovered embedded JSON object"))
        except json.JSONDecodeError as e:
            diagnostics.append(Diagnostic(DiagnosticKind.BAD_JSON, 0, f"malformed JSON: {e}"))
            return [], extra
    if not isinstance(payload, dict) or "items" not in payload:
        diagnostics.append(Diagnostic(DiagnosticKind.BAD_JSON, 0, "JSON payload missing 'items'"))
        return [], extra
    if task is TaskKind.EAE:
        extra = payload.get("trigger")
    items = []
    slots = TASK_SLOTS[task]
    for obj in payload["items"]:
        if not isinstance(obj, dict):
            diagnostics.append(Diagnostic(DiagnosticKind.BAD_ITEM, 0, f"non-object item: {obj!r}"))
            continue
        if task is TaskKind.EE:
            try:
                args = tuple((a["word"], a["role"]) for a in obj.get("arguments", []))
                items.append((obj["trigger"], obj["type"], args))
            except (KeyError, TypeError):
                diagnostics.append(Diagnostic(DiagnosticKind.BAD_ITEM, 0, f"bad EE item: {obj!r}"))
            continue
        try:
            values = []
            for slot in slots:
                if slot in obj:
                    values.append(obj[slot])
                elif slot in OPTIONAL_SLOTS.get(task, ()):
                    values.append(None)
                else:
                    raise KeyError(slot)
            items.append(tuple(values))
        except KeyError as e:
            diagnostics.append(Diagnostic(DiagnosticKind.BAD_ITEM, 0, f"item missing slot {e}: {obj!r}"))
    return items, extra


def parse_answer(text: str, spec: FormatSpec, trigger: Optional[str] = None) -> Extraction:
    """Strict parse: raises ParseError for the first fatal diagnostic. Only a
    dropped duplicate item and a recovered embedded JSON object are tolerated."""
    result = parse_answer_lenient(text, spec, trigger=trigger)
    for d in result.diagnostics:
        if d.kind.fatal:
            raise ParseError(d.message, d.offset)
    return result.extraction


# ---------------------------------------------------------------------------
# Chain-of-thought composition

COT_SEPARATOR = "\n\n"


def attach_cot(example: AlignmentExample, explanation: str) -> AlignmentExample:
    """Prepend an explanation to the example's answer, keeping the answer
    machine-findable after a blank line."""
    if example.cot is not None:
        raise ValueError("example already carries a CoT explanation")
    if not explanation.strip():
        raise ValueError("empty explanation")
    explanation = explanation.strip()
    return replace(
        example,
        cot=explanation,
        output=explanation + COT_SEPARATOR + example.answer,
    )


# ---------------------------------------------------------------------------
# Markdown table helpers (on-demand IE)


def parse_markdown_table(text: str) -> tuple[list[str], list[list[str]]]:
    """Extract (headers, rows) from the first Markdown table in `text`."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip().startswith("|")]
    if not lines:
        return [], []

    def cells(line: str) -> list[str]:
        return [c.strip() for c in line.strip("|").split("|")]

    headers = cells(lines[0])
    rows = []
    for line in lines[1:]:
        row = cells(line)
        if all(re.fullmatch(r":?-{2,}:?", c) for c in row if c):
            continue
        rows.append(row)
    return headers, rows
