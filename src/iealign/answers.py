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
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import NamedTuple, Optional

from .formats import CompiledTemplate, compile_template, unquote_value
from .model import EE_ARG_SLOTS, TASK_SLOTS, Extraction, FormatSpec, TaskKind, item_from_slots, slot_values


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


def serialize_answer(gold: Extraction, spec: FormatSpec, seed: random.Random | None = None) -> str:
    """Render a gold extraction. Triplet items are shuffled by drawing from
    `seed` (only when there is more than one item to order); None keeps the
    gold order. Empty gold renders the fail output."""
    if spec.task is not gold.task:
        raise SerializationError(f"format {spec.name!r} is for {spec.task.value}, gold is {gold.task.value}")
    if gold.task is TaskKind.ONDEMANDIE:
        return gold.table if gold.table is not None else spec.fail_output
    if gold.is_empty():
        return spec.fail_output
    items = list(gold.items)
    if spec.family == "Triplet" and seed is not None and len(items) > 1:
        seed.shuffle(items)
    for item in items:
        if None in slot_values(gold.task, item):
            raise SerializationError(f"missing slot value in item {item!r}")
    # every None left is an absent optional slot, which is left out
    values = [{slot: x for slot, x in zip(TASK_SLOTS[gold.task], item) if x is not None} for item in items]
    if gold.task is TaskKind.EE:  # arguments: a JSON list of {word, role}, or the rendered sub-template
        render = None if spec.family == "Json" else compile_template(spec.arg_template, gold.task).render
        for v in values:
            args = [{"word": w, "role": r} for w, r in v["arguments"]]
            v["arguments"] = args if render is None else spec.arg_separator.join(map(render, args))
    if spec.family == "Json":
        payload = {"task": gold.task.value, "items": values}
        if gold.task is TaskKind.EAE:
            payload = {"task": gold.task.value, "trigger": gold.trigger, "items": values}
        return json.dumps(payload, ensure_ascii=False)
    render = compile_template(spec.answer_template, gold.task).render
    return spec.answer_prefix + spec.item_separator.join(map(render, values))


# ---------------------------------------------------------------------------
# Parsing


def _parsed_item(task: TaskKind, values: dict[str, Optional[str]], spec: FormatSpec,
                 diagnostics: list[Diagnostic]) -> tuple:
    """The item of a template match's slot `values`; a slot the template lacks is None."""
    if task is TaskKind.EE:  # the last slot, arguments, holds the rendered sub-template
        args = _parse_items_loop(values.get("arguments") or "", compile_template(spec.arg_template, task),
                                 spec.arg_separator, diagnostics, label="argument")
        values["arguments"] = tuple([tuple(map(arg.get, EE_ARG_SLOTS)) for arg in args])
    try:
        return item_from_slots(task, values)
    except KeyError:  # a required slot the template lacks
        return item_from_slots(task, {**dict.fromkeys(TASK_SLOTS[task]), **values})


@lru_cache(maxsize=256)
def _slot_terminated(pattern: re.Pattern, separator: str) -> re.Pattern:
    """`pattern`, of a template that ends with a slot, with that slot ended
    at the separator or the end: otherwise the trailing lazy slot would
    match a single unit."""
    term = f"(?={re.escape(separator)}|$)" if separator.strip() else r"(?=\s|$)"
    return re.compile(pattern.pattern + term)


def _parse_items_loop(text: str, template: CompiledTemplate, separator: str,
                      diagnostics: list[Diagnostic], label: str = "item") -> list[dict[str, Optional[str]]]:
    """Match items of `template` from the start of `text`, each as its slots'
    values: unquoted, but for a loose slot's, and None for a dropped slot's.
    Stop with a diagnostic at the first position where it does not match."""
    items = []
    pos = 0
    n = len(text)
    sep = separator.strip()
    pattern = template.pattern if template.parts[-1] else _slot_terminated(template.pattern, separator)
    while pos < n:
        while pos < n and text[pos].isspace():
            pos += 1
        if pos >= n:
            break
        if sep and text.startswith(sep, pos):
            pos += len(sep)
            continue
        m = pattern.match(text, pos)
        if m is None:
            diagnostics.append(Diagnostic(
                DiagnosticKind.UNPARSEABLE, pos, f"unparseable {label} at offset {pos}: {text[pos:pos + 40]!r}"
            ))
            break
        items.append({slot: v if v is None or slot in template.loose else unquote_value(v)
                      for slot, v in m.groupdict().items()})
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


def parse_answer_lenient(text: str, spec: FormatSpec, trigger: Optional[str] = None) -> ParseResult:
    task = spec.task
    diagnostics: list[Diagnostic] = []
    body = text.strip()
    if task is TaskKind.ONDEMANDIE:
        return ParseResult(Extraction(task, table=text))
    fails = (spec.fail_output.strip(), spec.fail_output.strip().rstrip("."))
    body = body if body in fails else _strip_prefix(body, spec, diagnostics).strip()
    if body in fails:
        return ParseResult(Extraction(task, trigger=trigger if task is TaskKind.EAE else None))

    if spec.family == "Json":
        items, extra = _parse_json_body(body, task, diagnostics)
        if task is TaskKind.EAE and trigger is None:
            trigger = extra
    else:
        template = compile_template(spec.answer_template, task)
        separator = "," if task is TaskKind.OPENIE else spec.item_separator  # OpenIE tuples may be comma-separated
        matches = _parse_items_loop(body, template, separator, diagnostics)
        items = [_parsed_item(task, values, spec, diagnostics) for values in matches]

    deduped: list[tuple] = []
    seen = set()
    for it in items:
        if it in seen:
            diagnostics.append(Diagnostic(DiagnosticKind.DUPLICATE, 0, f"duplicate item dropped: {it!r}"))
        else:
            seen.add(it)
            deduped.append(it)

    return ParseResult(Extraction(task, tuple(deduped), trigger=trigger if task is TaskKind.EAE else None), diagnostics)


def _parse_json_body(body: str, task: TaskKind, diagnostics: list[Diagnostic]):
    extra = None
    try:
        payload = json.loads(body)
    except (json.JSONDecodeError, RecursionError):  # RecursionError: nested too deep to decode
        # recover an embedded JSON object if the model wrapped it in prose
        start, end = body.find("{"), body.rfind("}")
        if start == -1 or end <= start:
            diagnostics.append(Diagnostic(DiagnosticKind.BAD_JSON, 0, "no JSON object found"))
            return [], extra
        try:
            payload = json.loads(body[start : end + 1])
            diagnostics.append(Diagnostic(DiagnosticKind.RECOVERED_JSON, 0, "recovered embedded JSON object"))
        except (json.JSONDecodeError, RecursionError) as e:
            diagnostics.append(Diagnostic(DiagnosticKind.BAD_JSON, 0, f"malformed JSON: {e}"))
            return [], extra
    if not isinstance(payload, dict) or "items" not in payload:
        diagnostics.append(Diagnostic(DiagnosticKind.BAD_JSON, 0, "JSON payload missing 'items'"))
        return [], extra
    if task is TaskKind.EAE and isinstance(payload.get("trigger"), str):  # any other trigger is absent
        extra = payload["trigger"]
    if not isinstance(payload["items"], list):
        diagnostics.append(Diagnostic(DiagnosticKind.BAD_JSON, 0, f"JSON 'items' is not a list: {payload['items']!r}"))
        return [], extra
    items = []
    for obj in payload["items"]:
        if not isinstance(obj, dict):
            diagnostics.append(Diagnostic(DiagnosticKind.BAD_ITEM, 0, f"non-object item: {obj!r}"))
            continue
        try:  # a KeyError for the first slot the item lacks and may not leave out
            values = obj
            if task is TaskKind.EE:  # arguments: a list of {word, role}, which may be left out
                arguments = obj.get("arguments", [])
                if not isinstance(arguments, list):
                    raise TypeError  # a bad EE item, as below
                values = {**obj, "arguments": tuple((a["word"], a["role"]) for a in arguments)}
            item = item_from_slots(task, values)
        except (KeyError, TypeError) as e:
            problem = "bad EE item" if task is TaskKind.EE else f"item missing slot {e}"
            diagnostics.append(Diagnostic(DiagnosticKind.BAD_ITEM, 0, f"{problem}: {obj!r}"))
            continue
        if all(isinstance(v, str) for v in slot_values(task, item)):
            items.append(item)
        else:
            diagnostics.append(Diagnostic(DiagnosticKind.BAD_ITEM, 0, f"item slot value is not a string: {obj!r}"))
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
