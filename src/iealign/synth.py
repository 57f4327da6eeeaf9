"""Seeded synthetic corpora for tests and benchmarks.

Generates schemas, extractions, and full instances for every task kind.
Values optionally include structural characters (quotes, separators,
brackets) to exercise the quoting path of the template engine. Everything is
deterministic under an explicit seed.
"""

from __future__ import annotations

import random
from typing import Optional

from .model import (
    CLOSED_IE_TASKS,
    Extraction,
    IEInstance,
    LabelDef,
    SchemaDef,
    TaskKind,
    stable_id,
    validate_instance,
)

WORD_POOL = (
    "river", "council", "merger", "protest", "village", "senator", "engine",
    "harvest", "treaty", "festival", "museum", "glacier", "network", "verdict",
    "orchard", "summit", "tunnel", "archive", "ballot", "comet", "drought",
    "estuary", "foundry", "garrison", "harbor", "island", "journal", "kernel",
    "lagoon", "meadow", "notebook", "outpost", "plateau", "quarry", "reactor",
    "shoreline", "terrace", "uplink", "valley", "workshop",
)

# Values containing structural characters that force quoting in templates.
TRICKY_POOL = (
    "New York, NY",
    "semi;colon",
    "colon: value",
    "(parenthetical)",
    'has "inner" quotes',
    "trailing dot.",
    "pipe|bar",
    "[bracketed]",
    "back\\slash",
    "multi, part; mix: all",
)

_ENTITY_TYPES = ("person", "organization", "location", "facility", "product", "event")
_RELATIONS = ("founded by", "located in", "member of", "works for", "part of", "owned by")
_EVENT_TYPES = ("attack", "transport", "meeting", "election", "injury", "transaction")
_ROLES = ("agent", "target", "instrument", "place", "victim", "beneficiary")
_TEMPORAL_RELATIONS = ("before", "after", "overlaps", "causes", "contains", "simultaneous")


def _label_defs(names: tuple[str, ...], with_guidelines: bool) -> tuple[LabelDef, ...]:
    return tuple(
        LabelDef(
            name,
            guideline=f"Mentions that denote a {name}." if with_guidelines else None,
            exemplars=(f"sample {name} one", f"sample {name} two") if with_guidelines else (),
        )
        for name in names
    )


def make_schema(task: TaskKind, n_labels: int = 6, with_guidelines: bool = True) -> Optional[SchemaDef]:
    """A fixed schema per task; EE schemas carry both event types and roles."""
    if task not in CLOSED_IE_TASKS:
        return None
    if task is TaskKind.NER:
        names = _ENTITY_TYPES[:n_labels]
    elif task in (TaskKind.RC, TaskKind.RE):
        names = _RELATIONS[:n_labels]
    elif task is TaskKind.ED:
        names = _EVENT_TYPES[:n_labels]
    elif task is TaskKind.EAE:
        names = _ROLES[:n_labels]
    elif task is TaskKind.EE:
        names = _EVENT_TYPES[: max(2, n_labels // 2)] + _ROLES[: max(2, n_labels // 2)]
    else:  # ERE
        names = _TEMPORAL_RELATIONS[:n_labels]
    return SchemaDef(task, _label_defs(tuple(names), with_guidelines))


def _value(rng: random.Random, tricky_rate: float) -> str:
    if rng.random() < tricky_rate:
        return rng.choice(TRICKY_POOL)
    n = rng.randint(1, 3)
    return " ".join(rng.choice(WORD_POOL) for _ in range(n))


def _ee_labels(schema: SchemaDef) -> tuple[list[str], list[str]]:
    names = schema.label_names()
    types = [n for n in names if n in _EVENT_TYPES]
    roles = [n for n in names if n in _ROLES]
    return types, roles


def make_extraction(
    task: TaskKind,
    rng: random.Random,
    schema: Optional[SchemaDef] = None,
    tricky_rate: float = 0.3,
    allow_empty: bool = True,
    max_items: int = 4,
) -> Extraction:
    """A random well-formed extraction; items are distinct tuples."""
    if schema is None:
        schema = make_schema(task)

    def labels() -> tuple[str, ...]:
        return schema.label_names() if schema else ()

    lo = 0 if allow_empty and task is not TaskKind.RC else 1
    if task is TaskKind.ONDEMANDIE:
        return Extraction(task, table=make_markdown_table(rng))
    if task is TaskKind.RC:
        item = (_value(rng, tricky_rate), rng.choice(labels()), _value(rng, tricky_rate))
        return Extraction(task, (item,))
    n = rng.randint(lo, max_items)
    items: list[tuple] = []
    seen: set[tuple] = set()
    attempts = 0
    while len(items) < n and attempts < 50:
        attempts += 1
        if task is TaskKind.NER or task is TaskKind.ED:
            it = (_value(rng, tricky_rate), rng.choice(labels()))
        elif task in (TaskKind.RE, TaskKind.ERE):
            it = (_value(rng, tricky_rate), rng.choice(labels()), _value(rng, tricky_rate))
        elif task is TaskKind.EAE:
            it = (_value(rng, tricky_rate), rng.choice(labels()))
        elif task is TaskKind.EE:
            types, roles = _ee_labels(schema)
            args = tuple(
                (_value(rng, tricky_rate), rng.choice(roles)) for _ in range(rng.randint(0, 3))
            )
            if len(set(args)) != len(args):
                continue
            it = (_value(rng, tricky_rate), rng.choice(types), args)
        elif task is TaskKind.OPENIE:
            time = _value(rng, tricky_rate) if rng.random() < 0.5 else None
            loc = _value(rng, tricky_rate) if rng.random() < 0.5 else None
            it = (_value(rng, tricky_rate), _value(rng, tricky_rate), _value(rng, tricky_rate), time, loc)
        else:
            raise ValueError(f"unsupported task {task}")
        if it in seen:
            continue
        seen.add(it)
        items.append(it)
    trigger = _value(rng, 0.0) if task is TaskKind.EAE else None
    return Extraction(task, tuple(items), trigger=trigger)


def make_markdown_table(rng: random.Random, n_cols: int = 3, n_rows: int = 2) -> str:
    headers = rng.sample(WORD_POOL, n_cols)
    lines = ["| " + " | ".join(headers) + " |", "| " + " | ".join("---" for _ in headers) + " |"]
    for _ in range(n_rows):
        lines.append("| " + " | ".join(rng.choice(WORD_POOL) for _ in headers) + " |")
    return "\n".join(lines)


def make_text(rng: random.Random, min_words: int = 8, max_words: int = 30) -> str:
    n = rng.randint(min_words, max_words)
    return " ".join(rng.choice(WORD_POOL) for _ in range(n)) + "."


def make_instance(
    task: TaskKind,
    dataset: str,
    index: int,
    rng: random.Random,
    schema: Optional[SchemaDef] = None,
    na_rate: float = 0.0,
    tricky_rate: float = 0.3,
) -> IEInstance:
    if schema is None:
        schema = make_schema(task)
    text = make_text(rng)
    if task is not TaskKind.ONDEMANDIE and task is not TaskKind.RC and rng.random() < na_rate:
        gold = Extraction(task, (), trigger=_value(rng, 0.0) if task is TaskKind.EAE else None)
    else:
        gold = make_extraction(task, rng, schema, tricky_rate=tricky_rate, allow_empty=False)
    inst = IEInstance(
        id=stable_id(dataset, index, text),
        dataset=dataset,
        task=task,
        text=text,
        schema=schema,
        gold=gold,
        is_na=gold.is_empty(),
    )
    problems = validate_instance(inst)
    if problems:
        raise AssertionError(f"synthetic instance invalid: {problems}")
    return inst


def make_corpus(
    task: TaskKind,
    n: int,
    dataset: str = "synth",
    seed: int = 0,
    na_rate: float = 0.0,
    tricky_rate: float = 0.3,
) -> list[IEInstance]:
    rng = random.Random(seed)
    schema = make_schema(task)
    return [
        make_instance(task, dataset, i, rng, schema, na_rate=na_rate, tricky_rate=tricky_rate)
        for i in range(n)
    ]
