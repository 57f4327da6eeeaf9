"""Input-side assembly: task descriptions, schema augmentation, few-shot
demonstrations, and the fixed prompt layout.

The prompt is laid out as: task description, schema description (closed IE
only), output-format description (omitted for on-demand IE), demonstrations,
input text. Every sampling function draws from a `random.Random` its caller
passes, so one seeded stream can serve all of an instance's choices.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence

from .answers import serialize_answer
from .model import (
    Extraction,
    FormatSpec,
    IEInstance,
    LabelDef,
    SchemaDef,
    TaskKind,
    CLOSED_IE_TASKS,
)

logger = logging.getLogger(__name__)


class AssemblyError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Task description pools


def _read_lines(path) -> list[str]:
    """The stripped non-blank lines of a file (a Path or a packaged
    resource), or none when it is missing."""
    if not path.is_file():
        return []
    return [ln.strip() for ln in path.read_text(encoding="utf-8").splitlines() if ln.strip()]


def load_description_pool(task: TaskKind, pool_dir: Optional[str]) -> tuple[str, ...]:
    """The packaged descriptions of `task`, then the lines of
    `pool_dir/<task>/generated.txt` in file order. A non-empty
    `pool_dir/<task>/manual.txt` replaces the packaged descriptions."""
    packaged = resources.files("iealign").joinpath(f"data/pools/{task.value}/manual.txt")
    descriptions = _read_lines(packaged)
    if pool_dir is not None:
        base = Path(pool_dir) / task.value
        descriptions = (_read_lines(base / "manual.txt") or descriptions) + _read_lines(base / "generated.txt")
    return tuple(descriptions)


# ---------------------------------------------------------------------------
# Schema augmentation


SYMBOL_PREFIX = "LABEL_"  # symbolized labels read LABEL_1, LABEL_2, ...
MAX_EXEMPLARS = 3  # exemplars shown per label when guidelines are included


@dataclass(frozen=True)
class SchemaView:
    labels: tuple[LabelDef, ...]  # as shown to the model (possibly symbolized)
    symbol_map: Optional[dict] = None  # original name -> symbol
    guidelines_included: bool = False

    def label_names(self) -> tuple[str, ...]:
        return tuple(l.name for l in self.labels)


def augment_schema(
    schema: SchemaDef,
    gold: Extraction,
    guideline_rate: float,
    symbol_rate: float,
    rng: random.Random,
) -> tuple[SchemaView, Extraction]:
    """Sample a shuffled label subset of size k in [1, |schema|], then
    include guidelines with probability `guideline_rate` and symbolize the
    labels with probability `symbol_rate`, independently, and project the
    gold onto the view. What this draws from `rng` depends on the schema
    alone, never on the rates."""
    k = rng.randint(1, len(schema.labels))
    shown = rng.sample(schema.labels, k)
    include_guidelines = rng.random() < guideline_rate
    symbol_map = None
    if rng.random() < symbol_rate:
        symbol_map = {l.name: f"{SYMBOL_PREFIX}{i}" for i, l in enumerate(shown, 1)}
    projected = gold.project({l.name for l in shown}, symbol_map)
    labels = tuple(
        LabelDef(symbol_map[l.name] if symbol_map else l.name, l.guideline, l.exemplars[:MAX_EXEMPLARS])
        for l in shown
    )
    return SchemaView(labels, symbol_map, include_guidelines), projected


def render_schema_section(view: SchemaView) -> str:
    names = ", ".join(f'"{n}"' for n in view.label_names())
    lines = [f"The candidate categories are: {names}."]
    if view.guidelines_included:
        for label in view.labels:
            if label.guideline:
                entry = f'- "{label.name}": {label.guideline}'
                if label.exemplars:
                    entry += " Examples: " + ", ".join(label.exemplars) + "."
                lines.append(entry)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Demonstrations


@dataclass(frozen=True)
class AlignmentExample:
    """An SFT example's answer and the demonstrations its prompt shows."""

    answer: str
    demonstrations: tuple[tuple[str, str], ...]  # (text, answer) pairs


def attach_demonstrations(
    instance_id: str,
    format_spec: FormatSpec,
    view: Optional[SchemaView],
    answer: str,
    demo_pool: Sequence[IEInstance],
    demo_rate: float,
    k_range: tuple[int, int],
    rng: random.Random,
) -> AlignmentExample:
    """The example of `answer`, with probability `demo_rate` with
    k ~ Uniform[k_range] demonstrations from `demo_pool` but the instance
    itself, rendered under `format_spec` and the schema view; each demo's
    answer order is drawn from `rng` too."""
    if rng.random() >= demo_rate:
        return AlignmentExample(answer, ())
    pool = [d for d in demo_pool if d.id != instance_id]
    k = rng.randint(*k_range)
    if k > len(pool):
        logger.info("demo pool shortfall for %s: wanted %d, have %d", instance_id, k, len(pool))
        k = len(pool)
    chosen = rng.sample(pool, k)
    allowed = None  # the view's labels by their original names, once per example
    if view is not None:
        allowed = set(view.symbol_map) if view.symbol_map is not None else set(view.label_names())
    demos = []
    for d in chosen:
        gold = d.gold if view is None else d.gold.project(allowed, view.symbol_map)
        demos.append((d.text, serialize_answer(gold, format_spec, seed=rng)))
    return AlignmentExample(answer, tuple(demos))


# ---------------------------------------------------------------------------
# Prompt layout


def assemble_input(
    instance: IEInstance,
    view: Optional[SchemaView],
    task_desc: str,
    format_spec: FormatSpec,
    demos: Sequence[tuple[str, str]] = (),
) -> str:
    """Assemble the full prompt in the fixed section order."""
    sections: list[str] = []
    text_inlined = "{text}" in task_desc
    sections.append(task_desc.replace("{text}", instance.text) if text_inlined else task_desc)

    if instance.task in CLOSED_IE_TASKS:
        if view is None:
            raise AssemblyError("closed IE prompt requires a schema view")
        sections.append(render_schema_section(view))
        if instance.task is TaskKind.EAE and instance.gold.trigger is not None:
            sections.append(f'The event trigger is "{instance.gold.trigger}".')

    if instance.task is not TaskKind.ONDEMANDIE:
        fmt = format_spec.input_template
        if "{text}" in fmt:
            fmt = fmt.replace("{text}", instance.text)
            text_inlined = True
        sections.append(fmt)

    for i, (demo_text, demo_answer) in enumerate(demos, 1):
        sections.append(f"Example {i}:\nText: {demo_text}\nAnswer: {demo_answer}")

    if not text_inlined:
        sections.append(f"Text: {instance.text}")

    return "\n\n".join(sections)
