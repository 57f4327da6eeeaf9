"""Input-side assembly: task descriptions, schema augmentation, few-shot
demonstrations, and the fixed prompt layout.

The prompt is laid out as: task description, schema description (closed IE
only), output-format description (omitted for on-demand IE), demonstrations,
input text. All sampling derives from explicit seeds.
"""

from __future__ import annotations

import logging
import random
import re
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence

from .answers import serialize_answer
from .errors import ConfigurationError
from .model import (
    AlignmentExample,
    Extraction,
    FormatSpec,
    IEInstance,
    LabelDef,
    SchemaDef,
    TaskKind,
    CLOSED_IE_TASKS,
)
from .seeds import derive_seed

logger = logging.getLogger(__name__)


class AssemblyError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Task description pools


@dataclass(frozen=True)
class DescriptionPool:
    task: TaskKind
    descriptions: tuple[str, ...]


def _read_lines(path) -> list[str]:
    """The stripped non-blank lines of a file (a Path or a packaged
    resource), or none when it is missing."""
    if not path.is_file():
        return []
    return [ln.strip() for ln in path.read_text(encoding="utf-8").splitlines() if ln.strip()]


def load_description_pool(task: TaskKind, pool_dir: Optional[str] = None) -> DescriptionPool:
    """The packaged descriptions of `task`, then the lines of
    `pool_dir/<task>/generated.txt` in file order. A non-empty
    `pool_dir/<task>/manual.txt` replaces the packaged descriptions."""
    packaged = resources.files("iealign").joinpath(f"data/pools/{task.value}/manual.txt")
    descriptions = _read_lines(packaged)
    if pool_dir is not None:
        base = Path(pool_dir) / task.value
        descriptions = (_read_lines(base / "manual.txt") or descriptions) + _read_lines(base / "generated.txt")
    return DescriptionPool(task, tuple(descriptions))


def sample_task_description(pool: DescriptionPool, seed: int) -> str:
    if not pool.descriptions:
        raise ConfigurationError(f"empty description pool for task {pool.task.value}")
    return random.Random(seed).choice(pool.descriptions)


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
    seed: int,
) -> tuple[SchemaView, Extraction]:
    """Sample a shuffled label subset of size k in [1, |schema|], restrict the
    gold to it, then include guidelines with probability `guideline_rate` and
    symbolize the labels with probability `symbol_rate`, independently."""
    if not schema.labels:
        raise ConfigurationError("empty schema")
    rng = random.Random(seed)
    k = rng.randint(1, len(schema.labels))
    shown = rng.sample(list(schema.labels), k)
    restricted = gold.restrict(l.name for l in shown)
    include_guidelines = rng.random() < guideline_rate
    symbol_map = None
    if rng.random() < symbol_rate:
        symbol_map = {l.name: f"{SYMBOL_PREFIX}{i}" for i, l in enumerate(shown, 1)}
        restricted = restricted.relabel(symbol_map)
    labels = tuple(
        LabelDef(symbol_map[l.name] if symbol_map else l.name, l.guideline, l.exemplars[:MAX_EXEMPLARS])
        for l in shown
    )
    return SchemaView(labels, symbol_map, include_guidelines), restricted


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


def render_demo_answer(
    demo: IEInstance, spec: FormatSpec, view: Optional[SchemaView], seed: int
) -> str:
    gold = demo.gold
    if view is not None:
        allowed = (
            set(view.symbol_map.keys()) if view.symbol_map is not None else set(view.label_names())
        )
        gold = gold.restrict(allowed)
        if view.symbol_map is not None:
            gold = gold.relabel(view.symbol_map)
    return serialize_answer(gold, spec, seed=seed)


def attach_demonstrations(
    example: AlignmentExample,
    demo_pool: Sequence[IEInstance],
    view: Optional[SchemaView],
    demo_rate: float,
    k_range: tuple[int, int],
    seed: int,
) -> AlignmentExample:
    """With probability `demo_rate`, add k ~ Uniform[k_range] demonstrations
    rendered with the example's own format and schema view."""
    rng = random.Random(seed)
    if rng.random() >= demo_rate:
        return example
    pool = [d for d in demo_pool if d.id != example.instance_id]
    k = rng.randint(*k_range)
    if k > len(pool):
        logger.info(
            "demo pool shortfall for %s: wanted %d, have %d", example.instance_id, k, len(pool)
        )
        k = len(pool)
    if k == 0:
        return example
    chosen = rng.sample(pool, k)
    demos = tuple(
        (d.text, render_demo_answer(d, example.format, view, derive_seed(seed, "demo", d.id)))
        for d in chosen
    )
    return replace(example, demonstrations=demos)


# ---------------------------------------------------------------------------
# Prompt layout

_PLACEHOLDER_RE = re.compile(r"\{(text)\}")


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

    prompt = "\n\n".join(sections)
    leftover = _PLACEHOLDER_RE.search(prompt.replace(instance.text, ""))
    if leftover:
        raise AssemblyError(f"unresolved placeholder {{{leftover.group(1)}}}")
    return prompt
