"""Raw dataset readers, NA / length filtering, and corpus mixing.

Raw files are JSON lines whose gold encoding matches the canonical record
format (see model.py); a ReaderSpec renames the top-level fields and declares
the dataset's null labels. All operations are deterministic under a fixed
seed: per-instance decisions derive their randomness from the instance id, so
results do not depend on processing order or worker count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import ConfigurationError, DataError
from .model import (
    Extraction,
    IEInstance,
    SchemaDef,
    TaskKind,
    gold_from_json,
    gold_shape_problems,
    read_records,
    schema_from_json,
    stable_id,
    validate_instance,
)
from .seeds import derive_rng


@dataclass(frozen=True)
class ReaderSpec:
    dataset: str
    task: TaskKind
    text_field: str = "text"
    gold_field: str = "gold"
    schema_path: Optional[str] = None
    # labels that mean "nothing to extract" (RC null relation, ERE NONE, ...)
    null_labels: tuple[str, ...] = ()


def load_schema(path) -> SchemaDef:
    try:
        with open(path, encoding="utf-8") as f:
            return schema_from_json(json.load(f))
    except FileNotFoundError:
        raise ConfigurationError(f"schema file not found: {path}")


def _apply_null_labels(task: TaskKind, gold: Extraction, null_labels: tuple[str, ...]) -> Extraction:
    if not null_labels:
        return gold
    nulls = set(null_labels)
    if task in (TaskKind.RC, TaskKind.RE, TaskKind.ERE):
        items = tuple(it for it in gold.items if it[1] not in nulls)
        return Extraction(task, items, gold.trigger, gold.table)
    return gold


def load_dataset(spec: ReaderSpec, path, lenient: bool = False) -> list[IEInstance]:
    """Read a raw JSONL file into validated canonical instances, in source
    order. A malformed line, or one whose instance id an earlier line holds,
    is a DataError naming it; in lenient mode it is logged and skipped."""
    schema = load_schema(spec.schema_path) if spec.schema_path else None
    if schema is not None and schema.task is not spec.task:
        raise ConfigurationError(
            f"schema task {schema.task.value} does not match reader task {spec.task.value}"
        )
    seen: set[str] = set()

    def convert(raw, lineno: int) -> IEInstance:
        inst = _read_record(spec, schema, raw, lineno)
        if inst.id in seen:
            raise DataError(f"duplicate instance id {inst.id!r}", line=lineno)
        seen.add(inst.id)
        return inst

    return read_records(path, convert, lenient)[0]


def _read_record(spec: ReaderSpec, schema: Optional[SchemaDef], raw, lineno: int) -> IEInstance:
    if not isinstance(raw, dict):
        raise DataError("record is not a JSON object", line=lineno)
    try:
        json.dumps(raw, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError as e:  # a lone surrogate, e.g. from a "\ud800" JSON escape
        raise DataError(f"record is not valid Unicode: {e}", line=lineno)
    if spec.text_field not in raw:
        raise DataError("missing text", line=lineno, field=spec.text_field)
    if spec.gold_field not in raw:
        raise DataError("missing gold", line=lineno, field=spec.gold_field)
    text = raw[spec.text_field]
    if not isinstance(text, str):
        raise DataError("text is not a string", line=lineno, field=spec.text_field)
    try:
        gold = gold_from_json(spec.task, raw[spec.gold_field])
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"bad gold encoding: {e}", line=lineno, field=spec.gold_field)
    problems = gold_shape_problems(gold)  # before the null labels are read off the items
    if problems:
        raise DataError("invalid instance: " + "; ".join(problems), line=lineno)
    gold = _apply_null_labels(spec.task, gold, spec.null_labels)
    index = raw.get("index", lineno - 1)
    inst = IEInstance(
        id=stable_id(spec.dataset, index, text),
        dataset=spec.dataset,
        task=spec.task,
        text=text,
        schema=schema,
        gold=gold,
        is_na=gold.is_empty() if spec.task is not TaskKind.ONDEMANDIE else False,
    )
    problems = validate_instance(inst)
    if problems:
        raise DataError("invalid instance: " + "; ".join(problems), line=lineno)
    return inst


# ---------------------------------------------------------------------------
# Filters


def whitespace_token_count(text: str) -> int:
    return len(text.split())


def filter_na(instances: Sequence[IEInstance], keep_rate: float, seed: int) -> list[IEInstance]:
    """Keep all non-NA instances; keep each NA instance independently with
    probability `keep_rate`. Relative order is preserved."""
    if not 0 <= keep_rate <= 1:
        raise ConfigurationError(f"keep_rate must be in [0, 1], got {keep_rate}")
    kept = []
    for inst in instances:
        if not inst.is_na or derive_rng(seed, "filter_na", inst.id).random() < keep_rate:
            kept.append(inst)
    return kept


def filter_length(instances: Sequence[IEInstance], max_tokens: int) -> list[IEInstance]:
    """Drop instances whose text exceeds `max_tokens` whitespace tokens
    (inclusive boundary: exactly max_tokens is retained). The pipeline
    re-checks fully assembled examples later."""
    return [inst for inst in instances if whitespace_token_count(inst.text) <= max_tokens]


# ---------------------------------------------------------------------------
# Mixing


@dataclass(frozen=True)
class MixturePlan:
    cap: int = 5000
    quotas: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.cap < 1:
            raise ConfigurationError(f"cap must be >= 1, got {self.cap}")


def mix_proportional(
    datasets: dict[str, Sequence[IEInstance]], plan: MixturePlan
) -> tuple[list[IEInstance], dict[str, int]]:
    """Examples-proportional mixture: each dataset contributes
    min(|D|, cap) instances, or its explicit quota. Returns the deterministic
    shuffled corpus and the per-dataset contribution counts."""
    sampled: list[IEInstance] = []
    counts: dict[str, int] = {}
    for name in sorted(datasets):
        pool = list(datasets[name])
        quota = plan.quotas.get(name)
        if quota is not None:
            if quota > len(pool):
                raise ConfigurationError(
                    f"quota {quota} for dataset {name!r} exceeds available {len(pool)}"
                )
            take = quota
        else:
            take = min(len(pool), plan.cap)
        rng = derive_rng(plan.seed, "mix_proportional", name)
        chosen = pool if take == len(pool) else rng.sample(pool, take)
        counts[name] = take
        sampled.extend(chosen)
    sampled.sort(key=lambda i: i.id)
    derive_rng(plan.seed, "mix_proportional", "shuffle").shuffle(sampled)
    return sampled, counts


def mix_general(ie_corpus: Sequence, general_corpus: Sequence, ie_rate: float, seed: int) -> list:
    """Mix IE records with general alignment records so the IE fraction equals
    `ie_rate` within one instance: the binding side is used in full and the
    other side is subsampled."""
    if not 0 < ie_rate < 1:
        raise ConfigurationError(f"ie_rate must be in (0, 1), got {ie_rate}")
    if not ie_corpus or not general_corpus:
        raise ConfigurationError("both corpora must be non-empty")
    n_ie_all = len(ie_corpus)
    n_gen_all = len(general_corpus)
    # totals achievable using one side in full
    gen_needed = round(n_ie_all * (1 - ie_rate) / ie_rate)
    if gen_needed <= n_gen_all:
        ie_part = list(ie_corpus)
        gen_part = _sample(general_corpus, gen_needed, seed, "general")
    else:
        ie_needed = round(n_gen_all * ie_rate / (1 - ie_rate))
        ie_part = _sample(ie_corpus, ie_needed, seed, "ie")
        gen_part = list(general_corpus)
    total = len(ie_part) + len(gen_part)
    achieved = len(ie_part) / total
    if abs(achieved - ie_rate) > 1.0 / total:
        raise ConfigurationError(
            f"ie_rate {ie_rate} unachievable: best achievable is {achieved:.4f} "
            f"with |IE|={n_ie_all}, |general|={n_gen_all}"
        )
    mixed = ie_part + gen_part
    derive_rng(seed, "mix_general", "shuffle").shuffle(mixed)
    return mixed


def _sample(pool: Sequence, n: int, seed: int, tag: str) -> list:
    rng = derive_rng(seed, "mix_general", tag)
    return list(pool) if n >= len(pool) else rng.sample(list(pool), n)
