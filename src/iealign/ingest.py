"""Raw dataset readers, NA / length filtering, and corpus mixing.

Raw files are JSON lines whose gold encoding matches the canonical record
format (see model.py). The `ingest` config is a ReaderSpec, and the `mix`
config a MixturePlan. All operations are deterministic under a fixed seed:
per-instance decisions derive their randomness from the instance id, so
results do not depend on processing order or worker count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import ConfigurationError, DataError
from .model import (
    CLOSED_IE_TASKS,
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
    path: str
    schema: Optional[str] = None
    text_field: str = "text"
    gold_field: str = "gold"
    # labels that mean "nothing to extract" (RC null relation, NER O, EE
    # NONE, ...): an item that holds one is dropped, and so is an EE event
    # of a null type or an argument of a null role
    null_labels: tuple[str, ...] = ()
    na_keep_rate: float = 0.2
    max_tokens: int = 2048
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.na_keep_rate <= 1:
            raise ConfigurationError(f"na_keep_rate must be in [0, 1], got {self.na_keep_rate}")
        if self.max_tokens < 1:
            raise ConfigurationError(f"max_tokens must be >= 1, got {self.max_tokens}")


def load_schema(path) -> Optional[SchemaDef]:
    """The schema a JSON file holds (None for `null`). A file that is missing,
    is not a JSON schema object or null, or holds a schema with problems
    (`SchemaDef.validate`) is a ConfigurationError."""
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except FileNotFoundError:
        raise ConfigurationError(f"schema file not found: {path}")
    except ValueError as e:  # JSONDecodeError or UnicodeDecodeError
        raise ConfigurationError(f"schema file {path} is not JSON: {e}")
    try:
        if data is not None and not isinstance(data, dict):
            raise TypeError(f"the file holds {type(data).__name__}, not an object")
        schema = schema_from_json(data)
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigurationError(f"schema file {path} is not a schema: {e!r}")
    problems = schema.validate() if schema is not None else []
    if problems:
        raise ConfigurationError(f"schema file {path}: " + "; ".join(problems))
    return schema


def load_dataset(spec: ReaderSpec, lenient: bool) -> list[IEInstance]:
    """Read the spec's raw file into validated canonical instances, in source
    order. A malformed line, or one whose instance id an earlier line holds,
    is a DataError naming it; in lenient mode it is logged and skipped. The
    instances share the schema, and each gold label is the schema's own
    name string (`model.gold_from_json`)."""
    schema = load_schema(spec.schema) if spec.schema else None
    if schema is None and spec.task in CLOSED_IE_TASKS:
        raise ConfigurationError(f"a {spec.task.value} reader needs a schema: closed IE checks each label against one")
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

    return read_records(spec.path, convert, lenient)[0]


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
        gold = gold_from_json(spec.task, raw[spec.gold_field], schema)
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"bad gold encoding: {e}", line=lineno, field=spec.gold_field)
    problems = gold_shape_problems(gold)  # before the null labels are read off the items
    if problems:
        raise DataError("invalid instance: " + "; ".join(problems), line=lineno)
    gold = gold.project(set(gold.labels_used()) - set(spec.null_labels), None)
    index = raw.get("index", lineno - 1)
    if not isinstance(index, int) or isinstance(index, bool):  # 1, 1.0 and true would name three ids
        raise DataError("index is not an int", line=lineno, field="index")
    inst = IEInstance(
        id=stable_id(spec.dataset, index, text),
        dataset=spec.dataset,
        task=spec.task,
        text=text,
        schema=schema,
        gold=gold,
        is_na=gold.is_empty(),
    )
    problems = validate_instance(inst)
    if problems:
        raise DataError("invalid instance: " + "; ".join(problems), line=lineno)
    return inst


# ---------------------------------------------------------------------------
# Filters


def whitespace_token_count(text: str) -> int:
    return len(text.split())


def filter_na(instances: Sequence[IEInstance], spec: ReaderSpec) -> list[IEInstance]:
    """Keep all non-NA instances; keep each NA instance independently with
    probability `spec.na_keep_rate`. Relative order is preserved."""
    kept = []
    for inst in instances:
        if not inst.is_na or derive_rng(spec.seed, "filter_na", inst.id).random() < spec.na_keep_rate:
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
    datasets: dict[str, str]  # name -> canonical instances file
    general: Optional[str] = None  # a corpus mixed in at ie_rate
    cap: int = 5000
    quotas: dict[str, int] = field(default_factory=dict)
    ie_rate: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if not self.datasets:
            raise ConfigurationError("no datasets to mix")
        unknown = sorted(set(self.quotas) - set(self.datasets))
        if unknown:
            raise ConfigurationError(f"quotas name datasets not in the mixture: {unknown}")
        if self.cap < 1:
            raise ConfigurationError(f"cap must be >= 1, got {self.cap}")
        negative = {name: quota for name, quota in self.quotas.items() if quota < 0}
        if negative:
            raise ConfigurationError(f"quotas must be >= 0, got {negative}")
        if not 0 < self.ie_rate < 1:
            raise ConfigurationError(f"ie_rate must be in (0, 1), got {self.ie_rate}")


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


def mix_general(ie_corpus: Sequence, general_corpus: Sequence, plan: MixturePlan) -> list:
    """Mix IE records with general alignment records so the IE fraction equals
    the plan's `ie_rate` within one instance: the binding side is used in full
    and the other side is subsampled."""
    ie_rate, seed = plan.ie_rate, plan.seed
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
