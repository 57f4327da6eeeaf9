"""End-to-end pipeline stages: SFT corpus construction, DPO corpus
construction, corpus statistics, and evaluation.

Every per-instance random decision derives its seed from (master seed, stage
tag, instance id), so outputs are independent of processing order and worker
count. Output files are JSON lines written atomically; every run emits a
manifest with content digests so reruns can be verified byte-for-byte.
"""

from __future__ import annotations

import hashlib
import json
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

from .answers import attach_cot, parse_answer, parse_answer_lenient, serialize_answer, ParseError
from .augment import generate_cot, sample_words_limit
from .client import BaseClient, TransportError
from .errors import ConfigurationError, DataError
from .formats import EVAL_FORMATS, MARKDOWN_SPEC, load_format_library, spec_from_json, spec_to_json
from .ingest import whitespace_token_count
from .metrics import PRF, exact_match_f1, micro_prf
from .model import (
    CLOSED_IE_TASKS,
    AlignmentExample,
    Extraction,
    IEInstance,
    TaskKind,
    read_instances,
    read_records,
    write_json_atomic,
    write_jsonl_atomic,
)
from .prefpairs import (
    DpoPlan,
    assemble_dpo_corpus,
    build_offline_pair,
    build_online_pair,
    pair_to_record,
    score_samples,
)
from .prompts import (
    DescriptionPool,
    SchemaView,
    assemble_input,
    attach_demonstrations,
    augment_schema,
    load_description_pool,
    sample_task_description,
)
from .seeds import derive_rng, derive_seed

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# SFT construction


@dataclass(frozen=True)
class SftOptions:
    seed: int = 0
    demo_rate: float = 0.5
    demo_k_range: tuple[int, int] = (1, 8)
    demo_pool_size: int = 64  # per-task candidates demonstrations draw from
    guideline_rate: float = 0.2
    symbol_rate: float = 0.1
    cot_rate: float = 0.1
    cot_per_task: int = 1000
    max_tokens: int = 2048
    pool_dir: Optional[str] = None

    def __post_init__(self):
        for name in ("demo_rate", "guideline_rate", "symbol_rate", "cot_rate"):
            rate = getattr(self, name)
            if not 0 <= rate <= 1:
                raise ConfigurationError(f"{name} must be in [0, 1], got {rate}")
        k_range = self.demo_k_range
        if len(k_range) != 2 or not 0 <= k_range[0] <= k_range[1]:
            raise ConfigurationError(f"demo_k_range must be (lo, hi) with 0 <= lo <= hi, got {k_range}")
        for name, low in (("demo_pool_size", 0), ("cot_per_task", 0), ("max_tokens", 1)):
            if getattr(self, name) < low:
                raise ConfigurationError(f"{name} must be >= {low}, got {getattr(self, name)}")


def cot_eligible(instance_id: str, is_na: bool, opts: SftOptions) -> bool:
    """Deterministic per-instance CoT eligibility: non-NA instances pass an
    independent Bernoulli(cot_rate) draw keyed by the instance id."""
    if is_na or opts.cot_rate <= 0:
        return False
    return derive_rng(opts.seed, "cot", instance_id).random() < opts.cot_rate


def select_cot_ids(eligible_by_task: dict[TaskKind, list[str]], opts: SftOptions) -> set[str]:
    """Cap eligibility at cot_per_task per task with a seeded sample, so the
    final CoT count is exactly min(cot_per_task, |eligible|) per task."""
    chosen: set[str] = set()
    for task, ids in eligible_by_task.items():
        ids = sorted(ids)
        if len(ids) > opts.cot_per_task:
            ids = derive_rng(opts.seed, "cot-cap", task.value).sample(ids, opts.cot_per_task)
        chosen.update(ids)
    return chosen


def build_sft(
    instances: Sequence[IEInstance],
    opts: SftOptions,
    client: Optional[BaseClient] = None,
) -> tuple[list[dict], dict]:
    """Assemble one training record per instance and return (records, stats).

    Stages per instance: format choice, schema augmentation, task description,
    answer serialization, demonstrations, prompt layout, length re-check, and
    CoT attachment for the capped eligible subset (skipped without a client).
    """
    library = load_format_library()
    pools = {}

    # small per-task demonstration pools keep demo sampling O(1) per instance
    by_task: dict[TaskKind, list[IEInstance]] = {}
    for inst in instances:
        by_task.setdefault(inst.task, []).append(inst)
    demo_pools: dict[TaskKind, list[IEInstance]] = {}
    for task, group in by_task.items():
        group_sorted = sorted(group, key=lambda i: i.id)
        k = min(opts.demo_pool_size, len(group_sorted))
        demo_pools[task] = derive_rng(opts.seed, "demopool", task.value).sample(group_sorted, k)

    eligible_by_task: dict[TaskKind, list[str]] = {}
    if client is not None:
        for inst in instances:
            if cot_eligible(inst.id, inst.is_na, opts):
                eligible_by_task.setdefault(inst.task, []).append(inst.id)
    cot_ids = select_cot_ids(eligible_by_task, opts)

    records: list[dict] = []
    dropped_length = 0
    for inst in instances:
        task = inst.task
        specs = library.get(task)
        if not specs:
            raise ConfigurationError(f"no format specs for task {task.value}")
        fmt = derive_rng(opts.seed, "format", inst.id).choice(specs)

        view = None
        gold = inst.gold
        if task in CLOSED_IE_TASKS:
            view, gold = augment_schema(
                inst.schema, inst.gold, guideline_rate=opts.guideline_rate, symbol_rate=opts.symbol_rate,
                seed=derive_seed(opts.seed, "schema", inst.id),
            )

        if task not in pools:
            pools[task] = load_description_pool(task, opts.pool_dir)
        task_desc = sample_task_description(pools[task], derive_seed(opts.seed, "desc", inst.id))

        answer = serialize_answer(gold, fmt, seed=derive_seed(opts.seed, "order", inst.id))

        example = AlignmentExample(
            instance_id=inst.id,
            task=task,
            prompt="",
            demonstrations=(),
            output=answer,
            answer=answer,
            cot=None,
            format=fmt,
            schema_view_labels=view.label_names() if view else (),
            has_guidelines=view.guidelines_included if view else False,
            symbolized=bool(view and view.symbol_map),
        )
        example = attach_demonstrations(
            example,
            demo_pools[task],
            view,
            demo_rate=opts.demo_rate,
            k_range=opts.demo_k_range,
            seed=derive_seed(opts.seed, "demo", inst.id),
        )
        prompt = assemble_input(inst, view, task_desc, fmt, example.demonstrations)
        example = replace(example, prompt=prompt)

        if whitespace_token_count(prompt) + whitespace_token_count(example.output) > opts.max_tokens:
            dropped_length += 1
            logger.info("dropping over-length example %s", inst.id)
            continue

        if inst.id in cot_ids:
            words = sample_words_limit(derive_rng(opts.seed, "cotwords", inst.id))
            try:
                explanation = generate_cot(prompt, example.answer, words, client)
            except (TransportError, DataError) as e:
                logger.warning("CoT generation skipped for %s: %s", inst.id, e)
            else:
                example = attach_cot(example, explanation)

        records.append(_example_record(example, inst))

    stats_report = stats(records)
    stats_report["dropped_length"] = dropped_length
    stats_report["input_instances"] = len(instances)
    return records, stats_report


def _example_record(ex: AlignmentExample, inst: IEInstance) -> dict:
    return {
        "id": ex.instance_id,
        "dataset": inst.dataset,
        "task": ex.task.value,
        "prompt": ex.prompt,
        "demonstrations": [list(d) for d in ex.demonstrations],
        "output": ex.output,
        "answer": ex.answer,
        "cot": ex.cot,
        "format": spec_to_json(ex.format),
        "schema_view_labels": list(ex.schema_view_labels),
        "has_guidelines": ex.has_guidelines,
        "symbolized": ex.symbolized,
        "trigger": inst.gold.trigger,
    }


# ---------------------------------------------------------------------------
# DPO construction


def eval_format_for(task: TaskKind, library: Optional[dict] = None):
    if task in EVAL_FORMATS:
        return EVAL_FORMATS[task]
    if task is TaskKind.ONDEMANDIE:
        return MARKDOWN_SPEC
    library = library or load_format_library()
    specs = library.get(task)
    if not specs:
        raise ConfigurationError(f"no format available for task {task.value}")
    return specs[0]


def dpo_prompt(inst: IEInstance, fmt, pool_dir: Optional[str], seed: int) -> str:
    """Prompt for preference sampling: full (unaugmented) schema, a seeded
    task description, the fixed evaluation format, no demonstrations."""
    return _dpo_prompt(inst, fmt, load_description_pool(inst.task, pool_dir), seed)


def _dpo_prompt(inst: IEInstance, fmt, pool: DescriptionPool, seed: int) -> str:
    view = None
    if inst.task in CLOSED_IE_TASKS:
        view = SchemaView(inst.schema.labels)
    desc = sample_task_description(pool, derive_seed(seed, "dpo-desc", inst.id))
    return assemble_input(inst, view, desc, fmt)


def build_dpo(
    instances: Sequence[IEInstance],
    plan: DpoPlan,
    client: BaseClient,
    pool_dir: Optional[str] = None,
) -> tuple[list, dict]:
    """Score samples per instance, form pair candidates, and assemble the
    final corpus. Gold answers use the fixed evaluation format with an
    unshuffled item order so BLEU scores have a stable reference.

    Up to `client.workers` prompts are sampled at once. The instances that
    share a prompt are sampled in input order by one worker, so each sees
    the cache hits and backend answers it would see on one thread, and the
    results are taken in input order: the corpus does not depend on the
    worker count. An instance whose sampling fails with a TransportError is
    skipped; any other error stops the instances not yet started and is
    raised."""
    library = load_format_library()
    pools = {}
    jobs = []
    for inst in instances:
        fmt = eval_format_for(inst.task, library)
        gold_text = serialize_answer(inst.gold, fmt, seed=None)
        if inst.task not in pools:
            pools[inst.task] = load_description_pool(inst.task, pool_dir)
        jobs.append((inst, gold_text, _dpo_prompt(inst, fmt, pools[inst.task], plan.seed)))

    failed = threading.Event()

    def sample(job):
        """The instance's scored samples, or None when it is skipped."""
        inst, gold_text, prompt = job
        if failed.is_set():  # another instance failed: build_dpo raises, and no result is used
            return None
        try:
            return score_samples(
                inst.id, inst.dataset, prompt, gold_text, client,
                n=plan.samples_per_instance, temperature=plan.sample_temperature,
            )
        except TransportError as e:
            logger.warning("skipping instance %s: %s", inst.id, e)
            return None
        except BaseException:
            failed.set()
            raise

    def sample_unit(positions):
        return [(pos, sample(jobs[pos])) for pos in positions]

    units = {}  # prompt -> positions of its instances, in input order
    for pos, (_, _, prompt) in enumerate(jobs):
        units.setdefault(prompt, []).append(pos)

    candidates = []
    skipped = 0
    executor = ThreadPoolExecutor(client.workers) if client.workers > 1 else None
    try:
        results = executor.map(sample_unit, units.values()) if executor else map(sample_unit, units.values())
        for scored in _in_input_order(results):
            if scored is None:
                skipped += 1
                continue
            online = build_online_pair(scored, plan.gap_threshold)
            offline = build_offline_pair(scored, plan.gap_threshold)
            if online is not None:
                candidates.append(online)
            if offline is not None:
                candidates.append(offline)
    finally:
        if executor:
            executor.shutdown(cancel_futures=True)
    corpus, summary = assemble_dpo_corpus(candidates, plan)
    summary["skipped_instances"] = skipped
    summary["candidate_online"] = sum(1 for p in candidates if p.origin == "online")
    summary["candidate_offline"] = sum(1 for p in candidates if p.origin == "offline")
    if not corpus:
        logger.warning("no qualifying pairs")
        summary["note"] = "no qualifying pairs"
    return corpus, summary


def _in_input_order(units):
    """The results of units of (position, result) pairs, by position. Units
    come in the order of their first position, so when one arrives every
    earlier position has arrived too."""
    done = {}
    next_pos = 0
    for unit in units:
        done.update(unit)
        while next_pos in done:
            yield done.pop(next_pos)
            next_pos += 1


# ---------------------------------------------------------------------------
# Statistics and label-closure audit


# The type of each field of an SFT record that `stats` reads.
SFT_RECORD_TYPES = {
    "id": str, "dataset": str, "task": str, "prompt": str, "demonstrations": list, "output": str,
    "answer": str, "cot": (str, type(None)), "format": dict, "schema_view_labels": list,
    "has_guidelines": bool, "symbolized": bool, "trigger": (str, type(None)),
}


def check_sft_record(rec) -> dict:
    """`rec` when it holds every field `stats` reads, with its type: its task a
    TaskKind value, its labels strings and its format one `spec_from_json`
    reads, with string values. Otherwise a KeyError, TypeError or ValueError."""
    for name, kind in SFT_RECORD_TYPES.items():
        if not isinstance(rec[name], kind):
            raise TypeError(f"SFT record {name} is {type(rec[name]).__name__}")
    if not all(isinstance(v, str) for v in [*rec["schema_view_labels"], *rec["format"].values()]):
        raise TypeError("SFT record labels and format values must be strings")
    TaskKind(rec["task"])
    spec_from_json(rec["format"])
    return rec


def stats(records: Sequence[dict]) -> dict:
    """Composition report over SFT records: per-task/per-dataset counts,
    demo/guideline/CoT/symbol rates, a length histogram, and the audit that
    no answer uses a label outside its prompt's schema section."""
    per_task: dict[str, int] = {}
    per_dataset: dict[str, int] = {}
    demo_hist: dict[int, int] = {}
    n_with_demos = n_guidelines = n_closed = n_cot = n_symbolized = 0
    length_hist: dict[str, int] = {}
    closure_violations = 0
    violating_ids: list[str] = []
    for rec in records:
        per_task[rec["task"]] = per_task.get(rec["task"], 0) + 1
        if rec.get("dataset"):
            per_dataset[rec["dataset"]] = per_dataset.get(rec["dataset"], 0) + 1
        k = len(rec["demonstrations"])
        if k:
            n_with_demos += 1
            demo_hist[k] = demo_hist.get(k, 0) + 1
        task = TaskKind(rec["task"])
        if task in CLOSED_IE_TASKS:
            n_closed += 1
            if rec["has_guidelines"]:
                n_guidelines += 1
            if rec["symbolized"]:
                n_symbolized += 1
            spec = spec_from_json(rec["format"])
            extraction = parse_answer_lenient(rec["answer"], spec, rec.get("trigger")).extraction
            if not set(extraction.labels_used()) <= set(rec["schema_view_labels"]):
                closure_violations += 1
                violating_ids.append(rec["id"])
        if rec["cot"]:
            n_cot += 1
        tokens = whitespace_token_count(rec["prompt"]) + whitespace_token_count(rec["output"])
        bucket = f"{(tokens // 256) * 256}-{(tokens // 256) * 256 + 255}"
        length_hist[bucket] = length_hist.get(bucket, 0) + 1
    n = len(records)
    return {
        "total": n,
        "per_task": per_task,
        "per_dataset": per_dataset,
        "demo_rate": n_with_demos / n if n else 0.0,
        "demo_histogram": {str(k): v for k, v in sorted(demo_hist.items())},
        "guideline_rate": n_guidelines / n_closed if n_closed else 0.0,
        "symbol_rate": n_symbolized / n_closed if n_closed else 0.0,
        "cot_count": n_cot,
        "cot_rate": n_cot / n if n else 0.0,
        "length_histogram": dict(sorted(length_hist.items(), key=lambda kv: int(kv[0].split("-")[0]))),
        "closure_violations": closure_violations,
        "closure_violating_ids": violating_ids[:20],
    }


# ---------------------------------------------------------------------------
# Evaluation


def evaluate(predictions: dict[str, str], gold_instances: Sequence[IEInstance]) -> dict:
    """Score predicted answer texts against gold instances with exact-match
    micro F1 under each task's fixed evaluation grammar (`eval_format_for`).
    Unparseable or missing predictions score zero extractions and are counted;
    predictions whose id no gold instance has are logged as a count."""
    library = load_format_library()
    parts: list[PRF] = []
    parse_failures = 0
    diagnostics: list[dict] = []
    for inst in gold_instances:
        spec = eval_format_for(inst.task, library)
        text = predictions.get(inst.id)
        notes: list[str] = []
        if text is None:
            parse_failures += 1
            pred = Extraction(inst.task, trigger=inst.gold.trigger)
            notes.append("missing prediction")
        else:
            try:
                pred = parse_answer(text, spec, trigger=inst.gold.trigger)
            except ParseError as e:
                parse_failures += 1
                pred = Extraction(inst.task, trigger=inst.gold.trigger)
                notes.append(str(e))
        prf = exact_match_f1(pred, inst.gold)
        parts.append(prf)
        diagnostics.append(
            {"id": inst.id, "tp": prf.tp, "fp": prf.fp, "fn": prf.fn, "notes": notes}
        )
    unknown = len(predictions.keys() - {inst.id for inst in gold_instances})
    if unknown:
        logger.warning("%d prediction ids match no gold instance and are not scored", unknown)
    total = micro_prf(parts)
    return {
        "n": len(gold_instances),
        "parse_failures": parse_failures,
        "tp": total.tp,
        "fp": total.fp,
        "fn": total.fn,
        "precision": total.precision,
        "recall": total.recall,
        "f1": total.f1,
        "per_instance": diagnostics,
    }


# ---------------------------------------------------------------------------
# Manifests and run outputs


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def config_digest(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:16]


def write_manifest(path, config: dict, counts: dict, outputs: dict[str, str], started: float) -> dict:
    from . import __version__

    manifest = {
        "version": __version__,
        "config_digest": config_digest(config),
        "counts": counts,
        "outputs": {name: file_digest(p) for name, p in outputs.items()},
        "wall_time_s": round(time.monotonic() - started, 3),
    }
    write_json_atomic(manifest, path)
    return manifest


def run_build_sft(
    instances: Sequence[IEInstance],
    opts: SftOptions,
    out_dir,
    client: Optional[BaseClient] = None,
    config: Optional[dict] = None,
) -> dict:
    out_dir = Path(out_dir)
    started = time.monotonic()
    records, report = build_sft(instances, opts, client=client)
    write_jsonl_atomic(records, out_dir / "sft.jsonl")
    return write_manifest(
        out_dir / "manifest.json",
        config or {"seed": opts.seed},
        report,
        {"sft.jsonl": out_dir / "sft.jsonl"},
        started,
    )


def run_build_dpo(
    instances: Sequence[IEInstance],
    plan: DpoPlan,
    client: BaseClient,
    out_dir,
    pool_dir: Optional[str] = None,
    config: Optional[dict] = None,
) -> dict:
    out_dir = Path(out_dir)
    started = time.monotonic()
    corpus, summary = build_dpo(instances, plan, client, pool_dir=pool_dir)
    write_jsonl_atomic((pair_to_record(p) for p in corpus), out_dir / "dpo.jsonl")
    return write_manifest(
        out_dir / "manifest.json",
        config or {"seed": plan.seed},
        summary,
        {"dpo.jsonl": out_dir / "dpo.jsonl"},
        started,
    )


def load_predictions(path) -> dict[str, str]:
    """Prediction text by id; a repeated id is a DataError naming its line."""
    predictions: dict[str, str] = {}

    def add(rec: dict, lineno: int) -> None:
        pred_id, text = _prediction(rec)
        if pred_id in predictions:
            raise ValueError(f"duplicate prediction id {pred_id!r}")
        predictions[pred_id] = text

    read_records(path, add, lenient=False)
    return predictions


def _prediction(rec: dict) -> tuple[str, str]:
    if not isinstance(rec["id"], str):
        raise TypeError(f"prediction id {rec['id']!r} is not a string")
    if not isinstance(rec["output"], str):
        raise TypeError(f"prediction output {rec['output']!r} is not a string")
    return rec["id"], rec["output"]


def evaluate_files(pred_path, gold_path, task: Optional[TaskKind] = None) -> dict:
    golds = read_instances(gold_path)
    if task is not None:
        mismatched = [g.id for g in golds if g.task is not task]
        if mismatched:
            raise ConfigurationError(
                f"{len(mismatched)} gold instances are not {task.value} (first: {mismatched[0]})"
            )
    preds = load_predictions(pred_path)
    return evaluate(preds, golds)
