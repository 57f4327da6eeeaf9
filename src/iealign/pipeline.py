"""End-to-end pipeline stages: SFT corpus construction, DPO corpus
construction, corpus statistics, and evaluation.

Every per-instance random decision draws from a stream seeded by (master
seed, tag, instance id): one "sft" stream serves all of an SFT example's
choices, and CoT eligibility and DPO descriptions keep streams of their own.
So outputs are independent of processing order and worker count: `build_sft`
builds its CoT subset's records first, and then builds the rest in blocks of
SFT_BLOCK consecutive instances, on the CPUs this process may run on (in
forked workers; in this process alone where fork is not available). The
blocks' text is written to `sft.jsonl` in input order, and the writing
process holds one block of it, never the corpus. Output files are JSON lines
written atomically, so a failure mid-write keeps the previous file; every run
emits a manifest with content digests so reruns can be verified byte-for-byte.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import random
import signal
import threading
import time
import traceback
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Iterator, Optional, Sequence, TypeVar

from .answers import parse_answer, parse_answer_lenient, serialize_answer, ParseError
from .augment import cot_prompt, generate_cot, sample_words_limit
from .client import BaseClient, TransportError
from .errors import ConfigurationError, DataError
from .formats import EVAL_FORMATS, load_format_library, spec_from_json, spec_to_json
from .ingest import whitespace_token_count
from .metrics import PRF, exact_match_f1, micro_prf
from .model import (
    CLOSED_IE_TASKS,
    Extraction,
    IEInstance,
    TaskKind,
    jsonl_line,
    read_instances,
    read_records,
    write_json_atomic,
    write_jsonl_atomic,
)
from .prefpairs import DpoPlan, assemble_dpo_corpus, build_pairs, score_samples
from .prompts import SchemaView, assemble_input, attach_demonstrations, augment_schema, load_description_pool
from .seeds import derive_rng, derive_seed

T = TypeVar("T")

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# SFT construction

COT_SEPARATOR = "\n\n"  # between a CoT explanation and the answer, in a record's output

# Records are built in blocks of this many consecutive instances, one block
# per process at a time: at sft_5k's sizes a block's text is about 0.35 MB,
# and it is all of the corpus the writing process holds.
SFT_BLOCK = 128


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
) -> tuple[Iterator[str], dict]:
    """Assemble one training record per instance, as a stream: return
    (blocks, report), where `blocks` yields the JSONL text (`jsonl_line`s) of
    the records of each block of SFT_BLOCK consecutive instances in input
    order, and `report` is filled once it is exhausted with the records'
    `Composition` report, the length drops, CoT skipped and input count.

    Stages per instance: format choice, task description, schema augmentation,
    answer serialization, demonstrations, prompt layout, length re-check, and
    CoT for the capped eligible subset (none without a client). Before this
    returns, each task's formats and descriptions are looked up and the CoT
    subset's records are built and sent through `client.map_prompts`, so a
    ConfigurationError or a CoT error comes before the first block. The
    blocks are built once `blocks` is read, by `sft_workers` processes
    (`map_forked`), each at most about one block ahead of the reader, which
    holds one block of text. An error in a record is raised when its block is
    due, so it is the first one in input order. The closure audit reads the
    projected gold the answer was serialized from, which parses back to
    itself; the report counts the length check's tokens plus the CoT's.

    Each instance draws every choice from one stream seeded by its id, so
    building the CoT subset first, and the blocks in any process, changes no
    byte. Draws whose consumption no option changes come first (format,
    description, CoT word limit), then the schema view and the answer order,
    and the demonstrations last. So a change to `guideline_rate` or
    `symbol_rate` changes only what guidelines and symbols govern, and a
    change to `demo_rate` or `demo_k_range` only the demonstrations.
    """
    library = load_format_library()
    pools = {}
    for task in dict.fromkeys(inst.task for inst in instances):
        if not library.get(task):
            raise ConfigurationError(f"no format specs for task {task.value}")
        pools[task] = load_description_pool(task, opts.pool_dir)

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

    def build(inst: IEInstance):
        """(record, labels its answer uses, its tokens, its CoT word limit),
        or None when it is over length."""
        task = inst.task
        rng = random.Random(derive_seed(opts.seed, "sft", inst.id))
        fmt = rng.choice(library[task])
        task_desc = rng.choice(pools[task])
        words = sample_words_limit(rng)

        view = None
        gold = inst.gold
        if task in CLOSED_IE_TASKS:
            view, gold = augment_schema(inst.schema, inst.gold, opts.guideline_rate, opts.symbol_rate, rng)
        example = attach_demonstrations(
            inst.id, fmt, view, serialize_answer(gold, fmt, seed=rng),
            demo_pools[task], opts.demo_rate, opts.demo_k_range, rng,
        )
        prompt = assemble_input(inst, view, task_desc, fmt, example.demonstrations)

        tokens = whitespace_token_count(prompt) + whitespace_token_count(example.answer)
        if tokens > opts.max_tokens:
            logger.info("dropping over-length example %s", inst.id)
            return None

        record = {
            "id": inst.id,
            "dataset": inst.dataset,
            "task": task.value,
            "prompt": prompt,
            "demonstrations": [list(d) for d in example.demonstrations],
            "output": example.answer,
            "answer": example.answer,
            "cot": None,
            "format": spec_to_json(fmt),
            "schema_view_labels": list(view.label_names()) if view else [],
            "has_guidelines": view.guidelines_included if view else False,
            "symbolized": bool(view and view.symbol_map),
            "trigger": inst.gold.trigger,
        }
        return record, gold.labels_used(), tokens, words

    def cot_of(built):
        record, _, _, words = built
        try:
            return generate_cot(record["prompt"], record["answer"], words, client)
        except (TransportError, DataError) as e:
            logger.warning("CoT generation skipped for %s: %s", record["id"], e)
            return None

    # The CoT subset first, keyed by input position: its records are built and
    # every explanation fetched before the stream below yields a record.
    cot_built = {pos: build(inst) for pos, inst in enumerate(instances) if inst.id in cot_ids}
    jobs = {pos: built for pos, built in cot_built.items() if built is not None}
    cots = {}  # input position -> explanation, or None when it was skipped
    if jobs:
        requests = client.map_prompts(
            cot_of, list(jobs.values()), lambda job: cot_prompt(job[0]["prompt"], job[0]["answer"], job[3])
        )
        cots = dict(zip(jobs, requests, strict=True))

    def build_block(b: int) -> tuple[str, Composition, int]:
        """The JSONL text of the records of block `b`, their Composition, and
        the number of its instances dropped for length."""
        positions = range(b * SFT_BLOCK, min((b + 1) * SFT_BLOCK, len(instances)))
        composition = Composition()
        records = []
        for pos in positions:
            built = cot_built.pop(pos) if pos in cot_built else build(instances[pos])
            if built is None:
                continue
            record, labels_used, tokens, _ = built
            cot = cots.get(pos)
            if cot is not None:  # attached before its record is counted
                record["cot"], record["output"] = cot, cot + COT_SEPARATOR + record["answer"]
                tokens += whitespace_token_count(cot)
            composition.add(record, labels_used, tokens)
            records.append(record)
        return "".join(map(jsonl_line, records)), composition, len(positions) - len(records)

    report: dict = {}

    def blocks() -> Iterator[str]:
        n_blocks = -(-len(instances) // SFT_BLOCK)
        composition = Composition()
        dropped_length = 0
        with closing(map_forked(build_block, n_blocks, sft_workers(n_blocks))) as built:
            for text, counts, dropped in built:
                composition.merge(counts)
                dropped_length += dropped
                yield text
        report.update(composition.report())
        report["dropped_length"] = dropped_length
        report["cot_skipped"] = len(cots) - report["cot_count"]
        report["input_instances"] = len(instances)

    return blocks(), report


def sft_workers(n_blocks: int) -> int:
    """The processes that build `n_blocks` blocks of SFT records: one per CPU
    this process may run on, but no more than there are blocks, and only
    this process where fork is not available or another thread is running
    (a forked worker would inherit any lock that thread holds, held)."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) or threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_blocks))


def map_forked(fn: Callable[[int], T], n: int, workers: int) -> Iterator[T]:
    """fn(0), ..., fn(n - 1), in order. With one worker they run here, in
    `map`. Otherwise `workers` forked processes run them, worker w taking w,
    w + workers, ..., and each sends its results as length-prefixed pickles
    down a pipe of its own, which it fills at most about one result ahead of
    the reader. An exception in fn(i) is raised here when result i is due.

    Fork only once what `fn` reads is fixed and no other thread is running:
    the workers see this process as it was at the fork. They end with
    `os._exit`, so no inherited buffer or `finally` of this process runs
    twice, and every worker is killed and reaped when the stream ends, fails
    or is closed."""
    if workers == 1:
        yield from map(fn, range(n))
        return
    pids: list[int] = []
    pipes: list[BinaryIO] = []
    try:
        for w in range(workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    os.close(read_fd)
                    for pipe in pipes:
                        pipe.close()
                    _send_results(fn, range(w, n, workers), write_fd)
                finally:
                    os._exit(0)
            pids.append(pid)
            os.close(write_fd)
            pipes.append(open(read_fd, "rb"))
        for i in range(n):
            ok, value = _receive_result(pipes[i % workers], i)
            if not ok:
                error, trace = value
                raise error from RuntimeError(f"raised in a worker process:\n{trace}")
            yield value
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _send_results(fn: Callable[[int], T], indices: Iterable[int], fd: int) -> None:
    """In a worker: send (True, fn(i)) for each of `indices`, or (False, (the
    exception fn(i) raised, its traceback)) and stop. A reader that is gone
    makes the next write raise BrokenPipeError."""
    import pickle  # only where workers run: the module adds about 0.5 MB to a process

    with open(fd, "wb") as out:
        for i in indices:
            try:
                frame = (True, fn(i))
            except Exception as e:
                frame = (False, (e, traceback.format_exc()))
            data = pickle.dumps(frame, pickle.HIGHEST_PROTOCOL)
            out.write(len(data).to_bytes(8, "little"))
            out.write(data)
            out.flush()
            if not frame[0]:
                return


def _receive_result(pipe: BinaryIO, i: int) -> tuple[bool, Any]:
    import pickle

    header = pipe.read(8)
    size = int.from_bytes(header, "little")
    data = pipe.read(size)
    if len(header) < 8 or len(data) < size:
        raise RuntimeError(f"a worker process ended before sending result {i}")
    return pickle.loads(data)


# ---------------------------------------------------------------------------
# DPO construction


def eval_format_for(task: TaskKind, library: Optional[dict] = None):
    """The held-out evaluation format of `task`, else its first packaged
    format (OnDemandIE, RE and EE)."""
    if task in EVAL_FORMATS:
        return EVAL_FORMATS[task]
    library = library or load_format_library()
    specs = library.get(task)
    if not specs:
        raise ConfigurationError(f"no format available for task {task.value}")
    return specs[0]


def dpo_prompt(inst: IEInstance, fmt, pool_dir: Optional[str], seed: int) -> str:
    """Prompt for preference sampling: full (unaugmented) schema, a seeded
    task description, the fixed evaluation format, no demonstrations."""
    return _dpo_prompt(inst, fmt, load_description_pool(inst.task, pool_dir), seed)


def _dpo_prompt(inst: IEInstance, fmt, pool: tuple[str, ...], seed: int) -> str:
    view = None
    if inst.task in CLOSED_IE_TASKS:
        view = SchemaView(inst.schema.labels)
    desc = derive_rng(seed, "dpo-desc", inst.id).choice(pool)
    return assemble_input(inst, view, desc, fmt)


def build_dpo(instances: Sequence[IEInstance], plan: DpoPlan, client: BaseClient) -> tuple[list[dict], dict]:
    """Score samples per instance, form pair candidates, and assemble the
    final corpus of `dpo.jsonl` records (`build_pairs`). Gold answers use
    the fixed evaluation format with an unshuffled item order so BLEU scores
    have a stable reference.

    Instances are sampled through `client.map_prompts` and paired in input
    order, so the corpus does not depend on the worker count. An instance
    whose sampling fails with a TransportError is skipped; any other error
    stops the instances not yet started and is raised."""
    library = load_format_library()
    pools = {}
    jobs = []
    for inst in instances:
        fmt = eval_format_for(inst.task, library)
        gold_text = serialize_answer(inst.gold, fmt, seed=None)
        if inst.task not in pools:
            pools[inst.task] = load_description_pool(inst.task, plan.pool_dir)
        jobs.append((inst, gold_text, _dpo_prompt(inst, fmt, pools[inst.task], plan.seed)))

    def sample(job):
        """The instance's scored samples, or None when it is skipped."""
        inst, gold_text, prompt = job
        try:
            return score_samples(prompt, gold_text, client, plan.samples_per_instance, plan.sample_temperature)
        except TransportError as e:
            logger.warning("skipping instance %s: %s", inst.id, e)
            return None

    candidates = []
    skipped = 0
    results = client.map_prompts(sample, jobs, lambda job: job[2])
    for (inst, gold_text, prompt), samples in zip(jobs, results, strict=True):
        if samples is None:
            skipped += 1
        else:
            candidates += build_pairs(inst.id, inst.dataset, prompt, gold_text, samples, plan.gap_threshold)
    corpus, summary = assemble_dpo_corpus(candidates, plan)
    summary["skipped_instances"] = skipped
    if not corpus:
        logger.warning("no qualifying pairs")
        summary["note"] = "no qualifying pairs"
    return corpus, summary


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


class Composition:
    """The composition report of SFT records, counted one record at a time:
    per-task/per-dataset counts, demo/guideline/CoT/symbol rates, a length
    histogram, and the audit that no closed-IE answer uses a label outside
    its prompt's schema section."""

    def __init__(self):
        self.per_task: dict[str, int] = {}
        self.per_dataset: dict[str, int] = {}
        self.demo_hist: dict[int, int] = {}
        self.length_hist: dict[int, int] = {}  # by the bucket's first token count
        self.n = self.n_with_demos = self.n_closed = self.n_guidelines = self.n_symbolized = self.n_cot = 0
        self.violating_ids: list[str] = []

    def add(self, rec: dict, labels_used: Sequence[str], tokens: int) -> None:
        """Count the SFT record `rec`, whose answer uses the schema labels
        `labels_used` and whose prompt and output hold `tokens` whitespace
        tokens."""
        self.n += 1
        self.per_task[rec["task"]] = self.per_task.get(rec["task"], 0) + 1
        if rec.get("dataset"):
            self.per_dataset[rec["dataset"]] = self.per_dataset.get(rec["dataset"], 0) + 1
        k = len(rec["demonstrations"])
        if k:
            self.n_with_demos += 1
            self.demo_hist[k] = self.demo_hist.get(k, 0) + 1
        if TaskKind(rec["task"]) in CLOSED_IE_TASKS:
            self.n_closed += 1
            self.n_guidelines += rec["has_guidelines"]
            self.n_symbolized += rec["symbolized"]
            if not set(labels_used) <= set(rec["schema_view_labels"]):
                self.violating_ids.append(rec["id"])
        if rec["cot"]:
            self.n_cot += 1
        bucket = (tokens // 256) * 256
        self.length_hist[bucket] = self.length_hist.get(bucket, 0) + 1

    def merge(self, other: Composition) -> None:
        """Count the records `other` counted, which follow the ones counted
        here in input order."""
        for mine, theirs in ((self.per_task, other.per_task), (self.per_dataset, other.per_dataset),
                             (self.demo_hist, other.demo_hist), (self.length_hist, other.length_hist)):
            for key, n in theirs.items():
                mine[key] = mine.get(key, 0) + n
        self.n += other.n
        self.n_with_demos += other.n_with_demos
        self.n_closed += other.n_closed
        self.n_guidelines += other.n_guidelines
        self.n_symbolized += other.n_symbolized
        self.n_cot += other.n_cot
        self.violating_ids += other.violating_ids

    def report(self) -> dict:
        n, n_closed = self.n, self.n_closed
        return {
            "total": n,
            "per_task": self.per_task,
            "per_dataset": self.per_dataset,
            "demo_rate": self.n_with_demos / n if n else 0.0,
            "demo_histogram": {str(k): v for k, v in sorted(self.demo_hist.items())},
            "guideline_rate": self.n_guidelines / n_closed if n_closed else 0.0,
            "symbol_rate": self.n_symbolized / n_closed if n_closed else 0.0,
            "cot_count": self.n_cot,
            "cot_rate": self.n_cot / n if n else 0.0,
            "length_histogram": {f"{b}-{b + 255}": v for b, v in sorted(self.length_hist.items())},
            "closure_violations": len(self.violating_ids),
            "closure_violating_ids": self.violating_ids[:20],
        }


def stats(records: Iterable[dict]) -> dict:
    """The `Composition` report of SFT records read back from a corpus: each
    closed-IE answer is parsed leniently under its record's format for the
    labels it uses, and each prompt and output is counted."""
    composition = Composition()
    for rec in records:
        labels_used = ()
        if TaskKind(rec["task"]) in CLOSED_IE_TASKS:
            spec = spec_from_json(rec["format"])
            labels_used = parse_answer_lenient(rec["answer"], spec, rec.get("trigger")).extraction.labels_used()
        tokens = whitespace_token_count(rec["prompt"]) + whitespace_token_count(rec["output"])
        composition.add(rec, labels_used, tokens)
    return composition.report()


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
    blocks, report = build_sft(instances, opts, client=client)
    write_jsonl_atomic(blocks, out_dir / "sft.jsonl")
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
    config: Optional[dict] = None,
) -> dict:
    out_dir = Path(out_dir)
    started = time.monotonic()
    corpus, summary = build_dpo(instances, plan, client)
    write_jsonl_atomic(map(jsonl_line, corpus), out_dir / "dpo.jsonl")
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
