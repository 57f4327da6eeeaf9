"""End-to-end pipeline stages: SFT corpus construction, DPO corpus
construction, corpus statistics, and evaluation.

Every per-instance random decision draws from a stream seeded by (master
seed, tag, instance id): one "sft" stream serves all of an SFT example's
choices, and CoT eligibility and DPO descriptions keep streams of their own.
So outputs are independent of processing order and worker count. Both
builds, `stats` and `evaluate` do their per-item CPU work through one block
runner, `map_blocks`: in blocks of consecutive items, on the CPUs this
process may run on (in workers forked first and fed each block's payload
through a pipe; in this process alone where fork is not available).
`build_sft` builds its CoT subset's records first and then the rest in
blocks, whose text is written to `sft.jsonl` in input order, so the writing
process holds one block of it, never the corpus.
`build_dpo` draws each block's samples through the client as the block
runner takes them, so the workers score one block with BLEU while the next
is drawn, and pairs each block's samples as its scores come back, in input
order. `stats` merges its blocks' counts, and `evaluate` sums its blocks'
per-instance rows, in input order. Output files are JSON lines written
atomically, so a failure mid-write keeps the previous file; every run emits
a manifest with content digests so reruns can be verified byte-for-byte.
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
from collections import Counter, deque
from contextlib import closing
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Optional, Sequence, TypeVar

from .answers import parse_answer, parse_answer_lenient, serialize_answer, ParseError
from .augment import cot_prompt, generate_cot, sample_words_limit
from .client import BaseClient, TransportError
from .errors import ConfigurationError, DataError
from .formats import EVAL_FORMATS, check_format, load_format_library, spec_from_json, spec_to_json
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
from .prefpairs import DpoPlan, assemble_dpo_corpus, build_pairs, draw_samples, score_samples
from .prompts import SchemaView, assemble_input, attach_demonstrations, augment_schema, load_description_pool
from .seeds import derive_rng, derive_seed

P = TypeVar("P")
T = TypeVar("T")

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# SFT construction

COT_SEPARATOR = "\n\n"  # between a CoT explanation and the answer, in a record's output

# `map_blocks` runs its work in blocks of this many consecutive items, one
# block per process at a time: at sft_5k's sizes a block of SFT text is
# about 0.35 MB, and it is all of the corpus the writing process holds.
BLOCK = 128

DEMO_POOL_SIZE = 64  # per-task candidates demonstrations draw from


@dataclass(frozen=True)
class SftOptions:
    seed: int = 0
    demo_rate: float = 0.5
    demo_k_range: tuple[int, int] = (1, 8)
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
        for name, low in (("cot_per_task", 0), ("max_tokens", 1)):
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
    the records of each block of consecutive instances (`map_blocks`) in
    input order, and `report` is filled once it is exhausted with the
    records' `Composition` report, the length drops, CoT skipped and input
    count.

    Stages per instance: format choice, task description, schema augmentation,
    answer serialization, demonstrations, prompt layout, length re-check, and
    CoT for the capped eligible subset (none without a client). Before this
    returns, each task's formats and descriptions are looked up and the CoT
    subset's records are built and sent through `client.map_prompts`, so a
    CoT error comes before the first block. The blocks are built once
    `blocks` is read, by `map_blocks`' workers, each at most about one block
    ahead of the reader, which holds one block of text.
    An error in a record is raised when its block is due, so it is the first
    one in input order. The closure audit reads the projected gold the answer
    was serialized from, which parses back to itself; the report counts the
    length check's tokens plus the CoT's.

    Each instance draws every choice from one stream seeded by its id, so
    building the CoT subset first, and the blocks in any process, changes no
    byte. Draws whose consumption no option changes come first (format,
    description, CoT word limit), then the schema view and the answer order,
    and the demonstrations last. So a change to `guideline_rate` or
    `symbol_rate` changes only what guidelines and symbols govern, and a
    change to `demo_rate` or `demo_k_range` only the demonstrations.
    """
    library = load_format_library()
    pools = {task: load_description_pool(task, opts.pool_dir) for task in dict.fromkeys(i.task for i in instances)}

    # small per-task demonstration pools keep demo sampling O(1) per instance
    by_task: dict[TaskKind, list[IEInstance]] = {}
    for inst in instances:
        by_task.setdefault(inst.task, []).append(inst)
    demo_pools: dict[TaskKind, list[IEInstance]] = {}
    for task, group in by_task.items():
        group_sorted = sorted(group, key=lambda i: i.id)
        k = min(DEMO_POOL_SIZE, len(group_sorted))
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

    def build_block(positions: range) -> tuple[str, Composition]:
        """The JSONL text of the records of the instances at `positions`, but
        the ones dropped for length, and their Composition."""
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
        return "".join(map(jsonl_line, records)), composition

    report: dict = {}

    def blocks() -> Iterator[str]:
        composition = Composition()
        with closing(map_blocks(build_block, len(instances), block_ranges(len(instances)))) as built:
            for text, counts in built:
                composition.merge(counts)
                yield text
        report.update(composition.report())
        report["dropped_length"] = len(instances) - report["total"]
        report["cot_skipped"] = len(cots) - report["cot_count"]
        report["input_instances"] = len(instances)

    return blocks(), report


def block_workers(n_blocks: int) -> int:
    """The processes that run `n_blocks` blocks of `map_blocks`: one per CPU
    this process may run on, but no more than there are blocks, and only this
    process where fork is not available or another thread is running (a
    forked worker would inherit any lock that thread holds, held)."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) or threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_blocks))


def block_ranges(n: int) -> list[range]:
    """The blocks of BLOCK consecutive positions of range(n)."""
    return [range(start, min(start + BLOCK, n)) for start in range(0, n, BLOCK)]


def map_blocks(fn: Callable[[P], T], n: int, payloads: Iterable[P]) -> Iterator[T]:
    """fn(payload) for each of `payloads`, in order: one per block of BLOCK
    consecutive positions of range(n), such as its range (`block_ranges`).
    With one worker (`block_workers`) they run here, as map(fn, payloads).
    Otherwise the workers are forked first; then each payload is taken here,
    in order, and payload b is sent as a pickle down the input pipe of
    worker b % workers once its result b - workers has come back, so a
    payload is only ever written to an idle worker and no payload or result
    is too large to pass. Each worker sends its results down an output pipe
    of its own. An exception in fn(payload), or in pickling its result, is
    raised here when that result is due, with the worker's traceback as its
    cause; one that does not come back from pickling with its type and
    message comes as a RuntimeError that names them. An exception in taking
    a payload is raised after the results before it, as at one worker. A
    worker that ends before taking its payload or sending its result is a
    RuntimeError.

    Fork only once what `fn` reads is fixed and no other thread is running:
    the workers see this process as it was at the fork. `payloads` is read
    only after it, so a thread it starts never meets a fork. Workers end
    with `os._exit`, so no inherited buffer or `finally` of this process
    runs twice. When the stream ends, fails or is closed, every worker is
    killed and reaped and `payloads` is closed."""
    pids: list[int] = []
    inputs: list[BinaryIO] = []  # worker w reads its payloads from inputs[w]
    outputs: list[BinaryIO] = []  # and writes its results to outputs[w]
    try:
        workers = block_workers(-(-n // BLOCK))
        if workers == 1:
            yield from map(fn, payloads)
            return
        import pickle  # only where workers run: the module adds about 0.5 MB to a process

        for w in range(workers):
            payload_read, payload_write = os.pipe()
            result_read, result_write = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    os.close(payload_write)
                    os.close(result_read)
                    for pipe in inputs + outputs:
                        pipe.close()
                    # a reader that is gone makes a write raise
                    with open(payload_read, "rb") as inp, open(result_write, "wb") as out:
                        _serve(fn, inp, out)
                finally:
                    os._exit(0)
            pids.append(pid)
            os.close(payload_read)
            os.close(result_write)
            inputs.append(open(payload_write, "wb"))
            outputs.append(open(result_read, "rb"))

        def receive(b: int):
            try:
                ok, value = pickle.load(outputs[b % workers])
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError(f"a worker process ended before sending result {b}") from None
            if not ok:
                error, trace = value
                raise error from RuntimeError(f"raised in a worker process:\n{trace}")
            return value

        taking = iter(payloads)
        sent = 0
        while True:
            try:
                payload = next(taking)
            except StopIteration:
                break
            except Exception:  # raised after the results before it, as by map()
                yield from map(receive, range(max(0, sent - workers), sent))
                raise
            frame = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
            result = receive(sent - workers) if sent >= workers else None
            try:
                inputs[sent % workers].write(frame)
                inputs[sent % workers].flush()
            except BrokenPipeError:
                raise RuntimeError(f"a worker process ended before sending result {sent}") from None
            sent += 1
            if sent > workers:
                yield result
        yield from map(receive, range(max(0, sent - workers), sent))
    finally:
        for pipe in inputs + outputs:
            try:
                pipe.close()
            except BrokenPipeError:  # the unwritten rest of a payload to a worker that is gone
                pass
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if hasattr(payloads, "close"):
            payloads.close()


def _serve(fn: Callable, inp: BinaryIO, out: BinaryIO) -> None:
    """A block worker's loop: fn(payload) for each payload read from `inp`,
    each result, or the first exception, written to `out`."""
    import pickle

    while True:
        try:
            payload = pickle.load(inp)
        except EOFError:
            return
        try:
            frame = pickle.dumps((True, fn(payload)), pickle.HIGHEST_PROTOCOL)
        except Exception as e:
            error = (_picklable(e), traceback.format_exc())
            out.write(pickle.dumps((False, error), pickle.HIGHEST_PROTOCOL))
            return
        out.write(frame)
        out.flush()


def _picklable(error: Exception) -> Exception:
    """`error` when it comes back from pickling with its type and message,
    else a RuntimeError that names them."""
    import pickle

    try:
        back = pickle.loads(pickle.dumps(error, pickle.HIGHEST_PROTOCOL))
        if type(back) is type(error) and str(back) == str(error):
            return error
    except Exception:  # whatever pickling or the type's own __init__ raises
        pass
    return RuntimeError(f"{type(error).__qualname__} in a worker process: {error}")


# ---------------------------------------------------------------------------
# DPO construction


def eval_format_for(task: TaskKind, library: Optional[dict] = None):
    """The held-out evaluation format of `task`, else its first packaged
    format (OnDemandIE, RE and EE)."""
    if task in EVAL_FORMATS:
        return EVAL_FORMATS[task]
    return (library or load_format_library())[task][0]


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
    """Draw and score samples per instance, form pair candidates, and
    assemble the final corpus of `dpo.jsonl` records (`build_pairs`). Gold
    answers use the fixed evaluation format with an unshuffled item order so
    BLEU scores have a stable reference.

    The instances are sampled through `client.map_prompts`, one block of
    consecutive instances at a time, as `map_blocks` takes each block's
    samples to send to a worker to score: so one block is scored while the
    next is drawn. The workers are forked before the client's first call,
    so its pool of threads starts only after the fork. An instance whose
    sampling fails with a TransportError is skipped; any other error stops
    the instances not yet started and is raised after the blocks before it.
    The workers send back only the scores, and a scoring error is raised
    when its block is due. Pairs are formed here as each block's scores come
    back, in input order, so the corpus depends on neither the client's nor
    the scoring's worker count."""
    library = load_format_library()
    pools = {task: load_description_pool(task, plan.pool_dir) for task in dict.fromkeys(i.task for i in instances)}
    jobs = []
    for inst in instances:
        fmt = eval_format_for(inst.task, library)
        gold_text = serialize_answer(inst.gold, fmt, seed=None)
        jobs.append((inst, gold_text, _dpo_prompt(inst, fmt, pools[inst.task], plan.seed)))

    def draw(job):
        """The instance's samples, or None when it is skipped."""
        inst, gold_text, prompt = job
        try:
            return draw_samples(prompt, gold_text, client, plan.samples_per_instance, plan.sample_temperature)
        except TransportError as e:
            logger.warning("skipping instance %s: %s", inst.id, e)
            return None

    drawn: deque[tuple[int, list]] = deque()  # each block taken to be scored, until its scores come

    def sample_blocks() -> Iterator[tuple[int, list]]:
        """Each block: its first position and its instances' samples."""
        with closing(client.map_prompts(draw, jobs, lambda job: job[2])) as samples:
            for start in range(0, len(jobs), BLOCK):
                drawn.append((start, list(islice(samples, BLOCK))))
                yield drawn[-1]

    def score_block(block: tuple[int, list]) -> list[Optional[tuple[float, ...]]]:
        """The scores of each instance's samples, None for a skipped one."""
        start, samples = block
        return [None if texts is None else score_samples(jobs[pos][1], texts)
                for pos, texts in enumerate(samples, start)]

    candidates = []
    skipped = 0
    with closing(map_blocks(score_block, len(jobs), sample_blocks())) as blocks:
        for scores in blocks:
            start, samples = drawn.popleft()
            for (inst, gold_text, prompt), texts, sample_scores in zip(jobs[start:start + BLOCK], samples, scores):
                if texts is None:
                    skipped += 1
                    continue
                candidates += build_pairs(
                    inst.id, inst.dataset, prompt, gold_text, tuple(zip(texts, sample_scores)), plan.gap_threshold
                )
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
    reads, with string values, that `check_format` passes. Otherwise a
    KeyError, TypeError or ValueError."""
    for name, kind in SFT_RECORD_TYPES.items():
        if not isinstance(rec[name], kind):
            raise TypeError(f"SFT record {name} is {type(rec[name]).__name__}")
    if not all(isinstance(v, str) for v in [*rec["schema_view_labels"], *rec["format"].values()]):
        raise TypeError("SFT record labels and format values must be strings")
    TaskKind(rec["task"])
    check_format(spec_from_json(rec["format"]))
    return rec


class Composition:
    """The composition report of SFT records, counted one record at a time:
    per-task/per-dataset counts, demo/guideline/CoT/symbol rates, a length
    histogram, and the audit that no closed-IE answer uses a label outside
    its prompt's schema section. Each tally is a Counter but the violating
    ids, a list, so the Compositions of consecutive blocks of records merge
    in input order by adding their Counters and extending the list."""

    def __init__(self):
        self.counts = Counter()  # n, with_demos, closed, guidelines, symbolized, cot
        self.per_task = Counter()
        self.per_dataset = Counter()
        self.demo_hist = Counter()
        self.length_hist = Counter()  # by the bucket's first token count
        self.violating_ids: list[str] = []

    def add(self, rec: dict, labels_used: Sequence[str], tokens: int) -> None:
        """Count the SFT record `rec`, whose answer uses the schema labels
        `labels_used` and whose prompt and output hold `tokens` whitespace
        tokens."""
        self.counts["n"] += 1
        self.per_task[rec["task"]] += 1
        if rec.get("dataset"):
            self.per_dataset[rec["dataset"]] += 1
        k = len(rec["demonstrations"])
        if k:
            self.counts["with_demos"] += 1
            self.demo_hist[k] += 1
        if TaskKind(rec["task"]) in CLOSED_IE_TASKS:
            self.counts["closed"] += 1
            self.counts["guidelines"] += rec["has_guidelines"]
            self.counts["symbolized"] += rec["symbolized"]
            if not set(labels_used) <= set(rec["schema_view_labels"]):
                self.violating_ids.append(rec["id"])
        if rec["cot"]:
            self.counts["cot"] += 1
        self.length_hist[(tokens // 256) * 256] += 1

    def merge(self, other: Composition) -> None:
        """Count the records `other` counted, which follow the ones counted
        here in input order."""
        for name, tally in vars(self).items():
            tally += vars(other)[name]  # in place: a Counter adds, the list extends

    def report(self) -> dict:
        counts = self.counts
        n, n_closed = counts["n"], counts["closed"]
        return {
            "total": n,
            "per_task": dict(self.per_task),
            "per_dataset": dict(self.per_dataset),
            "demo_rate": counts["with_demos"] / n if n else 0.0,
            "demo_histogram": {str(k): v for k, v in sorted(self.demo_hist.items())},
            "guideline_rate": counts["guidelines"] / n_closed if n_closed else 0.0,
            "symbol_rate": counts["symbolized"] / n_closed if n_closed else 0.0,
            "cot_count": counts["cot"],
            "cot_rate": counts["cot"] / n if n else 0.0,
            "length_histogram": {f"{b}-{b + 255}": v for b, v in sorted(self.length_hist.items())},
            "closure_violations": len(self.violating_ids),
            "closure_violating_ids": self.violating_ids[:20],
        }


def stats(records: Sequence[dict]) -> dict:
    """The `Composition` report of SFT records read back from a corpus: each
    closed-IE answer is parsed leniently under its record's format for the
    labels it uses, and each prompt and output is counted. The records are
    counted in blocks of consecutive records on the block runner
    (`map_blocks`), and the blocks' counts are merged in input order, so
    the report does not depend on the worker count."""

    def count_block(positions: range) -> Composition:
        composition = Composition()
        for pos in positions:
            rec = records[pos]
            labels_used = ()
            if TaskKind(rec["task"]) in CLOSED_IE_TASKS:
                spec = spec_from_json(rec["format"])
                labels_used = parse_answer_lenient(rec["answer"], spec, rec.get("trigger")).extraction.labels_used()
            tokens = whitespace_token_count(rec["prompt"]) + whitespace_token_count(rec["output"])
            composition.add(rec, labels_used, tokens)
        return composition

    composition = Composition()
    with closing(map_blocks(count_block, len(records), block_ranges(len(records)))) as blocks:
        for counts in blocks:
            composition.merge(counts)
    return composition.report()


# ---------------------------------------------------------------------------
# Evaluation


def evaluate(predictions: dict[str, str], gold_instances: Sequence[IEInstance]) -> dict:
    """Score predicted answer texts against gold instances with exact-match
    micro F1 under each task's fixed evaluation grammar (`eval_format_for`).
    Unparseable or missing predictions score zero extractions and are counted;
    predictions whose id no gold instance has are logged as a count.

    The instances are scored in blocks of consecutive instances on the block
    runner (`map_blocks`), which send back only their `per_instance` rows; the
    totals are summed here from the rows in input order, so the report does
    not depend on the worker count."""
    library = load_format_library()

    def score_block(positions: range) -> list[dict]:
        rows = []
        for pos in positions:
            inst = gold_instances[pos]
            spec = eval_format_for(inst.task, library)
            text = predictions.get(inst.id)
            notes: list[str] = []
            if text is None:
                pred = Extraction(inst.task, trigger=inst.gold.trigger)
                notes.append("missing prediction")
            else:
                try:
                    pred = parse_answer(text, spec, trigger=inst.gold.trigger)
                except ParseError as e:
                    pred = Extraction(inst.task, trigger=inst.gold.trigger)
                    notes.append(str(e))
            prf = exact_match_f1(pred, inst.gold)
            rows.append({"id": inst.id, "tp": prf.tp, "fp": prf.fp, "fn": prf.fn, "notes": notes})
        return rows

    with closing(map_blocks(score_block, len(gold_instances), block_ranges(len(gold_instances)))) as blocks:
        rows = [row for block in blocks for row in block]
    unknown = len(predictions.keys() - {inst.id for inst in gold_instances})
    if unknown:
        logger.warning("%d prediction ids match no gold instance and are not scored", unknown)
    total = micro_prf(PRF(row["tp"], row["fp"], row["fn"]) for row in rows)
    return {
        "n": len(gold_instances),
        "parse_failures": sum(1 for row in rows if row["notes"]),
        "tp": total.tp,
        "fp": total.fp,
        "fn": total.fn,
        "precision": total.precision,
        "recall": total.recall,
        "f1": total.f1,
        "per_instance": rows,
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
    started = time.monotonic()
    blocks, report = build_sft(instances, opts, client=client)
    return _write_build(out_dir, "sft.jsonl", blocks, report, config or {"seed": opts.seed}, started)


def run_build_dpo(
    instances: Sequence[IEInstance],
    plan: DpoPlan,
    client: BaseClient,
    out_dir,
    config: Optional[dict] = None,
) -> dict:
    started = time.monotonic()
    corpus, summary = build_dpo(instances, plan, client)
    return _write_build(out_dir, "dpo.jsonl", map(jsonl_line, corpus), summary, config or {"seed": plan.seed}, started)


def _write_build(out_dir, name: str, lines: Iterable[str], counts: dict, config: dict, started: float) -> dict:
    """Write a build's JSONL text `lines` to `out_dir/name`, then its manifest,
    whose counts are `counts` as they stand once `lines` is exhausted."""
    out = Path(out_dir) / name
    write_jsonl_atomic(lines, out)
    return write_manifest(Path(out_dir) / "manifest.json", config, counts, {name: out}, started)


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
