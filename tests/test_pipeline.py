"""Pipeline tests: SFT assembly rates, CoT capping, preference corpus
construction, composition stats with the label-closure audit, evaluation,
and manifest/atomic-output behavior."""

import functools
import json
import os
import random
import signal
import threading
import time
from collections import Counter
from dataclasses import replace

import pytest
import requests
from conftest import assert_kept, fail_on_second, sft_records
from hypothesis import given, settings
from hypothesis import strategies as st

from iealign import pipeline
from iealign.answers import ParseError, parse_answer_lenient, serialize_answer
from iealign.client import BaseClient, LiveClient, MockClient, ResponseCache, TransportError
from iealign.errors import ConfigurationError, DataError
from iealign.formats import EVAL_FORMATS, load_format_library, spec_from_json, spec_to_json
from iealign.ingest import whitespace_token_count
from iealign.model import CLOSED_IE_TASKS, Extraction, TaskKind, jsonl_line, write_instances
from iealign.pipeline import (
    Composition,
    SftOptions,
    build_dpo,
    build_sft,
    check_sft_record,
    cot_eligible,
    dpo_prompt,
    eval_format_for,
    evaluate,
    evaluate_files,
    file_digest,
    load_predictions,
    run_build_dpo,
    run_build_sft,
    select_cot_ids,
    stats,
    write_jsonl_atomic,
    write_manifest,
)
from iealign.prefpairs import DpoPlan
from iealign.synth import make_corpus, make_extraction, make_instance, make_schema


def _mixed_corpus(n_per_task=120, seed=0, tasks=(TaskKind.NER, TaskKind.RE, TaskKind.ED)):
    corpus = []
    for t in tasks:
        corpus.extend(make_corpus(t, n_per_task, dataset=f"ds-{t.value}", seed=seed))
    return corpus


def _build_sft(corpus, opts, client=None):
    """`build_sft`'s records, parsed from its stream of blocks, and its report."""
    blocks, report = build_sft(corpus, opts, client=client)
    return sft_records(blocks), report


# ---------------------------------------------------------------------------
# SFT assembly


def test_build_sft_one_record_per_instance_and_rates():
    corpus = _mixed_corpus(400)
    records, report = _build_sft(corpus, SftOptions(seed=7, max_tokens=100_000))
    assert len(records) == len(corpus)
    assert report["dropped_length"] == 0
    assert 0.45 < report["demo_rate"] < 0.55
    assert 0.15 < report["guideline_rate"] < 0.25
    assert 0.05 < report["symbol_rate"] < 0.15
    assert report["closure_violations"] == 0
    ks = {int(k) for k in report["demo_histogram"]}
    assert ks == set(range(1, 9))


def test_build_sft_deterministic():
    corpus = _mixed_corpus(50)
    r1, _ = _build_sft(corpus, SftOptions(seed=3, max_tokens=100_000))
    r2, _ = _build_sft(corpus, SftOptions(seed=3, max_tokens=100_000))
    assert r1 == r2
    r3, _ = _build_sft(corpus, SftOptions(seed=4, max_tokens=100_000))
    assert r1 != r3


# Every task, so each record's draws cover the format, description, schema
# view, answer order and demonstrations.
_STREAM_TASKS = tuple(TaskKind)


def _description(rec: dict) -> str:
    """The task description: the first section of the prompt."""
    return rec["prompt"].split("\n\n", 1)[0]


def test_sft_guideline_and_symbol_rates_change_only_what_they_govern():
    """The guideline and symbol draws take the same part of an instance's
    stream at any rate, so raising the rates flips only those two flags, and
    a record whose flags did not flip is unchanged."""
    corpus = _mixed_corpus(30, seed=2, tasks=_STREAM_TASKS)
    base = SftOptions(seed=5, max_tokens=100_000)
    before, _ = _build_sft(corpus, base)
    after, _ = _build_sft(corpus, replace(base, guideline_rate=0.9, symbol_rate=0.7))
    flipped = 0
    for a, b in zip(before, after, strict=True):
        assert (a["id"], a["format"], _description(a)) == (b["id"], b["format"], _description(b))
        assert [text for text, _ in a["demonstrations"]] == [text for text, _ in b["demonstrations"]]
        assert len(a["schema_view_labels"]) == len(b["schema_view_labels"])
        if a["symbolized"] == b["symbolized"]:
            assert (a["schema_view_labels"], a["answer"], a["demonstrations"]) == \
                (b["schema_view_labels"], b["answer"], b["demonstrations"])
        if (a["has_guidelines"], a["symbolized"]) == (b["has_guidelines"], b["symbolized"]):
            assert a == b
        else:
            flipped += 1
    assert flipped > len(before) // 4


def test_sft_demo_rate_and_k_range_change_only_the_demonstrations():
    """Demonstrations draw last from an instance's stream, so changing how
    many there are leaves every record's format, description, schema view
    and answer as they were."""
    corpus = _mixed_corpus(30, seed=2, tasks=_STREAM_TASKS)
    base = SftOptions(seed=5, max_tokens=100_000)
    before, _ = _build_sft(corpus, base)
    after, _ = _build_sft(corpus, replace(base, demo_rate=0.9, demo_k_range=(2, 3)))
    changed = 0
    for a, b in zip(before, after, strict=True):
        for field in ("id", "format", "schema_view_labels", "has_guidelines", "symbolized", "answer", "output"):
            assert a[field] == b[field], field
        assert _description(a) == _description(b)
        if a["demonstrations"] == b["demonstrations"]:
            assert a == b
        else:
            changed += 1
    assert changed > len(before) // 4


def test_build_sft_drops_overlength():
    corpus = make_corpus(TaskKind.NER, 30, seed=1)
    records, report = _build_sft(corpus, SftOptions(seed=0, max_tokens=40))
    assert report["dropped_length"] == len(corpus) - len(records)
    assert report["dropped_length"] > 0


def test_cot_count_is_min_of_cap_and_eligible():
    corpus = make_corpus(TaskKind.NER, 300, dataset="d", seed=2)
    client = MockClient(policy="fixed:Because the text names each entity explicitly.")
    opts = SftOptions(seed=5, cot_rate=0.1, cot_per_task=10, max_tokens=100_000)
    records, report = _build_sft(corpus, opts, client=client)
    eligible = [i.id for i in corpus if cot_eligible(i.id, i.is_na, opts)]
    assert report["cot_count"] == min(10, len(eligible))
    assert report["cot_count"] == 10

    opts_hi = SftOptions(seed=5, cot_rate=0.1, cot_per_task=1000, max_tokens=100_000)
    _, report_hi = _build_sft(corpus, opts_hi, client=client)
    eligible_hi = [i.id for i in corpus if cot_eligible(i.id, i.is_na, opts_hi)]
    assert report_hi["cot_count"] == len(eligible_hi)


def test_cot_skipped_without_client():
    corpus = make_corpus(TaskKind.NER, 50, seed=2)
    _, report = _build_sft(corpus, SftOptions(seed=5, max_tokens=100_000))
    assert report["cot_count"] == 0


def test_cot_na_instances_never_eligible():
    opts = SftOptions(cot_rate=1.0)
    assert not cot_eligible("x", True, opts)
    assert cot_eligible("x", False, opts)


def test_select_cot_ids_caps_per_task():
    eligible = {TaskKind.NER: [f"n{i}" for i in range(50)], TaskKind.RE: ["r1", "r2"]}
    chosen = select_cot_ids(eligible, SftOptions(seed=0, cot_per_task=10))
    assert len([c for c in chosen if c.startswith("n")]) == 10
    assert {"r1", "r2"} <= chosen


def test_sft_cot_record_output_is_explanation_then_answer():
    corpus = make_corpus(TaskKind.NER, 60, seed=2)
    opts = SftOptions(seed=5, cot_rate=1.0, max_tokens=100_000)
    records, report = _build_sft(corpus, opts, client=MockClient(policy="fixed:  Step one. Step two.\n"))
    assert report["cot_count"] > 0
    for rec in records:
        if rec["cot"] is None:
            assert rec["output"] == rec["answer"]
        else:
            assert rec["cot"] == "Step one. Step two."
            assert rec["output"] == "Step one. Step two.\n\n" + rec["answer"]
    # an empty explanation is skipped, and its record keeps the bare answer
    records, report = _build_sft(corpus, opts, client=MockClient(policy="fixed:  "))
    assert report["cot_count"] == 0
    assert all(rec["cot"] is None and rec["output"] == rec["answer"] for rec in records)


def test_mock_without_reference_gives_no_cot():
    """A mock that echoes a reference has none for a CoT request: each one is
    skipped, and no record carries an explanation."""
    corpus = make_corpus(TaskKind.NER, 60, seed=2)
    opts = SftOptions(seed=5, cot_rate=1.0, max_tokens=100_000)
    records, report = _build_sft(corpus, opts, client=MockClient(policy="echo_gold"))
    subset = [i.id for i in corpus if cot_eligible(i.id, i.is_na, opts)]
    assert subset
    assert report["cot_count"] == 0
    assert report["cot_skipped"] == len(subset)
    assert all(rec["cot"] is None and rec["output"] == rec["answer"] for rec in records)


def _log_builds(monkeypatch, path):
    """Append the id of each instance whose prompt is assembled to `path`,
    from this process and from any block worker forked after this."""
    real_assemble = pipeline.assemble_input

    def logging_assemble(inst, *args):
        with open(path, "a", encoding="utf-8") as log:
            log.write(f"{inst.id}\n")
        return real_assemble(inst, *args)

    monkeypatch.setattr(pipeline, "assemble_input", logging_assemble)
    return lambda: path.read_text(encoding="utf-8").split()


def _force_workers(monkeypatch, workers):
    monkeypatch.setattr(pipeline, "block_workers", lambda n_blocks: min(workers, n_blocks))


def _assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_build_sft_builds_a_record_only_when_it_is_taken(tmp_path, monkeypatch):
    """Until the first block is taken, only the CoT subset has been built.
    When it is taken, at one worker exactly the first block has been built
    besides, and at two at most the workers' first blocks and the block
    worker 0 takes next; every instance is built once in all. Each block's
    text is larger than a 64 KiB pipe buffer, so a worker cannot run further
    ahead of the reader."""
    corpus = _mixed_corpus(100, seed=1, tasks=(TaskKind.NER, TaskKind.RE, TaskKind.ED, TaskKind.EE))
    opts = SftOptions(seed=0, cot_rate=0.2, max_tokens=100_000)
    for workers in (1, 2):
        built = _log_builds(monkeypatch, tmp_path / f"built{workers}")
        _force_workers(monkeypatch, workers)
        blocks, report = build_sft(corpus, opts, client=MockClient(policy="fixed:Because the text says so."))
        cot_ids = built()
        first = next(blocks)
        at_first = built()[len(cot_ids):]
        rest = list(blocks)
        records = sft_records([first, *rest])
        assert [r["id"] for r in records if r["cot"]] == cot_ids and 0 < len(cot_ids) < pipeline.BLOCK
        assert len(rest) == 3 and min(map(len, [first, *rest[:-1]])) > 1 << 16
        block_ids = [{i.id for i in corpus[b * pipeline.BLOCK:(b + 1) * pipeline.BLOCK]} - set(cot_ids)
                     for b in range(4)]
        if workers == 1:
            assert at_first == [i.id for i in corpus[:pipeline.BLOCK] if i.id not in cot_ids]
        else:
            assert block_ids[0] <= set(at_first) <= block_ids[0] | block_ids[1] | block_ids[2]
        assert sorted(built()) == sorted(i.id for i in corpus)
        assert report["total"] == len(corpus) and report["cot_count"] == len(cot_ids)


def test_sft_block_workers_write_the_same_bytes_and_counts(tmp_path, monkeypatch):
    """sft.jsonl and the manifest counts are the same at 1, 2 and 3 block
    workers, over several blocks with CoT, length drops, demonstrations and
    closure violations in more than one block, whose ids keep input order."""
    corpus = _mixed_corpus(150, seed=2)
    random.Random(0).shuffle(corpus)
    targets = [inst for inst in corpus if inst.task is TaskKind.NER][::12]
    real_augment = pipeline.augment_schema

    def leaky_augment(schema, gold, *args):
        view, restricted = real_augment(schema, gold, *args)
        if any(gold is t.gold for t in targets):
            leak = ("leaked mention", "label_not_in_any_view")
            restricted = Extraction(restricted.task, restricted.items + (leak,), restricted.trigger)
        return view, restricted

    monkeypatch.setattr(pipeline, "augment_schema", leaky_augment)
    opts = SftOptions(seed=6, cot_rate=0.3, max_tokens=400)
    client = MockClient(policy="fixed:Because the text says so.")
    runs = []
    for workers in (1, 2, 3):
        _force_workers(monkeypatch, workers)
        manifest = run_build_sft(corpus, opts, tmp_path / f"w{workers}", client=client)
        runs.append(((tmp_path / f"w{workers}" / "sft.jsonl").read_bytes(), manifest["counts"]))
        _assert_no_child_process()
    assert runs[0] == runs[1] == runs[2]
    counts = runs[0][1]
    assert len(corpus) > 3 * pipeline.BLOCK
    assert counts["dropped_length"] > 0 and counts["cot_count"] > 0 and counts["demo_rate"] > 0
    written = {rec["id"] for rec in sft_records([runs[0][0].decode("utf-8")])}
    positions = [corpus.index(t) for t in targets if t.id in written]
    assert counts["closure_violating_ids"] == [corpus[pos].id for pos in positions]
    assert len({pos // pipeline.BLOCK for pos in positions}) > 1


def test_sft_block_workers_raise_a_block_error_as_one_process_does(tmp_path, monkeypatch):
    """A record that raises in a middle block fails the build with the same
    exception and message at any worker count, keeps the previous outputs,
    and leaves no child process."""
    corpus = _mixed_corpus(150, seed=2)
    out = tmp_path / "run"
    run_build_sft(corpus, SftOptions(seed=0, max_tokens=100_000), out)
    previous = {name: (out / name).read_bytes() for name in ("sft.jsonl", "manifest.json")}
    bad = corpus[2 * pipeline.BLOCK + 5]
    real_assemble = pipeline.assemble_input

    def failing_assemble(inst, *args):
        if inst is bad:
            raise DataError(f"cannot assemble {inst.id}", field="text")
        return real_assemble(inst, *args)

    monkeypatch.setattr(pipeline, "assemble_input", failing_assemble)
    errors = []
    for workers in (1, 2, 3):
        _force_workers(monkeypatch, workers)
        with pytest.raises(DataError) as caught:
            run_build_sft(corpus, SftOptions(seed=0, max_tokens=100_000), out)
        errors.append((type(caught.value), str(caught.value), caught.value.field))
        if workers > 1:  # the worker's traceback comes along as the cause
            assert "in failing_assemble" in str(caught.value.__cause__)
        for name, data in previous.items():
            assert_kept(out / name, data)
        _assert_no_child_process()
    assert errors == [(DataError, f"cannot assemble {bad.id} | field 'text'", "text")] * 3


def test_sft_block_workers_that_die_fail_the_build(tmp_path, monkeypatch):
    """A worker that ends without sending its block, here in the middle of
    it, fails the build, writes no corpus and is reaped."""
    corpus = _mixed_corpus(150, seed=2)
    bad = corpus[2 * pipeline.BLOCK + 5]
    real_assemble = pipeline.assemble_input

    def dying_assemble(inst, *args):
        if inst is bad:
            os._exit(3)
        return real_assemble(inst, *args)

    monkeypatch.setattr(pipeline, "assemble_input", dying_assemble)
    _force_workers(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="a worker process ended before sending result 2"):
        run_build_sft(corpus, SftOptions(seed=0, max_tokens=100_000), tmp_path / "run")
    assert not (tmp_path / "run" / "sft.jsonl").exists()
    _assert_no_child_process()


def test_sft_block_workers_are_reaped_when_the_stream_is_closed(monkeypatch):
    """Closing the stream after its first block kills and reaps every worker."""
    _force_workers(monkeypatch, 2)
    blocks, _ = build_sft(_mixed_corpus(150, seed=2), SftOptions(seed=0, max_tokens=100_000))
    next(blocks)
    assert os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None  # running, not reaped
    blocks.close()
    _assert_no_child_process()


def test_map_blocks_sends_an_error_that_does_not_unpickle_as_a_runtime_error(monkeypatch):
    """A ParseError does not come back from pickling (its __init__ takes an
    offset the pickle does not hold), so two workers send a RuntimeError
    that names it, with the worker's traceback as its cause."""

    def parse(block):
        if 3 * pipeline.BLOCK in block:
            raise ParseError("bad", 3)
        return block

    _force_workers(monkeypatch, 2)
    with pytest.raises(RuntimeError) as caught:
        list(pipeline.map_blocks(parse, 6 * pipeline.BLOCK, pipeline.block_ranges(6 * pipeline.BLOCK)))
    assert str(caught.value) == "ParseError in a worker process: bad (at offset 3)"
    assert "in parse" in str(caught.value.__cause__)
    _assert_no_child_process()


def test_map_blocks_sends_an_error_that_does_not_pickle_as_a_runtime_error(monkeypatch):
    """An exception that does not pickle at all, here of a class local to
    the test, reaches the caller as a RuntimeError that names it, not as a
    worker that ended before sending its result."""

    class LocalError(Exception):
        pass

    def fail(block):
        if 2 * pipeline.BLOCK in block:
            raise LocalError("cannot go on")
        return block

    _force_workers(monkeypatch, 2)
    with pytest.raises(RuntimeError) as caught:
        list(pipeline.map_blocks(fail, 6 * pipeline.BLOCK, pipeline.block_ranges(6 * pipeline.BLOCK)))
    assert str(caught.value) == f"{LocalError.__qualname__} in a worker process: cannot go on"
    assert "in fail" in str(caught.value.__cause__)
    _assert_no_child_process()


def test_map_blocks_sends_a_result_that_does_not_pickle_as_its_error(monkeypatch):
    """A block whose result does not pickle, here a lock, fails with the
    pickling error and the worker's traceback as its cause, not as a worker
    that ended before sending its result."""
    _force_workers(monkeypatch, 2)
    n = 3 * pipeline.BLOCK
    with pytest.raises(TypeError, match="pickle") as caught:
        list(pipeline.map_blocks(lambda block: threading.Lock(), n, pipeline.block_ranges(n)))
    assert "raised in a worker process" in str(caught.value.__cause__)
    _assert_no_child_process()


def _run_blocks(monkeypatch, workers, fn, n, payloads):
    """What `map_blocks` yields at `workers` with the caller's `payloads()`,
    up to the exception it raises (or None). A SIGALRM after 30 s ends a
    run that hangs on a pipe as a TimeoutError."""
    _force_workers(monkeypatch, workers)

    def expire(signum, frame):
        raise TimeoutError("no result within 30 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    results = []
    try:
        for result in pipeline.map_blocks(fn, n, payloads()):
            results.append(result)
    except Exception as e:
        return results, (type(e), str(e))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return results, None


@pytest.mark.parametrize("workers", [2, 3])
def test_map_blocks_passes_payloads_and_results_larger_than_a_pipe_buffer(monkeypatch, workers):
    """Every payload and every result is larger than a 64 KiB pipe buffer,
    and each comes through whole, in order, as at one worker."""
    n = 7 * pipeline.BLOCK

    def payloads():
        for b in range(0, n, pipeline.BLOCK):
            yield b, bytes([b % 251]) * (100_000 + b)

    def fn(payload):
        b, data = payload
        return b, data[::-1] + bytes(50_000), len(data)

    expected, _ = _run_blocks(monkeypatch, 1, fn, n, payloads)
    assert len(expected) == 7 and min(len(result[1]) for result in expected) > 1 << 16
    assert _run_blocks(monkeypatch, workers, fn, n, payloads) == (expected, None)
    _assert_no_child_process()


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("failing_block", [None, 4])
def test_map_blocks_raises_a_payload_error_as_at_one_worker(monkeypatch, workers, failing_block):
    """A payload iterator that raises at payload 5 yields the results
    before it and then its exception, as at one worker; a block before it
    that raises comes first. No child process is left."""
    n = 8 * pipeline.BLOCK

    def payloads():
        for b in range(8):
            if b == 5:
                raise DataError(f"cannot take payload {b}")
            yield b

    def fn(b):
        if b == failing_block:
            raise ValueError(f"block {b} failed")
        return [b] * 10

    expected = _run_blocks(monkeypatch, 1, fn, n, payloads)
    if failing_block is None:
        assert expected == ([[b] * 10 for b in range(5)], (DataError, "cannot take payload 5"))
    else:
        assert expected == ([[b] * 10 for b in range(4)], (ValueError, "block 4 failed"))
    assert _run_blocks(monkeypatch, workers, fn, n, payloads) == expected
    _assert_no_child_process()


@pytest.mark.parametrize("workers", [2, 3])
def test_map_blocks_closed_after_its_first_result_reaps_workers_and_closes_payloads(monkeypatch, workers):
    """Closing the stream after its first result kills and reaps every
    worker and closes the payload generator, so its `finally` runs."""
    closed = []

    def payloads():
        try:
            yield from range(6)
        finally:
            closed.append(True)

    _force_workers(monkeypatch, workers)
    taken = payloads()  # held here, so that only closing it runs its `finally`
    stream = pipeline.map_blocks(lambda b: b * 2, 6 * pipeline.BLOCK, taken)
    assert next(stream) == 0
    assert os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None  # running, not reaped
    assert not closed
    stream.close()
    assert closed == [True]
    _assert_no_child_process()


class _ExitOnUnpickling:
    """Unpickled, ends the process that unpickles it."""

    def __reduce__(self):
        return os._exit, (3,)


def test_map_blocks_worker_that_dies_taking_its_payload_is_a_runtime_error(monkeypatch):
    """A worker that ends while it reads its payload, larger than a pipe
    buffer, breaks the pipe the payload is written to: that is the
    RuntimeError of a worker that ended, and every worker is reaped."""

    def payloads():
        yield 0
        yield 1
        yield _ExitOnUnpickling(), bytes(1 << 20)
        yield 3

    results, error = _run_blocks(monkeypatch, 2, lambda payload: payload, 4 * pipeline.BLOCK, payloads)
    # payload 2 is written before result 0 is yielded: the write fails first
    assert results == [] and error == (RuntimeError, "a worker process ended before sending result 2")
    _assert_no_child_process()


# ---------------------------------------------------------------------------
# Stats / closure audit


def test_stats_flags_out_of_schema_answer():
    corpus = make_corpus(TaskKind.NER, 5, seed=4)
    records, _ = _build_sft(corpus, SftOptions(seed=0, max_tokens=100_000))
    target = next(r for r in records if r["schema_view_labels"])
    bad_label = "label_not_in_any_view"
    tampered = dict(target, format=spec_to_json(EVAL_FORMATS[TaskKind.NER]),
                    answer=f"[Answer]: something: {bad_label};")
    report = stats([tampered])
    assert report["closure_violations"] == 1
    assert report["closure_violating_ids"] == [tampered["id"]]


def test_stats_counts_and_histograms():
    corpus = _mixed_corpus(60)
    records, _ = _build_sft(corpus, SftOptions(seed=1, max_tokens=100_000))
    report = stats(records)
    assert report["total"] == len(records)
    assert sum(report["per_task"].values()) == len(records)
    assert sum(report["per_dataset"].values()) == len(records)
    assert sum(report["length_histogram"].values()) == len(records)


def test_sft_build_report_equals_stats_over_its_records():
    # every closed-IE task plus OpenIE, NA instances and EAE triggers
    tasks = (*sorted(CLOSED_IE_TASKS, key=lambda t: t.value), TaskKind.OPENIE)
    corpus = [i for t in tasks for i in make_corpus(t, 40, dataset=f"ds-{t.value}", seed=3, na_rate=0.2)]
    # a long explanation moves its record's length bucket
    client = MockClient(policy="fixed:" + " ".join(["step"] * 300))
    opts = SftOptions(seed=4, guideline_rate=0.5, symbol_rate=0.3, cot_rate=0.3, max_tokens=100_000)
    records, report = _build_sft(corpus, opts, client=client)
    assert report.pop("dropped_length") == 0
    assert report.pop("cot_skipped") == 0
    assert report.pop("input_instances") == len(corpus)
    assert report == stats(records)
    assert set(report["per_task"]) == {t.value for t in tasks}
    assert any(i.is_na for i in corpus)
    assert any(r["trigger"] for r in records if r["task"] == TaskKind.EAE.value)
    assert min(report["demo_rate"], report["guideline_rate"], report["symbol_rate"], report["cot_count"]) > 0


@functools.lru_cache(maxsize=None)
def _counted_sft_records() -> tuple:
    """The records of a small SFT build, each with the labels its answer
    uses and its tokens, as `stats` counts them; every seventh closed-IE
    record also uses a label outside its schema view."""
    tasks = (TaskKind.NER, TaskKind.EE, TaskKind.OPENIE)
    corpus = [i for t in tasks for i in make_corpus(t, 12, dataset=f"ds-{t.value}", seed=7, na_rate=0.2)]
    opts = SftOptions(seed=3, guideline_rate=0.5, symbol_rate=0.3, cot_rate=0.5, max_tokens=100_000)
    records, _ = _build_sft(corpus, opts, client=MockClient(policy="fixed:first this, then that"))
    counted = []
    for pos, rec in enumerate(records):
        labels_used = ()
        if TaskKind(rec["task"]) in CLOSED_IE_TASKS:
            spec = spec_from_json(rec["format"])
            labels_used = parse_answer_lenient(rec["answer"], spec, rec["trigger"]).extraction.labels_used()
            labels_used += ("label_not_in_any_view",) if pos % 7 == 0 else ()
        counted.append((rec, labels_used, whitespace_token_count(rec["prompt"]) + whitespace_token_count(rec["output"])))
    return tuple(counted)


def _composition(counted) -> Composition:
    composition = Composition()
    for rec, labels_used, tokens in counted:
        composition.add(rec, labels_used, tokens)
    return composition


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_composition_of_consecutive_runs_merged_in_order_equals_one_count(data):
    """Records cut at any positions into consecutive runs, empty ones among
    them, each counted into its own Composition and merged in order, report
    what one Composition over all the records reports."""
    counted = _counted_sft_records()
    cuts = sorted(data.draw(st.lists(st.integers(0, len(counted)), max_size=8)))
    merged = Composition()
    for start, end in zip([0, *cuts], [*cuts, len(counted)]):
        merged.merge(_composition(counted[start:end]))
    whole = _composition(counted).report()
    assert merged.report() == whole
    assert min(whole["demo_rate"], whole["guideline_rate"], whole["symbol_rate"], whole["cot_count"]) > 0
    assert whole["closure_violations"] > 1 and len(whole["per_dataset"]) == 3


def _block_records():
    """SFT records of more than three blocks, tasks mixed."""
    corpus = _mixed_corpus(150, seed=2)
    random.Random(0).shuffle(corpus)
    records, _ = _build_sft(corpus, SftOptions(seed=6, max_tokens=100_000))
    assert len(records) > 3 * pipeline.BLOCK
    return records


def test_stats_block_workers_write_the_same_report(monkeypatch):
    """`stats`' report is the same at 1, 2 and 3 block workers, over several
    blocks with closure violations in more than one block, whose ids keep
    input order; every run goes through `map_blocks`."""
    records = _block_records()
    tampered = [pos for pos, rec in enumerate(records) if rec["task"] == TaskKind.NER.value][::15]
    for pos in tampered:
        records[pos] = dict(records[pos], format=spec_to_json(EVAL_FORMATS[TaskKind.NER]),
                            answer="[Answer]: something: label_not_in_any_view;")
    mapped = _count_calls(monkeypatch, "map_blocks")
    reports = []
    for workers in (1, 2, 3):
        _force_workers(monkeypatch, workers)
        reports.append(json.dumps(stats(records), sort_keys=True))
        _assert_no_child_process()
    assert reports[0] == reports[1] == reports[2]
    assert [(n, blocks) for _, n, blocks in mapped] == [(len(records), pipeline.block_ranges(len(records)))] * 3
    report = json.loads(reports[0])
    assert report["total"] == len(records) and report["closure_violations"] == len(tampered)
    assert report["closure_violating_ids"] == [records[pos]["id"] for pos in tampered]
    assert len({pos // pipeline.BLOCK for pos in tampered}) > 1


def test_stats_block_workers_raise_a_record_error_as_one_process_does(monkeypatch):
    """A record in block 2 whose task is no TaskKind value makes `stats`
    raise the same exception and message at 1 and 2 workers, and leaves no
    child process."""
    records = _block_records()
    bad = 2 * pipeline.BLOCK + 5
    records[bad] = dict(records[bad], task="NotATask")
    errors = []
    for workers in (1, 2):
        _force_workers(monkeypatch, workers)
        with pytest.raises(Exception) as caught:
            stats(records)
        errors.append((type(caught.value), str(caught.value)))
        if workers > 1:  # the worker's traceback comes along as the cause
            assert "in count_block" in str(caught.value.__cause__)
        _assert_no_child_process()
    assert errors[0] == errors[1] == (ValueError, "'NotATask' is not a valid TaskKind")


def test_sft_build_audits_closure_on_the_restricted_gold(monkeypatch):
    corpus = make_corpus(TaskKind.NER, 20, seed=4)
    target = corpus[3]
    real_augment = pipeline.augment_schema

    def leaky_augment(schema, gold, *args):
        view, restricted = real_augment(schema, gold, *args)
        if gold is target.gold:
            leak = ("leaked mention", "label_not_in_any_view")
            restricted = Extraction(restricted.task, restricted.items + (leak,), restricted.trigger)
        return view, restricted

    monkeypatch.setattr(pipeline, "augment_schema", leaky_augment)
    _, report = _build_sft(corpus, SftOptions(seed=0, max_tokens=100_000))
    assert report["closure_violations"] == 1
    assert report["closure_violating_ids"] == [target.id]


def test_build_sft_records_pass_the_record_check():
    corpus = _mixed_corpus(20, tasks=tuple(TaskKind))
    client = MockClient(policy="fixed:Because the text says so.")
    opts = SftOptions(seed=2, cot_rate=0.5, cot_per_task=1000, max_tokens=100_000)
    records, report = _build_sft(corpus, opts, client=client)
    assert report["cot_count"] > 0 and len(report["per_task"]) == len(TaskKind)
    assert all(check_sft_record(r) is r for r in records)
    ee = {"family": "Triplet", "name": "ee", "task": "EE", "input_template": "",
          "answer_template": "{trigger}: {type} [{arguments}]", "arg_template": "{word}: {role}"}
    assert check_sft_record(dict(records[0], format=ee))
    for bad in ({"id": "a"}, dict(records[0], task="XX"), dict(records[0], format=5),
                dict(records[0], schema_view_labels=[5]), dict(records[0], format={"family": "Json"}),
                dict(records[0], format=dict(ee, answer_template="{trigger}: {trigger} [{arguments}]")),
                dict(records[0], format=dict(ee, arg_template="{word}: {word}"))):
        with pytest.raises((KeyError, TypeError, ValueError)):
            check_sft_record(bad)


# ---------------------------------------------------------------------------
# DPO


def test_build_dpo_with_noisy_client_hits_ratio():
    corpus = make_corpus(TaskKind.NER, 300, dataset="d", seed=6)
    corpus = [i for i in corpus if not i.is_na]
    client = MockClient(policy="noisy_gold:0.6", seed=0)
    corpus_pairs, summary = build_dpo(corpus, DpoPlan(target_size=100, seed=1), client)
    assert summary["total"] == 100
    assert summary["offline"] == 70 and summary["online"] == 30
    assert summary["skipped_instances"] == 0
    for p in corpus_pairs:
        if p["origin"] == "online":
            assert p["chosen_score"] - p["rejected_score"] > 0.10
        else:
            assert p["chosen_score"] == 1.0


def test_build_dpo_perfect_client_yields_no_pairs():
    corpus = make_corpus(TaskKind.NER, 20, dataset="d", seed=6)
    client = MockClient(policy="noisy_gold:0")
    pairs, summary = build_dpo(corpus, DpoPlan(target_size=100, seed=1), client)
    assert pairs == [] and summary["total"] == 0
    assert summary["note"] == "no qualifying pairs"


def test_build_dpo_corpus_is_the_dpo_jsonl_records(tmp_path):
    """The corpus `build_dpo` returns is what `dpo.jsonl` holds, record for
    record and in order."""
    corpus = [i for i in make_corpus(TaskKind.NER, 100, dataset="d", seed=6) if not i.is_na]
    plan = DpoPlan(target_size=40, seed=1)
    pairs, _ = build_dpo(corpus, plan, MockClient(policy="noisy_gold:0.6", seed=0))
    run_build_dpo(corpus, plan, MockClient(policy="noisy_gold:0.6", seed=0), tmp_path / "run")
    lines = (tmp_path / "run" / "dpo.jsonl").read_text(encoding="utf-8").splitlines()
    assert pairs and [json.loads(line) for line in lines] == pairs


class _RefusingClient(MockClient):
    """A noisy mock that refuses the third sample of each prompt in
    `refused` with a TransportError."""

    def __init__(self, refused):
        super().__init__(policy="noisy_gold:0.6", seed=0)
        self.refused = refused

    def _generate(self, prompt, temperature, index, reference):
        if prompt in self.refused and index == 2:
            raise TransportError("refused")
        return super()._generate(prompt, temperature, index, reference)


def _dpo_prompts(corpus, positions, seed):
    return {dpo_prompt(corpus[pos], eval_format_for(corpus[pos].task), None, seed) for pos in positions}


def test_dpo_block_workers_write_the_same_bytes_counts_and_calls(tmp_path, monkeypatch):
    """dpo.jsonl, the manifest counts and the client's call count are the
    same at 1, 2 and 3 block workers, over several blocks with instances
    skipped on a TransportError in more than one of them."""
    corpus = [i for i in _mixed_corpus(150, seed=2) if not i.is_na]
    random.Random(0).shuffle(corpus)
    plan = DpoPlan(target_size=300, seed=3)
    refused_at = [5, pipeline.BLOCK + 17, 3 * pipeline.BLOCK + 2]
    assert len(corpus) > 3 * pipeline.BLOCK
    refused = _dpo_prompts(corpus, refused_at, plan.seed)
    runs = []
    for workers in (1, 2, 3):
        _force_workers(monkeypatch, workers)
        client = _RefusingClient(refused)
        manifest = run_build_dpo(corpus, plan, client, tmp_path / f"w{workers}")
        runs.append(((tmp_path / f"w{workers}" / "dpo.jsonl").read_bytes(), manifest["counts"], client.call_count))
        _assert_no_child_process()
    assert runs[0] == runs[1] == runs[2]
    _, counts, calls = runs[0]
    assert counts["skipped_instances"] == len(refused_at)
    assert counts["total"] == plan.target_size and counts["online"] > 0
    assert calls == 5 * len(corpus) - 3 * len(refused_at)  # two samples of each refused instance came


def test_dpo_block_workers_raise_a_scoring_error_as_one_process_does(tmp_path, monkeypatch):
    """A sample that cannot be scored in block 2 fails the build with the
    same exception and message at 1 and 2 workers, writes no dpo.jsonl and
    leaves no child process."""
    corpus = [i for i in _mixed_corpus(150, seed=2) if not i.is_na]
    plan = DpoPlan(target_size=100, seed=3)
    bad = _dpo_prompts(corpus, [2 * pipeline.BLOCK + 5], plan.seed)

    class _NotText(MockClient):
        def _generate(self, prompt, temperature, index, reference):
            return 42 if prompt in bad else super()._generate(prompt, temperature, index, reference)

    errors = []
    for workers in (1, 2):
        _force_workers(monkeypatch, workers)
        out = tmp_path / f"w{workers}"
        with pytest.raises(Exception) as caught:
            run_build_dpo(corpus, plan, _NotText(policy="noisy_gold:0.6"), out)
        errors.append((type(caught.value), str(caught.value)))
        if workers > 1:  # the worker's traceback comes along as the cause
            assert "in score_block" in str(caught.value.__cause__)
        assert not (out / "dpo.jsonl").exists()
        _assert_no_child_process()
    assert errors[0] == errors[1] == (AttributeError, "'int' object has no attribute 'lower'")


def _count_calls(monkeypatch, name):
    """Record the arguments of every call to `pipeline.<name>`."""
    calls = []
    original = getattr(pipeline, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(pipeline, name, counted)
    return calls


def test_packaged_data_loaded_once_per_stage(monkeypatch):
    """`evaluate` and `build_dpo` load the format library once, not per RE or
    EE instance, and `build_dpo` loads each task's description pool once."""
    corpus = _mixed_corpus(20, tasks=(TaskKind.NER, TaskKind.RE, TaskKind.EE))
    library_loads = _count_calls(monkeypatch, "load_format_library")
    pool_loads = _count_calls(monkeypatch, "load_description_pool")
    evaluate({}, corpus)
    assert len(library_loads) == 1
    build_dpo(corpus, DpoPlan(target_size=10, seed=1), MockClient(policy="noisy_gold:0.6"))
    assert len(library_loads) == 2
    assert sorted(task.value for task, _ in pool_loads) == ["EE", "NER", "RE"]


class _RecordingClient(BaseClient):
    def __init__(self):
        super().__init__()
        self.prompts = []

    def _generate(self, prompt, temperature, index, reference):
        self.prompts.append(prompt)
        return "NA"


@pytest.mark.parametrize("with_pool_dir", [False, True])
def test_build_dpo_prompts_are_dpo_prompt(tmp_path, with_pool_dir):
    """The prompts `build_dpo` samples with are `dpo_prompt`'s, with the
    packaged pools and with user pool files."""
    pool_dir = None
    if with_pool_dir:
        pool_dir = str(tmp_path)
        for task in ("NER", "RE"):
            (tmp_path / task).mkdir()
            (tmp_path / task / "manual.txt").write_text(f"Own {task} text one.\nOwn {task} text two.\n")
            (tmp_path / task / "generated.txt").write_text(f"Generated {task} text.\n")
    corpus = _mixed_corpus(15, tasks=(TaskKind.NER, TaskKind.RE))
    client = _RecordingClient()
    build_dpo(corpus, DpoPlan(target_size=10, seed=4, samples_per_instance=1, pool_dir=pool_dir), client)
    expected = [dpo_prompt(i, eval_format_for(i.task), pool_dir, 4) for i in corpus]
    assert client.prompts == expected
    if with_pool_dir:
        assert any("Generated NER text." in p for p in expected)


class _Response:
    def __init__(self, status_code, text=None):
        self.status_code = status_code
        self.text = text

    def raise_for_status(self):
        if self.status_code >= 400:
            raise requests.HTTPError(f"HTTP {self.status_code}")

    def json(self):
        return {"choices": [{"message": {"content": self.text}}]}


class _KeyedSession:
    """A thread-safe chat endpoint whose answer depends only on the prompt
    and on how often that prompt was asked before, as the benchmark's fake
    transport's does: a copy of the prompt's gold with each token replaced
    w.p. 0.6. Prompts in `refused` always get a 401; post number `fail_on`
    raises RuntimeError. Records each post's start time and thread."""

    def __init__(self, gold_by_prompt, refused=(), fail_on=None, latency_s=0.001):
        self.gold = gold_by_prompt
        self.refused = set(refused)
        self.fail_on = fail_on
        self.latency_s = latency_s
        self.posts = 0
        self.starts: list[tuple[float, int]] = []
        self._asked = Counter()
        self._lock = threading.Lock()

    def post(self, url, json=None, headers=None, timeout=None):
        prompt = json["messages"][0]["content"]
        with self._lock:
            self.posts += 1
            post = self.posts
            nth = self._asked[prompt]
            self._asked[prompt] += 1
            self.starts.append((time.monotonic(), threading.get_ident()))
        if post == self.fail_on:
            raise RuntimeError("injected failure")
        time.sleep(self.latency_s)
        if prompt in self.refused:
            return _Response(401)
        rng = random.Random(f"{prompt}|{nth}")
        tokens = self.gold[prompt].split()
        return _Response(200, " ".join("noise" if rng.random() < 0.6 else tok for tok in tokens))


def _live_setup(monkeypatch, n_instances, seed, pool_dir=None):
    """Non-NA NER instances and the gold answer for each one's DPO prompt."""
    monkeypatch.setenv("IEALIGN_API_KEY", "k")
    corpus = [i for i in make_corpus(TaskKind.NER, n_instances, dataset="d", seed=11) if not i.is_na]
    return corpus, _live_gold(corpus, seed, pool_dir)


def _live_gold(corpus, seed, pool_dir=None):
    fmt = eval_format_for(TaskKind.NER)
    return {dpo_prompt(i, fmt, pool_dir, seed): serialize_answer(i.gold, fmt, seed=None) for i in corpus}


def _live_client(session, workers, cache_dir=None):
    cache = ResponseCache(cache_dir) if cache_dir else None
    client = LiveClient("http://fake/v1", "m", qps=0, session=session, cache=cache)
    client.workers = workers
    return client


@pytest.mark.parametrize("refuse_one", [False, True])
def test_live_dpo_bytes_independent_of_worker_count(tmp_path, monkeypatch, refuse_one):
    """dpo.jsonl and the manifest counts are the same for 1, 2, 4 and the
    live client's own count of workers, at 1 and 2 block workers over two
    blocks; a prompt that always gets a 401 is skipped the same way, and no
    more than `workers` threads post (none but the caller's at 1)."""
    plan = DpoPlan(target_size=500, seed=2, samples_per_instance=2)  # all candidates kept, in input order
    corpus, gold = _live_setup(monkeypatch, pipeline.BLOCK + 12, plan.seed)
    assert len(gold) == len(corpus)
    refused = list(gold)[pipeline.BLOCK + 7:pipeline.BLOCK + 8] if refuse_one else []
    runs = {}
    for block_workers in (1, 2):
        _force_workers(monkeypatch, block_workers)
        for workers in (1, 2, 4, LiveClient.workers):
            session = _KeyedSession(gold, refused=refused)
            client = _live_client(session, workers)
            out = tmp_path / f"b{block_workers}w{workers}"
            manifest = run_build_dpo(corpus, plan, client, out)
            runs[block_workers, workers] = ((out / "dpo.jsonl").read_bytes(), manifest["counts"])
            assert client.call_count == session.posts - len(refused)
            assert session.posts == 2 * len(corpus) - len(refused)  # a 401 is not retried
            threads = {ident for _, ident in session.starts}
            if workers == 1:
                assert threads == {threading.get_ident()}
            else:
                assert threading.get_ident() not in threads and len(threads) <= workers
            _assert_no_child_process()
    assert all(run == runs[1, 1] for run in runs.values())
    assert runs[1, 1][1]["skipped_instances"] == len(refused)
    assert 0 < runs[1, 1][1]["total"] < plan.target_size


@pytest.mark.parametrize("cached", [False, True])
def test_live_dpo_instances_sharing_a_prompt(tmp_path, monkeypatch, cached):
    """Instances with one prompt are sampled in input order by one worker,
    so at 4 workers as at 1 a later one hits the earlier one's cache
    entries, or without a cache asks the backend after it: the same
    dpo.jsonl, counts and calls."""
    pool_dir = tmp_path / "pools"
    plan = DpoPlan(target_size=100, seed=2, pool_dir=str(pool_dir))
    (pool_dir / TaskKind.NER.value).mkdir(parents=True)
    (pool_dir / TaskKind.NER.value / "manual.txt").write_text("Find the entities.\n")
    base, _ = _live_setup(monkeypatch, 16, plan.seed)
    corpus = []
    for k, inst in enumerate(base):
        corpus.append(inst)
        if k % 3 == 0:
            corpus.append(replace(inst, id=f"{inst.id}-copy"))
    corpus.append(replace(base[1], id=f"{base[1].id}-late"))
    gold = _live_gold(corpus, plan.seed, str(pool_dir))
    assert len(gold) == len(base) < len(corpus)
    paired = _count_calls(monkeypatch, "build_pairs")
    runs = {}
    for workers in (1, 4):
        session = _KeyedSession(gold)
        client = _live_client(session, workers, str(tmp_path / f"cache{workers}") if cached else None)
        manifest = run_build_dpo(corpus, plan, client, tmp_path / f"w{workers}")
        runs[workers] = ((tmp_path / f"w{workers}" / "dpo.jsonl").read_bytes(), manifest["counts"])
        assert session.posts == client.call_count == 5 * len(base if cached else corpus)
    assert runs[1] == runs[4]
    assert runs[1][1]["total"] > 0
    assert [args[0] for args in paired] == 2 * [inst.id for inst in corpus]  # once per instance per run


def test_live_dpo_workers_share_one_qps(monkeypatch):
    """qps limits the posts of all workers together: the k-th post starts
    at least k / qps after the first could, also when every worker reserves
    its first slot at once."""
    plan = DpoPlan(target_size=40, seed=2, samples_per_instance=2)
    corpus, gold = _live_setup(monkeypatch, 40, plan.seed)
    session = _KeyedSession(gold, latency_s=0.0)
    client = LiveClient("http://fake/v1", "m", qps=400, session=session)
    assert client.workers == 32 < len(gold)
    started = time.monotonic()
    build_dpo(corpus, plan, client)
    assert session.posts == 80
    for k, (start, _) in enumerate(sorted(session.starts)):
        assert start - started >= k * 0.0025 - 1e-4


@pytest.mark.parametrize("workers", [1, 2, 4, LiveClient.workers])
def test_live_dpo_unexpected_error_stops_queued_instances(tmp_path, monkeypatch, workers):
    """An error that is not a TransportError is raised once the instances
    already started finish, not after every queued one, and no output is
    written."""
    plan = DpoPlan(target_size=30, seed=2, samples_per_instance=1)
    corpus, gold = _live_setup(monkeypatch, 40, plan.seed)
    session = _KeyedSession(gold, fail_on=3, latency_s=0.0)
    client = _live_client(session, workers)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="injected failure"):
        run_build_dpo(corpus, plan, client, tmp_path / "run")
    assert 3 <= session.posts <= 3 + workers < len(corpus)
    assert not (tmp_path / "run").exists()
    assert threading.active_count() == before


def test_dpo_block_workers_fork_with_no_pool_thread_alive(tmp_path, monkeypatch):
    """A live build samples on the client's pool of threads, which starts
    only once the scoring's workers are forked: so the workers fork from
    this thread alone, while blocks are sampled on many threads after it;
    the bytes are those of a build that scores in this process."""
    plan = DpoPlan(target_size=200, seed=2)
    corpus, gold = _live_setup(monkeypatch, 300, plan.seed)
    assert len(corpus) > 2 * pipeline.BLOCK
    threads_at_fork = []
    forked_at = []

    def two_workers(n_blocks):
        threads_at_fork.append(threading.active_count())
        forked_at.append(time.monotonic())
        return min(2, n_blocks)

    runs = []
    for run, workers in enumerate((two_workers, lambda n_blocks: 1)):
        monkeypatch.setattr(pipeline, "block_workers", workers)
        session = _KeyedSession(gold, latency_s=0.0)
        run_build_dpo(corpus, plan, _live_client(session, 4), tmp_path / f"run{run}")
        runs.append((tmp_path / f"run{run}" / "dpo.jsonl").read_bytes())
        assert len({ident for _, ident in session.starts}) > 1
        if run == 0:  # every post comes after the workers are forked
            assert min(start for start, _ in session.starts) > forked_at[0]
        _assert_no_child_process()
    assert threads_at_fork == [1]
    assert runs[0] == runs[1]


def _live_sft_setup(monkeypatch, opts):
    """A mixed corpus and every CoT prompt `build_sft` sends for it, in input
    order, recorded through a client without a cache."""
    monkeypatch.setenv("IEALIGN_API_KEY", "k")
    corpus = _mixed_corpus(30)
    recorder = _RecordingClient()
    build_sft(corpus, opts, client=recorder)
    return corpus, recorder.prompts


@pytest.mark.parametrize("refuse_one", [False, True])
def test_live_sft_bytes_independent_of_worker_count(tmp_path, monkeypatch, refuse_one):
    """sft.jsonl and the manifest counts are the same for 1, 2, 4 and the
    live client's own count of workers; a CoT prompt that always gets a 401
    leaves its record in the corpus without CoT; the CoT posts come from no
    more than `workers` threads, and from none but the caller's at 1."""
    opts = SftOptions(seed=3, cot_rate=0.5, max_tokens=100_000)
    corpus, cot_prompts = _live_sft_setup(monkeypatch, opts)
    assert len(set(cot_prompts)) == len(cot_prompts) > 20
    refused = cot_prompts[7:8] if refuse_one else []
    answers = {prompt: "The text names each item, so each one is extracted." for prompt in cot_prompts}
    runs = {}
    for workers in (1, 2, 4, LiveClient.workers):
        session = _KeyedSession(answers, refused=refused)
        before = threading.active_count()
        manifest = run_build_sft(corpus, opts, tmp_path / f"w{workers}", client=_live_client(session, workers))
        assert threading.active_count() == before
        runs[workers] = ((tmp_path / f"w{workers}" / "sft.jsonl").read_bytes(), manifest["counts"])
        assert session.posts == len(cot_prompts)  # a 401 is not retried
        threads = {ident for _, ident in session.starts}
        if workers == 1:
            assert threads == {threading.get_ident()}
        else:
            assert threading.get_ident() not in threads and len(threads) <= workers
    assert runs[1] == runs[2] == runs[4] == runs[LiveClient.workers]
    counts = runs[1][1]
    assert counts["cot_skipped"] == len(refused)
    assert counts["cot_count"] == len(cot_prompts) - len(refused)
    records = [json.loads(line) for line in runs[1][0].decode("utf-8").splitlines()]
    assert len(records) == len(corpus)
    for prompt in refused:
        rec = next(r for r in records if r["prompt"] in prompt)
        assert rec["cot"] is None and rec["output"] == rec["answer"]


@pytest.mark.parametrize("workers", [1, 4])
def test_live_sft_unexpected_cot_error_writes_no_corpus(tmp_path, monkeypatch, workers):
    """An error during CoT that is not a TransportError or DataError is
    raised once the requests already started finish, and no sft.jsonl is
    written."""
    opts = SftOptions(seed=3, cot_rate=0.5, max_tokens=100_000)
    corpus, cot_prompts = _live_sft_setup(monkeypatch, opts)
    session = _KeyedSession(dict.fromkeys(cot_prompts, "Because."), fail_on=3, latency_s=0.0)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="injected failure"):
        run_build_sft(corpus, opts, tmp_path / "run", client=_live_client(session, workers))
    assert 3 <= session.posts <= 3 + workers < len(cot_prompts)
    assert not (tmp_path / "run").exists()
    assert threading.active_count() == before


def test_eval_format_for_all_tasks():
    for task in TaskKind:
        fmt = eval_format_for(task)
        assert fmt.task is task
    assert eval_format_for(TaskKind.ONDEMANDIE) == load_format_library()[TaskKind.ONDEMANDIE][0]
    assert eval_format_for(TaskKind.NER) is EVAL_FORMATS[TaskKind.NER]


# ---------------------------------------------------------------------------
# Evaluation


def test_evaluate_known_counts():
    schema = make_schema(TaskKind.NER)
    inst = make_instance(TaskKind.NER, "d", 0, random.Random(0), schema)
    fmt = EVAL_FORMATS[TaskKind.NER]
    gold_text = serialize_answer(inst.gold, fmt, seed=None)
    report = evaluate({inst.id: gold_text}, [inst])
    assert report["f1"] == 1.0 and report["parse_failures"] == 0


def test_evaluate_unparseable_and_missing_score_zero():
    corpus = [i for i in make_corpus(TaskKind.NER, 4, seed=7) if not i.is_na][:2]
    preds = {corpus[0].id: "complete garbage with no grammar"}
    report = evaluate(preds, corpus)
    assert report["parse_failures"] == 2
    assert report["tp"] == 0
    assert report["fn"] == sum(len(i.gold.items) for i in corpus)
    notes = {d["id"]: d["notes"] for d in report["per_instance"]}
    assert notes[corpus[1].id] == ["missing prediction"]


def test_evaluate_files_and_task_guard(tmp_path):
    corpus = make_corpus(TaskKind.NER, 5, dataset="d", seed=8)
    gold_path = tmp_path / "gold.jsonl"
    write_instances(corpus, gold_path)
    fmt = EVAL_FORMATS[TaskKind.NER]
    pred_path = tmp_path / "pred.jsonl"
    with open(pred_path, "w", encoding="utf-8") as f:
        for inst in corpus:
            f.write(json.dumps({"id": inst.id, "output": serialize_answer(inst.gold, fmt, seed=None)}) + "\n")
    report = evaluate_files(pred_path, gold_path, task=TaskKind.NER)
    assert report["f1"] == 1.0
    with pytest.raises(ConfigurationError):
        evaluate_files(pred_path, gold_path, task=TaskKind.RE)


# Prediction texts that no evaluation format parses.
_JUNK = ("[Answer]: (((((", "<<garbled>> ;;; ::", "[Answer]: ]]]]")


def _block_gold():
    """Gold instances of more than three blocks: every closed-IE task plus
    OpenIE, some NA, shuffled."""
    tasks = (*sorted(CLOSED_IE_TASKS, key=lambda t: t.value), TaskKind.OPENIE)
    gold = [i for t in tasks for i in make_corpus(t, 70, dataset=f"ds-{t.value}", seed=5, na_rate=0.1)]
    random.Random(1).shuffle(gold)
    assert len(gold) > 3 * pipeline.BLOCK
    return gold


def _mixed_predictions(gold, seed):
    """Predictions for `gold`: a tenth missing, a tenth unparseable, and of
    the rest half exact and half perturbed (the first gold item dropped, one
    or two new items added)."""
    library = load_format_library()
    rng = random.Random(seed)
    preds = {}
    for inst in gold:
        kind = rng.random()
        if kind < 0.1:
            continue
        if kind < 0.2:
            preds[inst.id] = rng.choice(_JUNK)
            continue
        items = inst.gold.items
        if kind >= 0.6:
            extra = make_extraction(inst.task, rng, inst.schema, allow_empty=False, max_items=2).items
            items = items[1:] + tuple(item for item in extra if item not in items)
        pred = Extraction(inst.task, items, trigger=inst.gold.trigger)
        preds[inst.id] = serialize_answer(pred, eval_format_for(inst.task, library), seed=None)
    return preds


def test_evaluate_block_workers_write_the_same_report(monkeypatch):
    """`evaluate`'s report is the same at 1, 2 and 3 block workers, over
    several blocks of missing, unparseable, exact and perturbed predictions;
    its rows keep input order and every run goes through `map_blocks`."""
    gold = _block_gold()
    preds = _mixed_predictions(gold, seed=1)
    mapped = _count_calls(monkeypatch, "map_blocks")
    reports = []
    for workers in (1, 2, 3):
        _force_workers(monkeypatch, workers)
        reports.append(json.dumps(evaluate(preds, gold), ensure_ascii=False, sort_keys=True, indent=2))
        _assert_no_child_process()
    assert reports[0] == reports[1] == reports[2]
    assert [(n, blocks) for _, n, blocks in mapped] == [(len(gold), pipeline.block_ranges(len(gold)))] * 3
    report = json.loads(reports[0])
    rows = report["per_instance"]
    assert [row["id"] for row in rows] == [inst.id for inst in gold]
    missing = [row for row in rows if row["notes"] == ["missing prediction"]]
    assert missing and report["parse_failures"] > len(missing)
    assert report["parse_failures"] == sum(1 for row in rows if row["notes"])
    assert min(report["tp"], report["fp"], report["fn"]) > 0 and 0 < report["f1"] < 1


def test_evaluate_block_workers_raise_a_scoring_error_as_one_process_does(monkeypatch):
    """An instance in block 2 whose scoring raises makes `evaluate` raise the
    same exception and message at 1 and 2 workers, and leaves no child
    process."""
    gold = _block_gold()
    preds = _mixed_predictions(gold, seed=1)
    bad = gold[2 * pipeline.BLOCK + 5]
    real_score = pipeline.exact_match_f1

    def failing_score(pred, gold_extraction):
        if gold_extraction is bad.gold:
            raise ValueError(f"cannot score {bad.id}")
        return real_score(pred, gold_extraction)

    monkeypatch.setattr(pipeline, "exact_match_f1", failing_score)
    errors = []
    for workers in (1, 2):
        _force_workers(monkeypatch, workers)
        with pytest.raises(Exception) as caught:
            evaluate(preds, gold)
        errors.append((type(caught.value), str(caught.value)))
        if workers > 1:  # the worker's traceback comes along as the cause
            assert "in failing_score" in str(caught.value.__cause__)
        _assert_no_child_process()
    assert errors[0] == errors[1] == (ValueError, f"cannot score {bad.id}")


def test_load_predictions_rejects_malformed(tmp_path):
    p = tmp_path / "pred.jsonl"
    for bad in ('{"id": "b"}', '{"id": ["b"], "output": "x"}', '["b", "x"]', '{"id": "b", '):
        p.write_text('{"id": "a", "output": "x"}\n' + bad + "\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 2"):
            load_predictions(p)


# ---------------------------------------------------------------------------
# Manifests, atomic writes, failure handling


def test_run_build_sft_manifest_and_rerun_identical(tmp_path):
    corpus = make_corpus(TaskKind.NER, 40, dataset="d", seed=9)
    opts = SftOptions(seed=2, max_tokens=100_000)
    m1 = run_build_sft(corpus, opts, tmp_path / "run1")
    m2 = run_build_sft(corpus, opts, tmp_path / "run2")
    assert m1["outputs"] == m2["outputs"]
    assert m1["config_digest"] == m2["config_digest"]
    assert (tmp_path / "run1" / "sft.jsonl").exists()
    assert m1["outputs"]["sft.jsonl"] == file_digest(tmp_path / "run1" / "sft.jsonl")
    assert json.loads((tmp_path / "run1" / "manifest.json").read_text())["outputs"] == m1["outputs"]


def test_run_build_dpo_manifest(tmp_path):
    corpus = [i for i in make_corpus(TaskKind.NER, 60, dataset="d", seed=10) if not i.is_na]
    client = MockClient(policy="noisy_gold:0.6", seed=0)
    manifest = run_build_dpo(corpus, DpoPlan(target_size=20, seed=3), client, tmp_path)
    assert manifest["counts"]["total"] == 20
    lines = (tmp_path / "dpo.jsonl").read_text().splitlines()
    assert len(lines) == 20


def test_failure_preserves_partials(tmp_path):
    """A failed rerun leaves the previous run's complete outputs in place."""
    out = tmp_path / "run"
    corpus = make_corpus(TaskKind.NER, 3, seed=0)
    run_build_sft(corpus, SftOptions(seed=0, max_tokens=100_000), out)
    previous = {name: (out / name).read_bytes() for name in ("sft.jsonl", "manifest.json")}
    bad = SftOptions(seed=0)
    object.__setattr__(bad, "demo_k_range", (8, 1))  # force a failure mid-build
    with pytest.raises(Exception):
        run_build_sft(corpus, bad, out)
    for name, data in previous.items():
        assert_kept(out / name, data)
    assert not (out / "failed").exists()


def test_write_jsonl_atomic_sorted_keys(tmp_path):
    p = tmp_path / "x.jsonl"
    write_jsonl_atomic([jsonl_line({"b": 1, "a": "é"})], p)
    assert p.read_text(encoding="utf-8") == '{"a": "é", "b": 1}\n'
    assert list(tmp_path.glob("*.tmp")) == []


def test_write_jsonl_atomic_streams_across_chunks(tmp_path):
    """Each piece of text, a block of lines, reaches the temp file before the
    next piece is taken, so the pieces are never held together."""
    p = tmp_path / "x.jsonl"
    piece = "".join(jsonl_line({"i": i}) for i in range(10_000))
    on_disk = []

    def pieces():
        for _ in range(3):
            yield piece
            on_disk.append(sum(tmp.stat().st_size for tmp in tmp_path.glob("*.tmp")))

    write_jsonl_atomic(pieces(), p)
    assert 0 < on_disk[0] < on_disk[1] < on_disk[2] and len(piece) > 1 << 16
    assert p.read_text() == piece * 3


@pytest.mark.parametrize(
    "write",
    [
        lambda p: write_jsonl_atomic(fail_on_second([jsonl_line({"a": 1}), jsonl_line({"b": 2})]), p),
        lambda p: write_manifest(p, {}, {"a": 1, "z": object()}, {}, 0.0),  # not JSON-serializable
    ],
    ids=["jsonl", "manifest"],
)
def test_failed_write_keeps_previous_file(tmp_path, write):
    dest = tmp_path / "out"
    dest.write_bytes(b"previous\n")
    with pytest.raises((RuntimeError, TypeError)):
        write(dest)
    assert_kept(dest, b"previous\n")


@pytest.mark.parametrize("name", ["sft.jsonl", "manifest.json"])
def test_run_outputs_get_umask_mode(tmp_path, umask, name):
    run_build_sft(make_corpus(TaskKind.NER, 5, seed=0), SftOptions(seed=0, max_tokens=100_000), tmp_path)
    assert os.stat(tmp_path / name).st_mode & 0o777 == umask
