"""Pipeline tests: SFT assembly rates, CoT capping, preference corpus
construction, composition stats with the label-closure audit, evaluation,
and manifest/atomic-output behavior."""

import json
import os
import random
import threading
import time
from collections import Counter
from dataclasses import replace

import pytest
import requests
from conftest import assert_kept, fail_on_second

from iealign import pipeline
from iealign.answers import serialize_answer
from iealign.client import BaseClient, LiveClient, MockClient, ResponseCache
from iealign.errors import ConfigurationError, DataError
from iealign.formats import EVAL_FORMATS, MARKDOWN_SPEC
from iealign.model import TaskKind, write_instances
from iealign.pipeline import (
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
from iealign.synth import make_corpus, make_instance, make_schema


def _mixed_corpus(n_per_task=120, seed=0, tasks=(TaskKind.NER, TaskKind.RE, TaskKind.ED)):
    corpus = []
    for t in tasks:
        corpus.extend(make_corpus(t, n_per_task, dataset=f"ds-{t.value}", seed=seed))
    return corpus


# ---------------------------------------------------------------------------
# SFT assembly


def test_build_sft_one_record_per_instance_and_rates():
    corpus = _mixed_corpus(400)
    records, report = build_sft(corpus, SftOptions(seed=7, max_tokens=100_000))
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
    r1, _ = build_sft(corpus, SftOptions(seed=3, max_tokens=100_000))
    r2, _ = build_sft(corpus, SftOptions(seed=3, max_tokens=100_000))
    assert r1 == r2
    r3, _ = build_sft(corpus, SftOptions(seed=4, max_tokens=100_000))
    assert r1 != r3


def test_build_sft_drops_overlength():
    corpus = make_corpus(TaskKind.NER, 30, seed=1)
    records, report = build_sft(corpus, SftOptions(seed=0, max_tokens=40))
    assert report["dropped_length"] == len(corpus) - len(records)
    assert report["dropped_length"] > 0


def test_cot_count_is_min_of_cap_and_eligible():
    corpus = make_corpus(TaskKind.NER, 300, dataset="d", seed=2)
    client = MockClient(policy="fixed:Because the text names each entity explicitly.")
    opts = SftOptions(seed=5, cot_rate=0.1, cot_per_task=10, max_tokens=100_000)
    records, report = build_sft(corpus, opts, client=client)
    eligible = [i.id for i in corpus if cot_eligible(i.id, i.is_na, opts)]
    assert report["cot_count"] == min(10, len(eligible))
    assert report["cot_count"] == 10

    opts_hi = SftOptions(seed=5, cot_rate=0.1, cot_per_task=1000, max_tokens=100_000)
    _, report_hi = build_sft(corpus, opts_hi, client=client)
    eligible_hi = [i.id for i in corpus if cot_eligible(i.id, i.is_na, opts_hi)]
    assert report_hi["cot_count"] == len(eligible_hi)


def test_cot_skipped_without_client():
    corpus = make_corpus(TaskKind.NER, 50, seed=2)
    _, report = build_sft(corpus, SftOptions(seed=5, max_tokens=100_000))
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


# ---------------------------------------------------------------------------
# Stats / closure audit


def test_stats_flags_out_of_schema_answer():
    corpus = make_corpus(TaskKind.NER, 5, seed=4)
    records, _ = build_sft(corpus, SftOptions(seed=0, max_tokens=100_000))
    target = next(r for r in records if r["schema_view_labels"])
    bad_label = "label_not_in_any_view"
    tampered = dict(target, answer=f"[Answer]: something: {bad_label};")
    report = stats([tampered])
    assert report["closure_violations"] == 1
    assert report["closure_violating_ids"] == [tampered["id"]]


def test_stats_counts_and_histograms():
    corpus = _mixed_corpus(60)
    records, _ = build_sft(corpus, SftOptions(seed=1, max_tokens=100_000))
    report = stats(records)
    assert report["total"] == len(records)
    assert sum(report["per_task"].values()) == len(records)
    assert sum(report["per_dataset"].values()) == len(records)
    assert sum(report["length_histogram"].values()) == len(records)


def test_build_sft_records_pass_the_record_check(tmp_path):
    # no description is packaged for on-demand IE
    (tmp_path / TaskKind.ONDEMANDIE.value).mkdir()
    (tmp_path / TaskKind.ONDEMANDIE.value / "manual.txt").write_text("Fill in the table.\n", encoding="utf-8")
    corpus = _mixed_corpus(20, tasks=tuple(TaskKind))
    client = MockClient(policy="fixed:Because the text says so.")
    opts = SftOptions(seed=2, cot_rate=0.5, cot_per_task=1000, max_tokens=100_000, pool_dir=str(tmp_path))
    records, report = build_sft(corpus, opts, client=client)
    assert report["cot_count"] > 0 and len(report["per_task"]) == len(TaskKind)
    assert all(check_sft_record(r) is r for r in records)
    for bad in ({"id": "a"}, dict(records[0], task="XX"), dict(records[0], format=5),
                dict(records[0], schema_view_labels=[5]), dict(records[0], format={"family": "Json"})):
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
        if p.origin == "online":
            assert p.preferred_score - p.dispreferred_score > 0.10
        else:
            assert p.preferred_score == 1.0


def test_build_dpo_perfect_client_yields_no_pairs():
    corpus = make_corpus(TaskKind.NER, 20, dataset="d", seed=6)
    client = MockClient(policy="noisy_gold:0")
    pairs, summary = build_dpo(corpus, DpoPlan(target_size=100, seed=1), client)
    assert pairs == [] and summary["total"] == 0
    assert summary["note"] == "no qualifying pairs"


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
    build_dpo(corpus, DpoPlan(target_size=10, seed=4, samples_per_instance=1), client, pool_dir=pool_dir)
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
    live client's own count of workers, a prompt that always gets a 401 is
    skipped the same way, and no more than `workers` threads post (none but
    the caller's at 1)."""
    plan = DpoPlan(target_size=100, seed=2)  # more than the candidates: all kept, in input order
    corpus, gold = _live_setup(monkeypatch, 40, plan.seed)
    assert len(gold) == len(corpus)
    refused = list(gold)[7:8] if refuse_one else []
    runs = {}
    for workers in (1, 2, 4, LiveClient.workers):
        session = _KeyedSession(gold, refused=refused)
        client = _live_client(session, workers)
        manifest = run_build_dpo(corpus, plan, client, tmp_path / f"w{workers}")
        runs[workers] = ((tmp_path / f"w{workers}" / "dpo.jsonl").read_bytes(), manifest["counts"])
        assert client.call_count == session.posts - len(refused)
        assert session.posts == 5 * len(corpus) - 4 * len(refused)  # a 401 is not retried
        threads = {ident for _, ident in session.starts}
        if workers == 1:
            assert threads == {threading.get_ident()}
        else:
            assert threading.get_ident() not in threads and len(threads) <= workers
    assert runs[1] == runs[2] == runs[4] == runs[LiveClient.workers]
    assert runs[1][1]["skipped_instances"] == len(refused)
    assert runs[1][1]["total"] > 0


@pytest.mark.parametrize("cached", [False, True])
def test_live_dpo_instances_sharing_a_prompt(tmp_path, monkeypatch, cached):
    """Instances with one prompt are sampled in input order by one worker,
    so at 4 workers as at 1 a later one hits the earlier one's cache
    entries, or without a cache asks the backend after it: the same
    dpo.jsonl, counts and calls."""
    plan = DpoPlan(target_size=100, seed=2)
    pool_dir = tmp_path / "pools"
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
    scored = _count_calls(monkeypatch, "build_online_pair")
    runs = {}
    for workers in (1, 4):
        session = _KeyedSession(gold)
        client = _live_client(session, workers, str(tmp_path / f"cache{workers}") if cached else None)
        manifest = run_build_dpo(corpus, plan, client, tmp_path / f"w{workers}", pool_dir=str(pool_dir))
        runs[workers] = ((tmp_path / f"w{workers}" / "dpo.jsonl").read_bytes(), manifest["counts"])
        assert session.posts == client.call_count == 5 * len(base if cached else corpus)
    assert runs[1] == runs[4]
    assert runs[1][1]["total"] > 0
    assert [args[0].instance_id for args in scored] == 2 * [inst.id for inst in corpus]


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


def test_eval_format_for_all_tasks():
    for task in TaskKind:
        fmt = eval_format_for(task)
        assert fmt.task is task
    assert eval_format_for(TaskKind.ONDEMANDIE) is MARKDOWN_SPEC
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
    write_jsonl_atomic([{"b": 1, "a": 2}], p)
    assert p.read_text() == '{"a": 2, "b": 1}\n'
    assert list(tmp_path.glob("*.tmp")) == []


@pytest.mark.parametrize(
    "write",
    [
        lambda p: write_jsonl_atomic(fail_on_second([{"a": 1}, {"b": 2}]), p),
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
