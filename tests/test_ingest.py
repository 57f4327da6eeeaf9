"""Ingest tests: raw readers, NA/length filters, and corpus mixing."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iealign.errors import ConfigurationError, DataError
from iealign.ingest import (
    MixturePlan,
    ReaderSpec,
    filter_length,
    filter_na,
    load_dataset,
    mix_general,
    mix_proportional,
    whitespace_token_count,
)
from iealign.model import TaskKind, gold_to_json, schema_to_json, stable_id
from iealign.synth import make_corpus, make_schema


def write_raw(tmp_path, instances, name="raw.jsonl"):
    path = tmp_path / name
    with open(path, "w", encoding="utf-8") as f:
        for inst in instances:
            f.write(json.dumps({"text": inst.text, "gold": gold_to_json(inst.gold)}) + "\n")
    return path


def write_schema(tmp_path, task):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(schema_to_json(make_schema(task))), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Readers


def test_load_dataset_roundtrip(tmp_path):
    corpus = make_corpus(TaskKind.NER, 25, dataset="d", seed=1, na_rate=0.2)
    raw = write_raw(tmp_path, corpus)
    schema = write_schema(tmp_path, TaskKind.NER)
    spec = ReaderSpec("d", TaskKind.NER, str(raw), schema=str(schema))
    loaded = load_dataset(spec, lenient=False)
    assert [i.gold for i in loaded] == [i.gold for i in corpus]
    assert [i.text for i in loaded] == [i.text for i in corpus]
    assert all(i.is_na == i.gold.is_empty() for i in loaded)


def test_load_dataset_malformed_line_strict_and_lenient(tmp_path):
    path = tmp_path / "raw.jsonl"
    path.write_text('{"text": "ok", "gold": []}\nnot json\n', encoding="utf-8")
    schema = write_schema(tmp_path, TaskKind.NER)
    spec = ReaderSpec("d", TaskKind.NER, str(path), schema=str(schema))
    with pytest.raises(DataError):
        load_dataset(spec, lenient=False)
    assert len(load_dataset(spec, lenient=True)) == 1


def test_load_dataset_missing_fields(tmp_path):
    path = tmp_path / "raw.jsonl"
    path.write_text('{"gold": []}\n', encoding="utf-8")
    spec = ReaderSpec("d", TaskKind.OPENIE, str(path))
    with pytest.raises(DataError, match="missing text"):
        load_dataset(spec, lenient=False)


@pytest.mark.parametrize("index", [[1, 2], 1.0, True, "1", None])
def test_load_dataset_index_must_be_an_int(tmp_path, index):
    """A raw `index` that is not an int (a bool is not one) is a line data
    error naming the field, skipped under lenient: 1, 1.0, true and "1"
    would each give the same text a different instance id, and so slip
    past the duplicate-id check."""
    path = tmp_path / "raw.jsonl"
    lines = [{"index": 1, "text": "ok", "gold": []}, {"index": index, "text": "ok", "gold": []}]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    spec = ReaderSpec("d", TaskKind.OPENIE, str(path))
    with pytest.raises(DataError, match=r"index is not an int \| line 2 \| field 'index'"):
        load_dataset(spec, lenient=False)
    assert [inst.id for inst in load_dataset(spec, lenient=True)] == [stable_id("d", 1, "ok")]


def test_null_labels_removed(tmp_path):
    path = tmp_path / "raw.jsonl"
    path.write_text(
        json.dumps({"text": "t", "gold": [["a", "no_relation", "b"]]}) + "\n", encoding="utf-8"
    )
    schema = write_schema(tmp_path, TaskKind.RE)
    spec = ReaderSpec("d", TaskKind.RE, str(path), schema=str(schema), null_labels=("no_relation",))
    loaded = load_dataset(spec, lenient=False)
    assert loaded[0].gold.items == ()
    assert loaded[0].is_na


@pytest.mark.parametrize("task,gold,kept", [
    (TaskKind.NER, [["big", "O"], ["Paris", "location"]], (("Paris", "location"),)),
    (TaskKind.ED, [["went", "NONE"], ["hit", "attack"]], (("hit", "attack"),)),
    (TaskKind.EAE, {"trigger": "hit", "args": [["Bob", "agent"], ["today", "NONE"]]}, (("Bob", "agent"),)),
    (TaskKind.EE, [
        {"trigger": "went", "type": "NONE", "arguments": [["Bob", "agent"]]},
        {"trigger": "hit", "type": "attack", "arguments": [["Bob", "agent"], ["today", "NONE"]]},
    ], (("hit", "attack", (("Bob", "agent"),)),)),
], ids=["NER", "ED", "EAE", "EE"])
def test_null_labels_removed_for_every_closed_ie_task(tmp_path, task, gold, kept):
    """A null label, which the schema does not hold, drops its item: an EE
    event by its type, an argument by its role."""
    path = tmp_path / "raw.jsonl"
    path.write_text(json.dumps({"text": "Bob hit big Paris today and went", "gold": gold}) + "\n", encoding="utf-8")
    spec = ReaderSpec("d", task, str(path), schema=str(write_schema(tmp_path, task)), null_labels=("O", "NONE"))
    assert load_dataset(spec, lenient=False)[0].gold.items == kept


def test_load_dataset_shares_the_schema_labels(tmp_path):
    """Each gold label loaded is the schema's own LabelDef.name string, after
    the null labels are dropped; a label outside the schema is still the
    line's data error."""
    gold = [
        {"trigger": "went", "type": "NONE", "arguments": [["Bob", "agent"]]},
        {"trigger": "hit", "type": "attack", "arguments": [["Bob", "agent"], ["today", "NONE"], ["Paris", "target"]]},
    ]
    path = tmp_path / "raw.jsonl"
    path.write_text(json.dumps({"text": "Bob hit Paris today and went", "gold": gold}) + "\n", encoding="utf-8")
    spec = ReaderSpec("d", TaskKind.EE, str(path), schema=str(write_schema(tmp_path, TaskKind.EE)), null_labels=("NONE",))
    [inst] = load_dataset(spec, lenient=False)
    assert inst.gold.items == (("hit", "attack", (("Bob", "agent"), ("Paris", "target"))),)
    for label in inst.gold.labels_used():
        assert any(label is l.name for l in inst.schema.labels), label
    gold[1]["type"] = "parade"
    path.write_text(json.dumps({"text": "Bob hit Paris today and went", "gold": gold}) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"gold: label 'parade' not in schema \| line 1$"):
        load_dataset(spec, lenient=False)


def test_schema_task_mismatch(tmp_path):
    raw = write_raw(tmp_path, make_corpus(TaskKind.NER, 2, seed=0))
    schema = write_schema(tmp_path, TaskKind.ED)
    with pytest.raises(ConfigurationError):
        load_dataset(ReaderSpec("d", TaskKind.NER, str(raw), schema=str(schema)), lenient=False)


def test_missing_schema_file():
    with pytest.raises(ConfigurationError):
        load_dataset(ReaderSpec("d", TaskKind.NER, "/dev/null", schema="/nonexistent.json"), lenient=False)


# ---------------------------------------------------------------------------
# Filters


def test_filter_na_keeps_all_non_na():
    corpus = make_corpus(TaskKind.NER, 200, seed=2, na_rate=0.5)
    kept = filter_na(corpus, ReaderSpec("d", TaskKind.NER, "raw.jsonl", na_keep_rate=0.2, seed=0))
    non_na = [i for i in corpus if not i.is_na]
    assert [i for i in kept if not i.is_na] == non_na


def test_filter_na_rate_and_determinism():
    corpus = make_corpus(TaskKind.NER, 4000, seed=2, na_rate=1.0)
    na_total = sum(1 for i in corpus if i.is_na)
    kept = filter_na(corpus, ReaderSpec("d", TaskKind.NER, "raw.jsonl", na_keep_rate=0.2, seed=9))
    kept2 = filter_na(corpus, ReaderSpec("d", TaskKind.NER, "raw.jsonl", na_keep_rate=0.2, seed=9))
    assert kept == kept2
    rate = len(kept) / na_total
    assert 0.15 < rate < 0.25


def test_filter_na_order_independent():
    corpus = make_corpus(TaskKind.NER, 300, seed=2, na_rate=0.6)
    kept_ids = {i.id for i in filter_na(corpus, ReaderSpec("d", TaskKind.NER, "raw.jsonl", na_keep_rate=0.3, seed=4))}
    shuffled = list(corpus)
    random.Random(0).shuffle(shuffled)
    spec = ReaderSpec("d", TaskKind.NER, "raw.jsonl", na_keep_rate=0.3, seed=4)
    assert {i.id for i in filter_na(shuffled, spec)} == kept_ids


@given(st.floats(0, 1), st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_filter_na_never_drops_non_na_property(keep_rate, seed):
    corpus = make_corpus(TaskKind.RE, 50, seed=1, na_rate=0.5)
    kept = filter_na(corpus, ReaderSpec("d", TaskKind.NER, "raw.jsonl", na_keep_rate=keep_rate, seed=seed))
    assert {i.id for i in corpus if not i.is_na} <= {i.id for i in kept}


def test_filter_na_bad_rate():
    with pytest.raises(ConfigurationError):
        ReaderSpec("d", TaskKind.NER, "raw.jsonl", na_keep_rate=1.5, seed=0)


def test_filter_length_inclusive_boundary():
    corpus = make_corpus(TaskKind.NER, 10, seed=3)
    limits = [whitespace_token_count(i.text) for i in corpus]
    exactly = filter_length(corpus, max_tokens=limits[0])
    assert corpus[0] in exactly  # boundary is inclusive
    assert filter_length(corpus, max_tokens=0) == []


# ---------------------------------------------------------------------------
# Mixing


def test_mix_proportional_caps_contributions():
    datasets = {
        "big": make_corpus(TaskKind.NER, 1200, dataset="big", seed=1),
        "small": make_corpus(TaskKind.RE, 120, dataset="small", seed=2),
        "mid": make_corpus(TaskKind.ED, 500, dataset="mid", seed=3),
    }
    mixed, counts = mix_proportional(datasets, MixturePlan(dict.fromkeys(datasets, ""), cap=500, seed=0))
    assert counts == {"big": 500, "small": 120, "mid": 500}
    assert len(mixed) == 1120


def test_mix_proportional_quota_and_error():
    datasets = {"a": make_corpus(TaskKind.NER, 50, dataset="a", seed=1)}
    _, counts = mix_proportional(datasets, MixturePlan(dict.fromkeys(datasets, ""), cap=500, quotas={"a": 10}, seed=0))
    assert counts == {"a": 10}
    with pytest.raises(ConfigurationError, match="quota"):
        mix_proportional(datasets, MixturePlan(dict.fromkeys(datasets, ""), cap=500, quotas={"a": 60}, seed=0))


def test_mix_proportional_deterministic_and_order_free():
    datasets = {
        "a": make_corpus(TaskKind.NER, 300, dataset="a", seed=1),
        "b": make_corpus(TaskKind.RE, 300, dataset="b", seed=2),
    }
    m1, _ = mix_proportional(datasets, MixturePlan(dict.fromkeys(datasets, ""), cap=100, seed=5))
    plan = MixturePlan(dict.fromkeys(datasets, ""), cap=100, seed=5)
    m2, _ = mix_proportional(dict(reversed(list(datasets.items()))), plan)
    assert m1 == m2


def test_mix_general_rate_within_tolerance():
    ie = make_corpus(TaskKind.NER, 400, dataset="ie", seed=1)
    general = [f"gen-{i}" for i in range(5000)]
    mixed = mix_general(ie, general, MixturePlan({"ie": ""}, ie_rate=0.2, seed=0))
    n_ie = sum(1 for x in mixed if not isinstance(x, str))
    assert abs(n_ie / len(mixed) - 0.2) <= 1.0 / len(mixed)


def test_mix_general_binds_on_short_general_side():
    ie = make_corpus(TaskKind.NER, 400, dataset="ie", seed=1)
    general = [f"gen-{i}" for i in range(100)]
    mixed = mix_general(ie, general, MixturePlan({"ie": ""}, ie_rate=0.2, seed=0))
    n_gen = sum(1 for x in mixed if isinstance(x, str))
    assert n_gen == 100
    assert abs((len(mixed) - n_gen) / len(mixed) - 0.2) <= 1.0 / len(mixed)


def test_mix_general_errors():
    ie = make_corpus(TaskKind.NER, 10, dataset="ie", seed=1)
    with pytest.raises(ConfigurationError):
        mix_general(ie, [], MixturePlan({"ie": ""}, ie_rate=0.2, seed=0))
    with pytest.raises(ConfigurationError):
        MixturePlan({"ie": ""}, ie_rate=0.0, seed=0)
