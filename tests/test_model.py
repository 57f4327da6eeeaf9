"""Data model tests: record round-trips, validation, identity, and the
extraction algebra (restrict/relabel)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import random

from iealign.errors import DataError
from iealign.model import (
    CLOSED_IE_TASKS,
    Extraction,
    IEInstance,
    LabelDef,
    SchemaDef,
    TaskKind,
    instance_from_record,
    instance_to_record,
    read_instances,
    read_records,
    stable_id,
    validate_extraction,
    validate_instance,
    write_instances,
)
from iealign.synth import make_corpus, make_instance, make_schema


def test_stable_id_deterministic_and_distinct():
    a = stable_id("ds", 0, "some text")
    assert a == stable_id("ds", 0, "some text")
    assert a != stable_id("ds", 1, "some text")
    assert a != stable_id("ds", 0, "other text")
    assert a.startswith("ds-0-")


def test_task_partition():
    assert CLOSED_IE_TASKS | {TaskKind.OPENIE, TaskKind.ONDEMANDIE} == set(TaskKind)


@pytest.mark.parametrize("task", list(TaskKind))
def test_record_roundtrip_every_task(task, tmp_path):
    rng = random.Random(3)
    schema = make_schema(task)
    instances = [make_instance(task, "ds", i, rng, schema) for i in range(20)]
    path = tmp_path / "out.jsonl"
    write_instances(instances, path)
    back = read_instances(path)
    assert back == instances


def test_unknown_record_field_rejected():
    rec = instance_to_record(make_instance(TaskKind.NER, "ds", 0, random.Random(0)))
    rec["extra"] = 1
    with pytest.raises(ValueError, match="unknown record fields"):
        instance_from_record(rec)


def test_missing_record_field_rejected():
    rec = instance_to_record(make_instance(TaskKind.NER, "ds", 0, random.Random(0)))
    del rec["is_na"]
    with pytest.raises(ValueError, match="missing record fields"):
        instance_from_record(rec)


def test_read_records_strict_and_lenient(tmp_path, caplog):
    path = tmp_path / "in.jsonl"
    path.write_bytes(b'{"n": 1}\n\nnot json\n{"n": "two"}\n"caf\xe9"\n{"n": 3}\n')

    def convert(value, lineno):
        return lineno, value["n"] + 0

    with pytest.raises(DataError, match=r"invalid JSON.*\| line 3$"):
        read_records(path, convert, lenient=False)
    with caplog.at_level("WARNING", logger="iealign.model"):
        assert read_records(path, convert, lenient=True) == ([(1, 1), (6, 3)], 3)
    assert [r.getMessage().split(": ")[0] for r in caplog.records] == [
        f"skipping malformed line {path}:{n}" for n in (3, 4, 5)
    ]


# ---------------------------------------------------------------------------
# Validation


def test_schema_guideline_must_be_a_non_empty_string():
    ok = LabelDef("person", "A human.", ("Ann",))
    for bad in (LabelDef("x", guideline=5), LabelDef("x", guideline=" ")):
        assert len(SchemaDef(TaskKind.NER, (ok, bad)).validate()) == 1, bad
    assert SchemaDef(TaskKind.NER, (ok,)).validate() == []


def test_validate_rc_single_item():
    gold = Extraction(TaskKind.RC, (("a", "r", "b"), ("c", "r", "d")))
    schema = SchemaDef(TaskKind.RC, (LabelDef("r"),))
    assert any("more than one" in p for p in validate_extraction(gold, schema))


def test_validate_label_outside_schema():
    gold = Extraction(TaskKind.NER, (("a", "alien"),))
    schema = SchemaDef(TaskKind.NER, (LabelDef("person"),))
    assert any("not in schema" in p for p in validate_extraction(gold, schema))


def test_validate_eae_needs_trigger():
    gold = Extraction(TaskKind.EAE, (("a", "agent"),), trigger=None)
    schema = SchemaDef(TaskKind.EAE, (LabelDef("agent"),))
    assert any("trigger" in p for p in validate_extraction(gold, schema))


def test_validate_duplicate_tuple():
    gold = Extraction(TaskKind.NER, (("a", "person"), ("a", "person")))
    schema = SchemaDef(TaskKind.NER, (LabelDef("person"),))
    assert any("duplicate" in p for p in validate_extraction(gold, schema))


def test_validate_na_consistency():
    inst = make_instance(TaskKind.NER, "ds", 0, random.Random(0))
    bad = IEInstance(inst.id, inst.dataset, inst.task, inst.text, inst.schema, inst.gold, is_na=True)
    assert any("is_na" in p for p in validate_instance(bad))


def test_validate_wrong_slot_count():
    gold = Extraction(TaskKind.NER, (("a", "person", "extra"),))
    schema = SchemaDef(TaskKind.NER, (LabelDef("person"),))
    assert any("slots" in p for p in validate_extraction(gold, schema))


@pytest.mark.parametrize(
    "gold, problem",
    [
        (Extraction(TaskKind.NER, (("a",),)), "has 1 slots, expected 2"),
        (Extraction(TaskKind.NER, ((["a"], "person"),)), "not a string"),
        (Extraction(TaskKind.EE, (("t", "attack", (("a",),)),)), "argument ('a',) has 1 slots"),
        (Extraction(TaskKind.EAE, (("a", "agent"),), trigger=5), "trigger 5 is not a string"),
        (Extraction(TaskKind.OPENIE, (("p", "s", None, None, None),)), "not a string"),
    ],
)
def test_validate_shape_is_checked_before_labels(gold, problem):
    """A badly shaped item is reported, not an IndexError or unhashable-type
    TypeError from the label and duplicate checks."""
    schema = SchemaDef(gold.task, (LabelDef("person"), LabelDef("attack"), LabelDef("agent")))
    assert any(problem in p for p in validate_extraction(gold, schema))


@pytest.mark.parametrize(
    "item",
    [("", "Alice", "Bob", None, None), ("met", "", "Bob", None, None),
     ("met", "Alice", "", None, None), ("met", "Alice", "Bob", "", None), ("met", "Alice", "Bob", "now", "")],
)
def test_openie_empty_slot_value_is_a_problem(item):
    """An empty OpenIE value would not parse back from its serialization."""
    problems = validate_extraction(Extraction(TaskKind.OPENIE, (item,)), None)
    assert problems == [f"gold: OpenIE item {item!r} has an empty slot value"]


# ---------------------------------------------------------------------------
# Extraction algebra


def test_restrict_drops_out_of_subset_items():
    gold = Extraction(TaskKind.NER, (("a", "person"), ("b", "place")))
    assert gold.restrict({"person"}).items == (("a", "person"),)


def test_restrict_ee_drops_events_and_roles():
    gold = Extraction(
        TaskKind.EE,
        (("t1", "attack", (("x", "agent"), ("y", "victim"))), ("t2", "meeting", ())),
    )
    out = gold.restrict({"attack", "agent"})
    assert out.items == (("t1", "attack", (("x", "agent"),)),)


def test_relabel_bijection_roundtrip():
    gold = Extraction(TaskKind.RE, (("a", "r1", "b"), ("c", "r2", "d")))
    mapping = {"r1": "LABEL_1", "r2": "LABEL_2"}
    inverse = {v: k for k, v in mapping.items()}
    assert gold.relabel(mapping).relabel(inverse) == gold


def test_labels_used_ee_includes_roles():
    gold = Extraction(TaskKind.EE, (("t", "attack", (("x", "agent"),)),))
    assert set(gold.labels_used()) == {"attack", "agent"}


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_synthetic_instances_always_valid(seed):
    rng = random.Random(seed)
    task = rng.choice(list(TaskKind))
    inst = make_instance(task, "ds", 0, rng, na_rate=0.3)
    assert validate_instance(inst) == []


def test_make_corpus_deterministic():
    a = make_corpus(TaskKind.RE, 30, seed=5)
    b = make_corpus(TaskKind.RE, 30, seed=5)
    assert a == b
    assert len({i.id for i in a}) == 30
