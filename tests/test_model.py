"""Data model tests: record round-trips, validation, identity, and the
extraction algebra (project)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import json
import pickle
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
    writable_as,
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


def test_read_instances_builds_each_distinct_schema_once(tmp_path):
    """Instances whose records hold equal schemas share one SchemaDef; a
    schema without guidelines and exemplars gets its own."""
    ner = make_corpus(TaskKind.NER, 4, dataset="a", seed=1)
    other = make_schema(TaskKind.NER, with_guidelines=False)
    plain = [IEInstance(i.id + "-plain", i.dataset, i.task, i.text, other, i.gold, i.is_na) for i in ner]
    path = tmp_path / "in.jsonl"
    write_instances(ner + plain + make_corpus(TaskKind.OPENIE, 2, seed=2), path)
    back = read_instances(path)
    assert back[:8] == ner + plain
    assert len({id(i.schema) for i in back[:4]}) == len({id(i.schema) for i in back[4:8]}) == 1
    assert back[0].schema is not back[4].schema and back[8].schema is None


def _ner_and_ee_file(tmp_path):
    path = tmp_path / "in.jsonl"
    write_instances(make_corpus(TaskKind.NER, 6, dataset="news", seed=1)
                    + make_corpus(TaskKind.EE, 6, dataset="events", seed=2), path)
    return path


def test_read_instances_shares_schema_labels_and_dataset_names(tmp_path):
    """Each gold label read, EE event types and argument roles included, is
    its schema's own LabelDef.name string, and the instances of one dataset
    share one dataset string; a label outside the schema is still the
    line's data error."""
    path = _ner_and_ee_file(tmp_path)
    back = read_instances(path)
    roles = [role for i in back if i.task is TaskKind.EE for *_, args in i.gold.items for _, role in args]
    assert roles and sum(len(i.gold.labels_used()) for i in back) > len(roles)
    for inst in back:
        for label in inst.gold.labels_used():
            assert any(label is l.name for l in inst.schema.labels), (inst.id, label)
    assert all(i.dataset is back[0].dataset for i in back[:6])
    assert all(i.dataset is back[6].dataset for i in back[6:])
    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[0])
    record.update(id="news-planet", gold=[["Paris", "planet"]], is_na=False)
    path.write_text("\n".join([*lines[:3], json.dumps(record)]) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"bad record: ValueError\(\"invalid instance: gold: label 'planet' not in schema\"\) \| line 4$"):
        read_instances(path)


def test_instances_hold_no_dict_and_pickle_to_equal_values(tmp_path):
    for inst in read_instances(_ner_and_ee_file(tmp_path)):
        assert not hasattr(inst, "__dict__") and not hasattr(inst.gold, "__dict__")
        assert pickle.loads(pickle.dumps(inst)) == inst


def test_unknown_record_field_rejected():
    rec = instance_to_record(make_instance(TaskKind.NER, "ds", 0, random.Random(0)))
    rec["extra"] = 1
    with pytest.raises(ValueError, match="unknown record fields"):
        instance_from_record(rec, {}, {})


def test_missing_record_field_rejected():
    rec = instance_to_record(make_instance(TaskKind.NER, "ds", 0, random.Random(0)))
    del rec["is_na"]
    with pytest.raises(ValueError, match="missing record fields"):
        instance_from_record(rec, {}, {})


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


@pytest.mark.parametrize("bad, problem", [
    (LabelDef(5), "a label name is not a non-empty string"),
    (LabelDef(""), "a label name is not a non-empty string"),
    (LabelDef("x", exemplars=("ok", 5)), "an exemplar of label 'x' is not a string"),
])
def test_schema_label_names_and_exemplars_must_be_strings(bad, problem):
    """A prompt renders every name and, with guidelines, every exemplar as text."""
    assert SchemaDef(TaskKind.NER, (LabelDef("person"), bad)).validate() == [f"schema: {problem}"]


@pytest.mark.parametrize("gold", [
    Extraction(TaskKind.NER, (("", "person"),)),
    Extraction(TaskKind.RE, (("a", "person", ""),)),
    Extraction(TaskKind.EE, (("t", "person", (("", "person"),)),)),
], ids=lambda gold: gold.task.value)
def test_empty_slot_value_is_a_problem_for_every_task(gold):
    """A template renders an empty value as nothing, so it would not parse back."""
    problems = validate_extraction(gold, SchemaDef(gold.task, (LabelDef("person"),)))
    assert problems == [f"gold: {gold.task.value} item {gold.items[0]!r} has an empty slot value"]


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
        (Extraction(TaskKind.OPENIE, ((None, "s", "o", None, None),)), "not a string"),
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


_EVENTS = (("t1", "attack", (("x", "agent"), ("y", "victim"))), ("t2", "meeting", ()))


@pytest.mark.parametrize("gold,allowed,rename,expected", [
    (Extraction(TaskKind.NER, (("a", "person"), ("b", "place"))), {"person"}, None, (("a", "person"),)),
    (Extraction(TaskKind.NER, (("a", "person"), ("b", "place"))), {"person", "place"}, {"person": "LABEL_1"},
     (("a", "LABEL_1"), ("b", "place"))),
    (Extraction(TaskKind.RE, (("a", "r1", "b"), ("c", "r2", "d"), ("e", "r3", "f"))), {"r1", "r2"},
     {"r1": "LABEL_1", "r2": "LABEL_2"}, (("a", "LABEL_1", "b"), ("c", "LABEL_2", "d"))),
    (Extraction(TaskKind.EAE, (("x", "agent"), ("y", "victim")), trigger="t"), {"victim"}, None, (("y", "victim"),)),
    (Extraction(TaskKind.EE, _EVENTS), {"attack", "meeting", "agent"}, {"attack": "LABEL_1", "agent": "LABEL_2"},
     (("t1", "LABEL_1", (("x", "LABEL_2"),)), ("t2", "meeting", ()))),
    (Extraction(TaskKind.EE, _EVENTS), {"attack", "agent"}, None, (("t1", "attack", (("x", "agent"),)),)),
    (Extraction(TaskKind.OPENIE, (("met", "Alice", "Bob", None, None),)), set(), {"met": "LABEL_1"},
     (("met", "Alice", "Bob", None, None),)),
    (Extraction(TaskKind.ONDEMANDIE, table="| a |"), set(), None, ()),
], ids=["ner", "ner-renamed", "re-renamed", "eae", "ee-role-dropped", "ee-event-dropped", "openie", "ondemandie"])
def test_project(gold, allowed, rename, expected):
    """`project` keeps the items whose labels `allowed` holds (an EE event
    its allowed roles) and renames their labels through `rename`; a
    schema-free task, its trigger and its table are kept as they are."""
    assert gold.project(allowed, rename) == Extraction(gold.task, expected, gold.trigger, gold.table)


@pytest.mark.parametrize("path,kind,expected", [
    ("a-file", "regular file", True),
    ("a-file", "directory", False),
    ("a-dir", "directory", True),
    ("a-dir", "regular file", False),
    ("a-dir/new/deeper", "directory", True),
    ("new", "regular file", True),
    ("a-file/new", "directory", False),
    ("a-file/new/deeper", "regular file", False),
])
def test_writable_as(tmp_path, path, kind, expected):
    """A path can be written as a kind when it names that kind or nothing
    and its nearest existing ancestor is a directory."""
    (tmp_path / "a-file").write_text("", encoding="utf-8")
    (tmp_path / "a-dir").mkdir()
    assert writable_as(kind, tmp_path / path) is expected


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
