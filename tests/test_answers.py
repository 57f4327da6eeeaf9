"""Answer serialization/parsing tests: exact inverse round-trips across all
tasks and families, the fixed evaluation grammars, fail-output handling,
lenient recovery, CoT composition, and markdown tables."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iealign.answers import (
    DiagnosticKind,
    ParseError,
    SerializationError,
    attach_cot,
    parse_answer,
    parse_answer_lenient,
    parse_markdown_table,
    serialize_answer,
)
from iealign.formats import EVAL_FORMATS, load_format_library
from iealign.model import AlignmentExample, Extraction, TaskKind
from iealign.synth import make_extraction, make_schema

LIBRARY = load_format_library()


def roundtrip_equal(x: Extraction, y: Extraction) -> bool:
    return set(y.items) == set(x.items) and y.trigger == x.trigger


# ---------------------------------------------------------------------------
# Round trips


@pytest.mark.parametrize("task", [t for t in TaskKind if t is not TaskKind.ONDEMANDIE])
def test_roundtrip_all_formats(task):
    rng = random.Random(hash(task.value) & 0xFFFF)
    schema = make_schema(task)
    for i in range(100):
        x = make_extraction(task, rng, schema)
        for spec in LIBRARY[task]:
            s = serialize_answer(x, spec, seed=i)
            y = parse_answer(s, spec, trigger=x.trigger)
            assert roundtrip_equal(x, y), (spec.name, x.items, s, y.items)


@pytest.mark.parametrize("task", list(EVAL_FORMATS))
def test_roundtrip_eval_formats(task):
    rng = random.Random(hash(task.value) & 0xFFFF)
    schema = make_schema(task)
    spec = EVAL_FORMATS[task]
    for i in range(100):
        x = make_extraction(task, rng, schema)
        s = serialize_answer(x, spec, seed=i)
        y = parse_answer(s, spec, trigger=x.trigger)
        assert roundtrip_equal(x, y)


@given(task=st.sampled_from([t for t in TaskKind if t is not TaskKind.ONDEMANDIE]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_roundtrip_property(task, seed):
    rng = random.Random(seed)
    x = make_extraction(task, rng, make_schema(task))
    for spec in LIBRARY[task]:
        s = serialize_answer(x, spec, seed=seed)
        y = parse_answer(s, spec, trigger=x.trigger)
        assert roundtrip_equal(x, y)


# ---------------------------------------------------------------------------
# Fixed evaluation grammar fixtures (byte-exact)


def test_ner_grammar_fixture():
    gold = Extraction(TaskKind.NER, (("Steve Jobs", "person"), ("Apple", "organization")))
    text = serialize_answer(gold, EVAL_FORMATS[TaskKind.NER], seed=None)
    assert text == "[Answer]: Steve Jobs: person; Apple: organization;"
    assert parse_answer(text, EVAL_FORMATS[TaskKind.NER]).items == gold.items


def test_rc_grammar_fixture():
    gold = Extraction(TaskKind.RC, (("Steve Jobs", "founded", "Apple"),))
    text = serialize_answer(gold, EVAL_FORMATS[TaskKind.RC], seed=None)
    assert text == "[Answer]: (Steve Jobs; founded; Apple);"
    assert parse_answer(text, EVAL_FORMATS[TaskKind.RC]).items == gold.items


def test_ed_grammar_fixture():
    gold = Extraction(TaskKind.ED, (("resigned", "personnel"),))
    text = serialize_answer(gold, EVAL_FORMATS[TaskKind.ED], seed=None)
    assert text == "[Answer]: resigned: personnel;"


def test_eae_grammar_fixture():
    gold = Extraction(TaskKind.EAE, (("board", "agent"),), trigger="resigned")
    text = serialize_answer(gold, EVAL_FORMATS[TaskKind.EAE], seed=None)
    assert text == "[Answer]: board: agent;"
    parsed = parse_answer(text, EVAL_FORMATS[TaskKind.EAE], trigger="resigned")
    assert parsed.items == gold.items and parsed.trigger == "resigned"


def test_ere_grammar_fixture():
    gold = Extraction(TaskKind.ERE, (("crash", "causes", "injury"),))
    text = serialize_answer(gold, EVAL_FORMATS[TaskKind.ERE], seed=None)
    assert text == "[Answer]: (crash; causes; injury);"


def test_openie_grammar_fixture_with_omission():
    gold = Extraction(
        TaskKind.OPENIE,
        (
            ("met", "Alice", "Bob", "yesterday", "Paris"),
            ("left", "Carol", "the office", None, None),
        ),
    )
    text = serialize_answer(gold, EVAL_FORMATS[TaskKind.OPENIE], seed=None)
    assert text == "[Answer]: (met; Alice; Bob; yesterday; Paris) (left; Carol; the office)"
    parsed = parse_answer(text, EVAL_FORMATS[TaskKind.OPENIE])
    assert set(parsed.items) == set(gold.items)


def test_openie_middle_absent_slot():
    gold = Extraction(TaskKind.OPENIE, (("met", "Alice", "Bob", None, "Paris"),))
    spec = EVAL_FORMATS[TaskKind.OPENIE]
    text = serialize_answer(gold, spec, seed=None)
    assert parse_answer(text, spec).items == gold.items


@pytest.mark.parametrize("body,items,diagnostics", [
    # commas and whitespace both separate tuples; trailing slots may be omitted
    ("(met; Alice; Bob), (left; Carol; home; today)",
     (("met", "Alice", "Bob", None, None), ("left", "Carol", "home", "today", None)), []),
    ("(met; Alice; Bob),(left; Carol; home)",
     (("met", "Alice", "Bob", None, None), ("left", "Carol", "home", None, None)), []),
    # an empty predicate or subject matches no variant
    ("(; Alice; Bob)", (), [(DiagnosticKind.UNPARSEABLE, 0)]),
    ("(met; ; Bob; ; Paris)", (), [(DiagnosticKind.UNPARSEABLE, 0)]),
    # any other empty slot, quoted or not, is absent
    ('(met; Alice; ""; ; Paris)', (("met", "Alice", None, None, "Paris"),), []),
])
def test_openie_parse_exact(body, items, diagnostics):
    result = parse_answer_lenient("[Answer]: " + body, EVAL_FORMATS[TaskKind.OPENIE])
    assert result.extraction.items == items
    assert [(d.kind, d.offset) for d in result.diagnostics] == diagnostics


@pytest.mark.parametrize("name,expected", [
    ("openie-tuple", "[Answer]: (met; Alice; Bob; ; Paris) (left; Carol; home; today)"),
    ("openie-svo", "[Answer]: (Alice; met; Bob; ; Paris) (Carol; left; home; today)"),
    ("openie-nl", 'The predicate "met" connects "Alice" with "Bob" at time "" in location "Paris". '
                  'The predicate "left" connects "Carol" with "home" at time "today".'),
])
def test_openie_render_exact(name, expected):
    """Absent trailing slots are dropped in the template's own slot order;
    an absent middle slot renders empty."""
    items = (("met", "Alice", "Bob", None, "Paris"), ("left", "Carol", "home", "today", None))
    gold = Extraction(TaskKind.OPENIE, items)
    spec = next(s for s in LIBRARY[TaskKind.OPENIE] if s.name == name)
    text = serialize_answer(gold, spec, seed=None)
    assert text == expected
    assert parse_answer(text, spec).items == gold.items


# ---------------------------------------------------------------------------
# Empty gold / fail output


@pytest.mark.parametrize("task", [t for t in TaskKind if t not in (TaskKind.ONDEMANDIE, TaskKind.RC)])
def test_empty_gold_serializes_fail_output(task):
    gold = Extraction(task, (), trigger="t" if task is TaskKind.EAE else None)
    for spec in LIBRARY[task]:
        assert serialize_answer(gold, spec) == spec.fail_output
        parsed = parse_answer(spec.fail_output, spec, trigger=gold.trigger)
        assert parsed.items == ()


def test_fail_output_with_prefix_parses_empty():
    spec = EVAL_FORMATS[TaskKind.NER]
    assert parse_answer("[Answer]: NA", spec).items == ()
    assert parse_answer("NA", spec).items == ()


def test_serialize_task_mismatch_raises():
    gold = Extraction(TaskKind.NER, (("a", "person"),))
    with pytest.raises(SerializationError):
        serialize_answer(gold, EVAL_FORMATS[TaskKind.ED])


def test_ondemand_table_passthrough():
    from iealign.formats import MARKDOWN_SPEC

    gold = Extraction(TaskKind.ONDEMANDIE, table="| a |\n| --- |\n| 1 |")
    assert serialize_answer(gold, MARKDOWN_SPEC) == gold.table
    parsed = parse_answer_lenient(gold.table, MARKDOWN_SPEC)
    assert parsed.extraction.table == gold.table


# ---------------------------------------------------------------------------
# Shuffling


def test_triplet_shuffle_deterministic_and_seeded():
    gold = Extraction(TaskKind.NER, tuple((f"e{i}", "person") for i in range(6)))
    spec = EVAL_FORMATS[TaskKind.NER]
    a1 = serialize_answer(gold, spec, seed=7)
    a2 = serialize_answer(gold, spec, seed=7)
    assert a1 == a2
    outputs = {serialize_answer(gold, spec, seed=s) for s in range(10)}
    assert len(outputs) > 1  # different seeds produce different orders
    assert serialize_answer(gold, spec, seed=None) == serialize_answer(gold, spec, seed=None)


# ---------------------------------------------------------------------------
# Lenient parsing


def test_lenient_recovers_prefix_and_reports_garbage():
    spec = EVAL_FORMATS[TaskKind.NER]
    result = parse_answer_lenient("[Answer]: Paris: location; and some trailing prose", spec)
    assert ("Paris", "location") in result.extraction.items
    assert result.diagnostics


def test_lenient_duplicate_items_dropped():
    spec = EVAL_FORMATS[TaskKind.NER]
    result = parse_answer_lenient("[Answer]: Paris: location; Paris: location;", spec)
    assert result.extraction.items == (("Paris", "location"),)
    assert [d.kind for d in result.diagnostics] == [DiagnosticKind.DUPLICATE]
    assert parse_answer("[Answer]: Paris: location; Paris: location;", spec) == result.extraction


def test_strict_parse_raises_on_garbage():
    spec = EVAL_FORMATS[TaskKind.NER]
    with pytest.raises(ParseError):
        parse_answer("complete nonsense with no structure", spec)


def test_lenient_json_recovery_from_prose():
    spec = next(s for s in LIBRARY[TaskKind.NER] if s.family == "Json")
    payload = '{"task": "NER", "items": [{"entity": "Paris", "type": "location"}]}'
    result = parse_answer_lenient(f"Here is the answer: {payload}", spec)
    assert result.extraction.items == (("Paris", "location"),)
    assert [d.kind for d in result.diagnostics] == [DiagnosticKind.RECOVERED_JSON]
    assert parse_answer(f"Here is the answer: {payload}", spec) == result.extraction


def test_strict_parse_error_offset_is_the_parser_offset():
    spec = EVAL_FORMATS[TaskKind.NER]
    with pytest.raises(ParseError) as e:
        parse_answer("[Answer]: Paris: location; (((", spec)
    assert e.value.offset == 17
    assert str(e.value) == "unparseable item at offset 17: '(((' (at offset 17)"
    # a number in the model's own output is not an offset
    json_spec = next(s for s in LIBRARY[TaskKind.NER] if s.family == "Json")
    with pytest.raises(ParseError) as e:
        parse_answer('{"task": "NER", "items": [{"entity": "see offset 41"}]}', json_spec)
    assert e.value.offset == 0


# ---------------------------------------------------------------------------
# Chain-of-thought composition


def _example(answer="[Answer]: x: person;"):
    return AlignmentExample(
        instance_id="i1",
        task=TaskKind.NER,
        prompt="p",
        demonstrations=(),
        output=answer,
        answer=answer,
        cot=None,
        format=EVAL_FORMATS[TaskKind.NER],
        schema_view_labels=("person",),
    )


def test_attach_and_split_cot():
    ex = attach_cot(_example(), "Step one. Step two.")
    assert ex.cot == "Step one. Step two."
    assert ex.output == "Step one. Step two.\n\n[Answer]: x: person;"


def test_attach_cot_twice_raises():
    ex = attach_cot(_example(), "why")
    with pytest.raises(ValueError):
        attach_cot(ex, "again")


def test_attach_cot_empty_raises():
    with pytest.raises(ValueError):
        attach_cot(_example(), "   ")


# ---------------------------------------------------------------------------
# Markdown tables


def test_parse_markdown_table():
    text = "| name | date |\n| --- | --- |\n| a | 1 |\n| b | 2 |"
    headers, rows = parse_markdown_table(text)
    assert headers == ["name", "date"]
    assert rows == [["a", "1"], ["b", "2"]]


def test_parse_markdown_table_no_table():
    assert parse_markdown_table("no pipes here") == ([], [])
