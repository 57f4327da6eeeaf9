"""Answer serialization/parsing tests: exact inverse round-trips across all
tasks and families, the fixed evaluation grammars, fail-output handling,
lenient recovery, CoT composition, and markdown tables."""

import json
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from iealign.answers import (
    DiagnosticKind,
    ParseError,
    SerializationError,
    parse_answer,
    parse_answer_lenient,
    parse_markdown_table,
    serialize_answer,
)
from iealign.formats import EVAL_FORMATS, load_format_library
from iealign.model import (
    CLOSED_IE_TASKS,
    EE_ARG_SLOTS,
    TASK_SLOTS,
    Extraction,
    FormatSpec,
    IEInstance,
    LabelDef,
    SchemaDef,
    TaskKind,
    validate_instance,
)
from iealign.pipeline import eval_format_for
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
            s = serialize_answer(x, spec, seed=random.Random(i))
            y = parse_answer(s, spec, trigger=x.trigger)
            assert roundtrip_equal(x, y), (spec.name, x.items, s, y.items)


@pytest.mark.parametrize("task", list(EVAL_FORMATS))
def test_roundtrip_eval_formats(task):
    rng = random.Random(hash(task.value) & 0xFFFF)
    schema = make_schema(task)
    spec = EVAL_FORMATS[task]
    for i in range(100):
        x = make_extraction(task, rng, schema)
        s = serialize_answer(x, spec, seed=random.Random(i))
        y = parse_answer(s, spec, trigger=x.trigger)
        assert roundtrip_equal(x, y)


@given(task=st.sampled_from([t for t in TaskKind if t is not TaskKind.ONDEMANDIE]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_roundtrip_property(task, seed):
    rng = random.Random(seed)
    x = make_extraction(task, rng, make_schema(task))
    for spec in LIBRARY[task]:
        s = serialize_answer(x, spec, seed=random.Random(seed))
        y = parse_answer(s, spec, trigger=x.trigger)
        assert roundtrip_equal(x, y)


# Any text, with the characters the item grammars treat specially drawn often.
_TEXT = st.text(st.sampled_from('();:,."\\ |[]{}\n\taZ') | st.characters(), max_size=8)


@st.composite
def _instances(draw) -> IEInstance:
    """An instance of any task but OnDemandIE with arbitrary slot values and
    label names, valid or not."""
    task = draw(st.sampled_from([t for t in TaskKind if t is not TaskKind.ONDEMANDIE]))
    names = draw(st.lists(_TEXT, min_size=1, max_size=4, unique=True))
    label = st.sampled_from(names)

    def item() -> tuple:
        if task is TaskKind.EE:
            return draw(_TEXT), draw(label), tuple(draw(st.lists(st.tuples(_TEXT, label), max_size=2)))
        if task is TaskKind.OPENIE:
            return draw(_TEXT), draw(_TEXT), draw(st.none() | _TEXT), draw(st.none() | _TEXT), draw(st.none() | _TEXT)
        if task in (TaskKind.RC, TaskKind.RE, TaskKind.ERE):
            return draw(_TEXT), draw(label), draw(_TEXT)
        return draw(_TEXT), draw(label)

    n = 1 if task is TaskKind.RC else draw(st.integers(1, 3))
    items = tuple(dict.fromkeys(item() for _ in range(n)))
    trigger = draw(_TEXT) if task is TaskKind.EAE else None
    schema = SchemaDef(task, tuple(map(LabelDef, names))) if task in CLOSED_IE_TASKS else None
    return IEInstance("i", "d", task, "text", schema, Extraction(task, items, trigger=trigger), False)


@given(_instances())
@settings(max_examples=150, deadline=None)
def test_every_valid_gold_round_trips_under_every_spec(inst):
    """Every gold that `validate_instance` accepts strict-parses back to the
    same items, up to order, from its serialization under every packaged
    spec of its task and under its evaluation spec."""
    assume(not validate_instance(inst))
    for spec in LIBRARY[inst.task] + [eval_format_for(inst.task, LIBRARY)]:
        text = serialize_answer(inst.gold, spec)
        back = parse_answer(text, spec, trigger=inst.gold.trigger)
        assert Counter(back.items) == Counter(inst.gold.items), (spec.name, text)


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
    # a required slot, predicate or subject, needs a value
    ("(; Alice; Bob)", (), [(DiagnosticKind.UNPARSEABLE, 0)]),
    ("(met; ; Bob; ; Paris)", (), [(DiagnosticKind.UNPARSEABLE, 0)]),
    # an empty optional slot, quoted or not, is absent
    ('(met; Alice; ""; ; Paris)', (("met", "Alice", None, None, "Paris"),), []),
    ("(met; Alice)", (("met", "Alice", None, None, None),), []),
    # a quoted empty required slot parses as in every other task
    ('(""; Alice; Bob)', (("", "Alice", "Bob", None, None),), []),
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


def test_openie_template_without_time_and_location_needs_its_predicate():
    """A three-slot OpenIE template drops only its object: an answer that
    leaves out the predicate is unparseable, not an item with it None."""
    spec = FormatSpec("Triplet", "openie-three", TaskKind.OPENIE, "", "({subject}; {predicate}; {object})")
    result = parse_answer_lenient("(Alice)", spec)
    assert result.extraction.items == ()
    assert [(d.kind, d.offset) for d in result.diagnostics] == [(DiagnosticKind.UNPARSEABLE, 0)]
    assert parse_answer_lenient("(Alice; met)", spec).extraction.items == (("met", "Alice", None, None, None),)


_OPENIE_SPECS = {s.name: s for s in LIBRARY[TaskKind.OPENIE] + [EVAL_FORMATS[TaskKind.OPENIE]]}


def test_openie_gold_without_an_object_is_valid():
    gold = Extraction(TaskKind.OPENIE, (("met", "Alice", None, None, None),))
    assert validate_instance(IEInstance("i", "d", TaskKind.OPENIE, "Alice met.", None, gold, False)) == []


@pytest.mark.parametrize("name,expected", [
    ("eval-openie", "[Answer]: (met; Alice)"),
    ("openie-nl", 'The predicate "met" connects "Alice".'),
    ("openie-json", '{"task": "OpenIE", "items": [{"predicate": "met", "subject": "Alice"}]}'),
])
def test_openie_render_without_an_object(name, expected):
    """The object drops with time and location, leaving no dangling literal
    or key."""
    gold = Extraction(TaskKind.OPENIE, (("met", "Alice", None, None, None),))
    spec = _OPENIE_SPECS[name]
    assert serialize_answer(gold, spec) == expected


@pytest.mark.parametrize("present", [(o, t, l) for o in (0, 1) for t in (0, 1) for l in (0, 1)],
                         ids=lambda p: "".join("otl"[i] if x else "-" for i, x in enumerate(p)))
@pytest.mark.parametrize("name", list(_OPENIE_SPECS))
def test_openie_optional_slots_round_trip(present, name):
    """Every mix of absent object, time and location round-trips."""
    optional = tuple(v if keep else None for v, keep in zip(("Bob", "today", "Paris"), present))
    gold = Extraction(TaskKind.OPENIE, (("met", "Alice") + optional, ("left", "Carol") + optional))
    spec = _OPENIE_SPECS[name]
    text = serialize_answer(gold, spec)
    result = parse_answer_lenient(text, spec)
    assert (result.extraction.items, result.diagnostics) == (gold.items, []), text


_OPTIONAL_VALUES = st.none() | st.just("") | _TEXT


@given(st.tuples(_TEXT.filter(bool), _TEXT.filter(bool), _OPTIONAL_VALUES, _OPTIONAL_VALUES, _OPTIONAL_VALUES))
@settings(max_examples=150, deadline=None)
def test_openie_item_reads_the_same_under_every_format(values):
    """An OpenIE item whose object, time and location are each present,
    absent or empty, rendered under each OpenIE format, parses to one item:
    an empty optional slot is absent whatever the format."""
    gold = Extraction(TaskKind.OPENIE, (values,))
    expected = values[:2] + tuple(v or None for v in values[2:])
    for name, spec in _OPENIE_SPECS.items():
        text = serialize_answer(gold, spec)
        result = parse_answer_lenient(text, spec)
        assert (result.extraction.items, result.diagnostics) == ((expected,), []), (name, text)


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


@pytest.mark.parametrize("item", [("a", None), ("met", None, "Bob", None, None), ("t", "e", ((None, "r"),))],
                         ids=["ner", "openie", "ee-argument"])
def test_serialize_required_slot_none_raises_under_every_format(item):
    gold = Extraction({2: TaskKind.NER, 5: TaskKind.OPENIE, 3: TaskKind.EE}[len(item)], (item,))
    for spec in LIBRARY[gold.task]:
        with pytest.raises(SerializationError, match="missing slot value"):
            serialize_answer(gold, spec)


def test_ondemand_table_passthrough():
    spec = LIBRARY[TaskKind.ONDEMANDIE][0]
    gold = Extraction(TaskKind.ONDEMANDIE, table="| a |\n| --- |\n| 1 |")
    assert serialize_answer(gold, spec) == gold.table
    parsed = parse_answer_lenient(gold.table, spec)
    assert parsed.extraction.table == gold.table


# ---------------------------------------------------------------------------
# Shuffling


def test_triplet_shuffle_deterministic_and_seeded():
    gold = Extraction(TaskKind.NER, tuple((f"e{i}", "person") for i in range(6)))
    spec = EVAL_FORMATS[TaskKind.NER]
    a1 = serialize_answer(gold, spec, seed=random.Random(7))
    a2 = serialize_answer(gold, spec, seed=random.Random(7))
    assert a1 == a2
    outputs = {serialize_answer(gold, spec, seed=random.Random(s)) for s in range(10)}
    assert len(outputs) > 1  # different seeds produce different orders
    assert serialize_answer(gold, spec, seed=None) == serialize_answer(gold, spec, seed=None)


# ---------------------------------------------------------------------------
# Lenient parsing


def test_lenient_recovers_prefix_and_reports_garbage():
    spec = EVAL_FORMATS[TaskKind.NER]
    result = parse_answer_lenient("[Answer]: Paris: location; and some trailing prose", spec)
    assert ("Paris", "location") in result.extraction.items
    assert result.diagnostics


def test_lenient_template_without_a_task_slot_reads_it_as_none():
    """A format read from a record may lack a slot of its task; lenient
    parsing reads that slot as None and never raises."""
    spec = FormatSpec(family="Triplet", name="entity-only", task=TaskKind.NER, input_template="",
                      answer_template="{entity};")
    result = parse_answer_lenient("Paris;", spec)
    assert result.extraction.items == (("Paris", None),)
    assert result.diagnostics == []


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


_NER_JSON = next(s for s in LIBRARY[TaskKind.NER] if s.family == "Json")
_EE_JSON = next(s for s in LIBRARY[TaskKind.EE] if s.family == "Json")
_EAE_JSON = next(s for s in LIBRARY[TaskKind.EAE] if s.family == "Json")


@pytest.mark.parametrize("spec,payload,items,trigger,kinds", [
    (_NER_JSON, {"items": 5}, (), None, [DiagnosticKind.BAD_JSON]),
    (_NER_JSON, {"items": None}, (), None, [DiagnosticKind.BAD_JSON]),
    (_NER_JSON, {"items": {"entity": "a", "type": "x"}}, (), None, [DiagnosticKind.BAD_JSON]),
    (_NER_JSON, {"items": [{"entity": ["a"], "type": "x"}, {"entity": "b", "type": "y"}]}, (("b", "y"),), None,
     [DiagnosticKind.BAD_ITEM]),
    (_NER_JSON, {"items": [{"entity": "a", "type": {"k": "v"}}]}, (), None, [DiagnosticKind.BAD_ITEM]),
    (_NER_JSON, {"items": [{"entity": 3, "type": "x"}, {"entity": "a", "type": True}]}, (), None,
     [DiagnosticKind.BAD_ITEM] * 2),
    (_NER_JSON, {"items": [{"entity": None, "type": "x"}]}, (), None, [DiagnosticKind.BAD_ITEM]),
    (_EE_JSON, {"items": [{"trigger": "t", "type": "e", "arguments": [{"word": 1, "role": "r"}]}]}, (), None,
     [DiagnosticKind.BAD_ITEM]),
    (_EE_JSON, {"items": [{"trigger": "t", "type": "e", "arguments": [{"word": "w", "role": ["r"]}]}]}, (), None,
     [DiagnosticKind.BAD_ITEM]),
    (_EE_JSON, {"items": [{"trigger": ["t"], "type": "e"}]}, (), None, [DiagnosticKind.BAD_ITEM]),
    (_EE_JSON, {"items": [{"trigger": "t", "type": "e", "arguments": ""}]}, (), None, [DiagnosticKind.BAD_ITEM]),
    (_EE_JSON, {"items": [{"trigger": "t", "type": "e", "arguments": {}}]}, (), None, [DiagnosticKind.BAD_ITEM]),
    (_EE_JSON, {"items": [{"trigger": "t", "type": "e", "arguments": None}]}, (), None, [DiagnosticKind.BAD_ITEM]),
    (_EE_JSON, {"items": [{"trigger": "t", "type": "e", "arguments": [{"word": "w", "role": "r"}]}]},
     (("t", "e", (("w", "r"),)),), None, []),
    (_EAE_JSON, {"trigger": ["a"], "items": [{"word": "w", "role": "r"}]}, (("w", "r"),), None, []),
    (_EAE_JSON, {"trigger": 3, "items": []}, (), None, []),
    (_EAE_JSON, {"trigger": "fired", "items": 5}, (), "fired", [DiagnosticKind.BAD_JSON]),
], ids=["items-int", "items-null", "items-object", "slot-list", "slot-object", "slot-number-and-bool",
        "slot-null", "ee-word-int", "ee-role-list", "ee-trigger-list", "ee-arguments-empty-string",
        "ee-arguments-object", "ee-arguments-null", "ee-valid", "eae-trigger-list",
        "eae-trigger-int", "eae-trigger-kept-items-bad"])
def test_lenient_json_value_that_is_not_a_string_is_a_diagnostic(spec, payload, items, trigger, kinds):
    """A Json answer whose `items` is not a list, or whose slot value is not
    a string, parses with a diagnostic; an EAE trigger that is not a string
    is absent."""
    text = json.dumps({"task": spec.task.value, **payload})
    result = parse_answer_lenient(text, spec)
    assert result.extraction.items == items
    assert result.extraction.trigger == trigger
    assert [d.kind for d in result.diagnostics] == kinds


@pytest.mark.parametrize("text,message", [
    ('{"items": ' + "[" * 100_000 + "]" * 100_000 + "}", "malformed JSON: maximum recursion depth exceeded"),
    ("[" * 100_000 + "]" * 100_000, "no JSON object found"),
], ids=["object", "bare"])
def test_lenient_json_nested_too_deep_is_bad_json(text, message):
    result = parse_answer_lenient(text, _NER_JSON)
    assert result.extraction.items == ()
    assert [d.kind for d in result.diagnostics] == [DiagnosticKind.BAD_JSON]
    assert result.diagnostics[0].message.startswith(message)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=4), inner, max_size=2),
    max_leaves=3,
)


_SLOT_VALUES = st.text(max_size=6) | _JSON_VALUES


def _json_object(slots):
    """A JSON object on `slots`, with every slot or with any of them left
    out. A slot holds a string or any other JSON value; EE `arguments` holds
    a list of such argument objects or any other JSON value."""
    values = {slot: _ARGUMENTS if slot == "arguments" else _SLOT_VALUES for slot in slots}
    return st.fixed_dictionaries(values) | st.fixed_dictionaries({}, optional=values)


_ARGUMENTS = st.lists(_json_object(EE_ARG_SLOTS) | _JSON_VALUES, max_size=3) | _JSON_VALUES


@st.composite
def _answer_texts(draw, spec):
    """Text in the shape of a Json answer of `spec`'s task, with any JSON
    value at every slot and as `items`, bare or inside arbitrary text, or
    arbitrary text; either one bare or after the answer prefix."""
    item = _json_object(TASK_SLOTS.get(spec.task, ()))
    items = st.lists(item | _JSON_VALUES, max_size=4) | _JSON_VALUES
    payload = draw(st.fixed_dictionaries({"task": st.just(spec.task.value), "items": items},
                                         optional={"trigger": _SLOT_VALUES}))
    body = json.dumps(payload)
    around = st.text(max_size=12)
    text = draw(st.one_of(st.just(body), st.tuples(around, st.just(body), around).map("".join), st.text(max_size=40)))
    return draw(st.sampled_from(["", spec.answer_prefix])) + text


@pytest.mark.parametrize("spec", [s for specs in LIBRARY.values() for s in specs] + list(EVAL_FORMATS.values()),
                         ids=lambda s: s.name)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_parsing_any_answer_text_never_raises_but_strict_parse_errors(spec, data):
    """Lenient parsing returns string items (an absent optional slot is
    None) and a string or absent trigger for any text; strict parsing raises
    nothing but ParseError."""
    text = data.draw(_answer_texts(spec), label="text")
    trigger = data.draw(st.none() | st.text(max_size=6), label="trigger")
    extraction = parse_answer_lenient(text, spec, trigger=trigger).extraction
    for item in extraction.items:
        values = [*item[:2], *(v for arg in item[2] for v in arg)] if spec.task is TaskKind.EE else item
        assert all(v is None or isinstance(v, str) for v in values), item
    assert extraction.trigger is None or isinstance(extraction.trigger, str)
    try:
        parse_answer(text, spec, trigger=trigger)
    except ParseError:
        pass


# ---------------------------------------------------------------------------
# Markdown tables


def test_parse_markdown_table():
    text = "| name | date |\n| --- | --- |\n| a | 1 |\n| b | 2 |"
    headers, rows = parse_markdown_table(text)
    assert headers == ["name", "date"]
    assert rows == [["a", "1"], ["b", "2"]]


def test_parse_markdown_table_no_table():
    assert parse_markdown_table("no pipes here") == ([], [])
