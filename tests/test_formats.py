"""Template engine and format library tests: quoting, compilation, forced
(quote-wrapped) slots, the droppable tail, and spec validation."""

import hashlib
import json
import re
from dataclasses import replace
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iealign.formats import (
    _SLOT_UNIT,
    EVAL_FORMATS,
    check_format,
    compile_template,
    force_quote,
    load_format_library,
    normalize_slot,
    quote_value,
    spec_from_json,
    spec_to_json,
    unquote_value,
)
from iealign.model import TASK_SLOTS, FormatSpec, TaskKind


# ---------------------------------------------------------------------------
# Quoting


def test_quote_plain_value_unchanged():
    assert quote_value("plain words") == "plain words"


@pytest.mark.parametrize("value", ["a;b", "a:b", "(x)", 'in"ner', "a,b", "x.", "p|q", "[y]", "a\nb"])
def test_quote_structural_values(value):
    quoted = quote_value(value)
    assert quoted.startswith('"') and quoted.endswith('"')
    assert unquote_value(quoted) == value


def test_quote_preserves_surrounding_whitespace():
    assert unquote_value(quote_value(" padded ")) == " padded "


def test_unquote_leaves_partial_quotes_alone():
    # only a full single quoted literal is unquoted
    assert unquote_value('"a" x "b"') == '"a" x "b"'
    assert unquote_value("plain") == "plain"


def test_force_quote_always_quotes():
    assert force_quote("plain") == '"plain"'
    assert unquote_value(force_quote('say "hi"')) == 'say "hi"'


def test_quote_value_leaves_unquoted_exactly_what_the_plain_slot_unit_matches():
    """Rendering and parsing agree on every character: a value with `c`
    inside is rendered raw exactly when `c` alone is a plain unit of a slot
    pattern, so a raw value always parses back as one slot."""
    for c in [chr(i) for i in range(128)] + ["\u00e9", "\u00a0", "\u2028", "\u4e2d", "\U0001f600"]:
        value = "a" + c + "b"
        assert (quote_value(value) == value) == bool(re.fullmatch(_SLOT_UNIT, c)), repr(c)


@given(st.text(min_size=0, max_size=40))
@settings(max_examples=200, deadline=None)
def test_quote_roundtrip_property(value):
    assert unquote_value(quote_value(value)) == value
    assert unquote_value(force_quote(value)) == value


# ---------------------------------------------------------------------------
# Template compilation


def test_compile_template_parts_and_slots():
    tpl = compile_template("({subject}; {relation}; {object});", TaskKind.RC)
    assert tpl.slots == ("subject", "relation", "object")
    assert tpl.parts == ("(", "; ", "; ", ");")
    assert not tpl.forced


def test_normalize_slot_spaces():
    assert normalize_slot("first event") == "first_event"
    tpl = compile_template("({first event}; {second event})", TaskKind.ERE)
    assert tpl.slots == ("first_event", "second_event")


def test_render_parse_inverse():
    tpl = compile_template("{entity}: {type};", TaskKind.NER)
    text = tpl.render({"entity": "New York, NY", "type": "location"})
    assert text == '"New York, NY": location;'
    m = tpl.pattern.match(text)
    assert unquote_value(m.group("entity")) == "New York, NY"
    assert m.group("type") == "location"


def test_forced_slots_absorb_template_quotes():
    tpl = compile_template('The event "{event}" is a "{class}".', TaskKind.ED)
    assert tpl.forced == {"event", "class"}
    text = tpl.render({"event": "semi;colon", "class": "attack"})
    # exactly one layer of quotes even for structural values
    assert text == 'The event "semi;colon" is a "attack".'
    m = tpl.pattern.match(text)
    assert unquote_value(m.group("event")) == "semi;colon"


def test_forced_slot_with_inner_quotes():
    tpl = compile_template('x "{a}" y', TaskKind.NER)
    value = 'has "inner" quotes'
    text = tpl.render({"a": value})
    m = tpl.pattern.match(text)
    assert m is not None and m.end() == len(text)
    assert unquote_value(m.group("a")) == value


def test_template_ends_with_slot():
    tpl = compile_template("{word}: {role}", TaskKind.EAE)
    assert tpl.parts[-1] == ""
    text = tpl.render({"word": "w", "role": "agent"})
    assert text == "w: agent"


OPENIE_TEMPLATE = "({predicate}; {subject}; {object}; {time}; {location})"
OPENIE_SLOTS = TASK_SLOTS[TaskKind.OPENIE]


def test_droppable_tail_matches_two_to_five_slots():
    tpl = compile_template(OPENIE_TEMPLATE, TaskKind.OPENIE)
    for text, kept in [
        ("(met; bob; carol; noon; home)", 5),
        ("(met; bob; carol; noon)", 4),
        ("(met; bob; carol)", 3),
        ("(met; bob)", 2),
        ("(met; bob; carol; ; home)", 5),
    ]:
        m = tpl.pattern.fullmatch(text)
        assert m is not None, text
        groups = m.groupdict()
        # a dropped slot's group reads None; a kept one, even empty, a string
        assert [groups[slot] is not None for slot in OPENIE_SLOTS] == [True] * kept + [False] * (5 - kept), text


def test_droppable_tail_is_only_the_tail():
    tpl = compile_template(OPENIE_TEMPLATE, TaskKind.OPENIE)
    assert tpl.pattern.fullmatch("(met)") is None  # the subject is not droppable
    assert tpl.pattern.fullmatch("(; bob)") is None  # nor may a required slot match empty
    # location drops only with time: a lone fourth slot is time, never location
    m = tpl.pattern.fullmatch("(met; bob; carol; home)")
    assert m.group("time") == "home" and m.group("location") is None


def test_droppable_tail_is_the_trailing_optional_slots_by_name():
    """Only a template's trailing run of the task's optional slots may drop,
    however many slots it has and in whatever order."""
    triplet = compile_template("({subject}; {predicate}; {object})", TaskKind.OPENIE)
    assert triplet.droppable == 1
    assert triplet.pattern.fullmatch("(Alice)") is None  # the predicate is not droppable
    assert triplet.pattern.fullmatch("(Alice; met)").group("object") is None
    assert triplet.render({"subject": "Alice", "predicate": "met", "object": None}) == "(Alice; met)"
    object_first = compile_template("({object}; {subject}; {predicate})", TaskKind.OPENIE)
    assert object_first.droppable == 0
    assert object_first.pattern.fullmatch("(bob; met)") is None
    location_first = compile_template("({predicate}; {subject}; {location}; {object})", TaskKind.OPENIE)
    assert location_first.droppable == 2
    assert location_first.pattern.fullmatch("(met; bob)").groupdict() == {
        "predicate": "met", "subject": "bob", "location": None, "object": None}


def test_render_leaves_out_trailing_none_slots_with_their_literals():
    tpl = compile_template(OPENIE_TEMPLATE, TaskKind.OPENIE)
    values = dict(zip(OPENIE_SLOTS, ("met", "bob", "carol", "noon", "home")))
    assert tpl.render(values) == "(met; bob; carol; noon; home)"
    assert tpl.render({**values, "location": None}) == "(met; bob; carol; noon)"
    assert tpl.render({**values, "time": None, "location": None}) == "(met; bob; carol)"
    assert tpl.render({**values, "object": None, "time": None, "location": None}) == "(met; bob)"
    # an absent slot before a present one renders empty in its place
    assert tpl.render({**values, "time": None}) == "(met; bob; carol; ; home)"
    assert tpl.render({**values, "object": None, "time": None}) == "(met; bob; ; ; home)"


def test_droppable_tail_preserves_forced_quotes():
    template = '"{predicate}" links "{subject}" to "{object}" at "{time}" in "{location}"'
    tpl = compile_template(template, TaskKind.OPENIE)
    assert tpl.forced == set(OPENIE_SLOTS)
    values = dict(zip(OPENIE_SLOTS, ("met", "bob", "carol", "noon", "home")))
    assert tpl.render({**values, "location": None}) == '"met" links "bob" to "carol" at "noon"'
    assert tpl.render({**values, "time": None, "location": None}) == '"met" links "bob" to "carol"'
    assert tpl.render({**values, "object": None, "time": None, "location": None}) == '"met" links "bob"'
    m = tpl.pattern.fullmatch('"met" links "a; b" to "carol" at "noon"')
    assert unquote_value(m.group("subject")) == "a; b"
    assert m.group("time") == '"noon"' and m.group("location") is None
    m = tpl.pattern.fullmatch('"met" links "a; b"')
    assert m.group("object") is None


def test_compile_template_rejects_a_slot_named_twice():
    with pytest.raises(ValueError, match="names slot 'entity' twice"):
        compile_template("{entity}: {entity};", TaskKind.NER)
    with pytest.raises(ValueError, match="names slot 'first_event' twice"):
        compile_template("({first event}; {first_event})", TaskKind.ERE)


# ---------------------------------------------------------------------------
# Spec library


def test_load_format_library_all_tasks_covered():
    lib = load_format_library()
    assert set(lib) == set(TaskKind)
    for task, specs in lib.items():
        if task is TaskKind.ONDEMANDIE:
            continue
        families = {s.family for s in specs}
        assert {"Triplet", "Json", "NaturalLanguage"} <= families, task
    for spec in chain.from_iterable(lib.values()):  # OnDemandIE's too
        assert check_format(spec) is spec


def test_spec_json_roundtrip():
    for spec in EVAL_FORMATS.values():
        assert spec_from_json(spec_to_json(spec)) == spec
    ondemand = load_format_library()[TaskKind.ONDEMANDIE][0]
    assert spec_from_json(spec_to_json(ondemand)) == ondemand


def test_eval_formats_cover_fixed_grammar_tasks():
    assert set(EVAL_FORMATS) == {
        TaskKind.NER, TaskKind.RC, TaskKind.ED, TaskKind.EAE, TaskKind.ERE, TaskKind.OPENIE,
    }
    for spec in EVAL_FORMATS.values():
        assert spec.answer_prefix == "[Answer]: "
        assert spec.fail_output == "NA"
        assert check_format(spec) is spec


def test_eval_formats_hold_the_pinned_bytes():
    """Every field of the six evaluation formats, the prompts among them:
    no other digest covers five of the six `input_template`s."""
    text = json.dumps([spec_to_json(s) for s in EVAL_FORMATS.values()], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == "cc9e84971d028f28371e356b5e2ac431c75b1717da96eb417ce5a99b3e6cc86e"


def test_check_format_names_an_unknown_slot():
    bad = spec_from_json(
        {
            "family": "Triplet",
            "name": "bad",
            "task": "NER",
            "input_template": "x",
            "answer_template": "{entity}: {nonsense};",
        }
    )
    with pytest.raises(ValueError, match="answer_template: unknown slots \\['nonsense'\\]"):
        check_format(bad)


def test_check_format_names_every_problem():
    ee = spec_from_json({"family": "Yaml", "name": "ee", "task": "EE", "input_template": "x",
                         "answer_template": "{trigger} {type} {arguments}", "fail_output": ""})
    with pytest.raises(ValueError) as info:
        check_format(ee)
    assert all(p in str(info.value) for p in ("family: unknown 'Yaml'", "fail_output: empty"))
    nl = replace(ee, family="NaturalLanguage", fail_output="NA", answer_template="{type} {type} {arguments}")
    with pytest.raises(ValueError) as info:
        check_format(nl)
    assert all(p in str(info.value) for p in ("arg_template: required for EE", "names slot 'type' twice"))
    with pytest.raises(ValueError, match="arg_template: unknown slots \\['kind'\\]"):
        check_format(replace(nl, answer_template="{trigger} {type} {arguments}", arg_template="{word} {kind}"))


def test_check_format_names_a_required_slot_the_template_leaves_out():
    """A template without a required slot renders answers that lose it, so
    gold would not parse back to itself; OpenIE's optional tail may go."""
    ner = FormatSpec("Triplet", "ner", TaskKind.NER, "x", "{entity};")
    with pytest.raises(ValueError, match=r"answer_template: missing slots \['type'\]"):
        check_format(ner)
    ee = FormatSpec("NaturalLanguage", "ee", TaskKind.EE, "x", "{trigger} is {type}: {arguments}",
                    arg_template="{word}")
    with pytest.raises(ValueError, match=r"arg_template: missing slots \['role'\]"):
        check_format(ee)
    openie = FormatSpec("Triplet", "openie", TaskKind.OPENIE, "x", "({predicate}; {subject});")
    assert check_format(openie) is openie
    with pytest.raises(ValueError, match=r"missing slots \['subject'\]"):
        check_format(replace(openie, answer_template="({predicate}; {object});"))


def test_compile_template_normalizes_slot_names():
    assert compile_template("({a}; {b c})", TaskKind.NER).slots == ("a", "b_c")
