"""Template engine and format library tests: quoting, compilation, forced
(quote-wrapped) slots, truncation variants, and spec validation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iealign.formats import (
    EVAL_FORMATS,
    compile_template,
    compile_truncations,
    force_quote,
    load_format_library,
    normalize_slot,
    quote_value,
    spec_from_json,
    spec_to_json,
    template_slots,
    unquote_value,
    validate_spec,
)
from iealign.model import TaskKind


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


@given(st.text(min_size=0, max_size=40))
@settings(max_examples=200, deadline=None)
def test_quote_roundtrip_property(value):
    assert unquote_value(quote_value(value)) == value
    assert unquote_value(force_quote(value)) == value


# ---------------------------------------------------------------------------
# Template compilation


def test_compile_template_parts_and_slots():
    tpl = compile_template("({subject}; {relation}; {object});", set())
    assert tpl.slots == ("subject", "relation", "object")
    assert tpl.parts == ("(", "; ", "; ", ");")
    assert not tpl.forced


def test_normalize_slot_spaces():
    assert normalize_slot("first event") == "first_event"
    tpl = compile_template("({first event}; {second event})", set())
    assert tpl.slots == ("first_event", "second_event")


def test_render_parse_inverse():
    tpl = compile_template("{entity}: {type};", set())
    text = tpl.render({"entity": "New York, NY", "type": "location"})
    assert text == '"New York, NY": location;'
    m = tpl.pattern.match(text)
    assert unquote_value(m.group("entity")) == "New York, NY"
    assert m.group("type") == "location"


def test_forced_slots_absorb_template_quotes():
    tpl = compile_template('The event "{event}" is a "{class}".', set())
    assert tpl.forced == {"event", "class"}
    text = tpl.render({"event": "semi;colon", "class": "attack"})
    # exactly one layer of quotes even for structural values
    assert text == 'The event "semi;colon" is a "attack".'
    m = tpl.pattern.match(text)
    assert unquote_value(m.group("event")) == "semi;colon"


def test_forced_slot_with_inner_quotes():
    tpl = compile_template('x "{a}" y', set())
    value = 'has "inner" quotes'
    text = tpl.render({"a": value})
    m = tpl.pattern.match(text)
    assert m is not None and m.end() == len(text)
    assert unquote_value(m.group("a")) == value


def test_template_ends_with_slot():
    tpl = compile_template("{word}: {role}", set())
    assert tpl.parts[-1] == ""
    text = tpl.render({"word": "w", "role": "agent"})
    assert text == "w: agent"


def test_truncation_variants_longest_first():
    variants = compile_truncations("({predicate}; {subject}; {object}; {time}; {location})", 2)
    assert [len(v.slots) for v in variants] == [5, 4, 3]
    full = variants[0].pattern.match("(met; bob; carol; ; home)")
    assert full is not None
    short = variants[2].pattern.match("(met; bob; carol)")
    assert short is not None


def test_truncation_preserves_forced_quotes():
    variants = compile_truncations('"{predicate}" links "{subject}" to "{object}" at "{time}" in "{location}"', 2)
    assert all("predicate" in v.forced for v in variants)


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
        for spec in specs:
            assert validate_spec(spec) == []


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


def test_validate_spec_flags_unknown_slots():
    bad = spec_from_json(
        {
            "family": "Triplet",
            "name": "bad",
            "task": "NER",
            "input_template": "x",
            "answer_template": "{entity}: {nonsense};",
        }
    )
    problems = validate_spec(bad)
    assert any("unknown slots" in p for p in problems)


def test_template_slots_extraction():
    assert template_slots("({a}; {b c})") == ("a", "b_c")
