"""Prompt assembly tests: description pools, schema augmentation (subset,
shuffle, guidelines, symbolization), demonstrations, and the fixed layout."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iealign.formats import EVAL_FORMATS, load_format_library
from iealign.model import TaskKind
from iealign.prompts import (
    AssemblyError,
    SchemaView,
    assemble_input,
    attach_demonstrations,
    augment_schema,
    load_description_pool,
    render_schema_section,
)
from iealign.synth import make_corpus, make_instance, make_schema

LIBRARY = load_format_library()


# ---------------------------------------------------------------------------
# Description pools


def test_every_task_has_packaged_formats_and_descriptions():
    """Every task builds from the package alone: it has a format spec and a
    non-empty description pool without a pool_dir."""
    for task in TaskKind:
        assert LIBRARY[task], task
        assert load_description_pool(task, None), task


@pytest.mark.parametrize("task", list(TaskKind))
def test_packaged_pools_have_ten_manual_descriptions(task):
    pool = load_description_pool(task, None)
    assert len(pool) == 10
    assert all(d.strip() for d in pool)


def test_pool_dir_generated_extends_pool(tmp_path):
    d = tmp_path / "NER"
    d.mkdir()
    (d / "generated.txt").write_text("extra one\nextra two\n", encoding="utf-8")
    pool = load_description_pool(TaskKind.NER, str(tmp_path))
    assert pool == load_description_pool(TaskKind.NER, None) + ("extra one", "extra two")
    assert len(pool) == 12


def test_pool_dir_manual_replaces_packaged_descriptions(tmp_path):
    d = tmp_path / "NER"
    d.mkdir()
    (d / "manual.txt").write_text("mine one\n\n  mine two  \n", encoding="utf-8")
    (d / "generated.txt").write_text("extra one\n", encoding="utf-8")
    pool = load_description_pool(TaskKind.NER, str(tmp_path))
    assert pool == ("mine one", "mine two", "extra one")


def test_pool_dir_extends_the_packaged_ondemand_pool(tmp_path):
    """An empty pool_dir manual.txt keeps the packaged OnDemandIE
    descriptions, and pool_dir's generated.txt follows them."""
    packaged = load_description_pool(TaskKind.ONDEMANDIE, None)
    (tmp_path / "OnDemandIE").mkdir()
    (tmp_path / "OnDemandIE" / "manual.txt").write_text("\n  \n", encoding="utf-8")
    (tmp_path / "OnDemandIE" / "generated.txt").write_text("Answer with a table.\n", encoding="utf-8")
    assert load_description_pool(TaskKind.ONDEMANDIE, str(tmp_path)) == packaged + ("Answer with a table.",)


# ---------------------------------------------------------------------------
# Schema augmentation


def test_augment_subset_size_in_range():
    schema = make_schema(TaskKind.NER)
    inst = make_instance(TaskKind.NER, "d", 0, random.Random(0), schema)
    sizes = set()
    for seed in range(200):
        view, _ = augment_schema(schema, inst.gold, guideline_rate=0.2, symbol_rate=0.1, rng=random.Random(seed))
        sizes.add(len(view.labels))
    assert sizes == set(range(1, len(schema.labels) + 1))


def test_augment_restricts_gold_to_view():
    schema = make_schema(TaskKind.NER)
    inst = make_instance(TaskKind.NER, "d", 1, random.Random(1), schema)
    for seed in range(50):
        view, gold = augment_schema(schema, inst.gold, guideline_rate=0.2, symbol_rate=0.1, rng=random.Random(seed))
        allowed = set(view.label_names())
        assert all(lab in allowed for lab in gold.labels_used())


def test_symbolization_is_bijective_and_reversible():
    schema = make_schema(TaskKind.RE)
    inst = make_instance(TaskKind.RE, "d", 2, random.Random(2), schema)
    view, gold = augment_schema(schema, inst.gold, guideline_rate=0.2, symbol_rate=1.0, rng=random.Random(4))
    assert view.symbol_map is not None
    # bijective: distinct symbols, inverse restores original labels
    assert len(set(view.symbol_map.values())) == len(view.symbol_map)
    assert all(s.startswith("LABEL_") for s in view.symbol_map.values())
    restored = gold.project(set(gold.labels_used()), {v: k for k, v in view.symbol_map.items()})
    assert set(restored.labels_used()) <= set(view.symbol_map.keys())


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_symbol_map_bijection_property(seed):
    schema = make_schema(TaskKind.NER)
    inst = make_instance(TaskKind.NER, "d", 0, random.Random(seed), schema)
    view, _ = augment_schema(schema, inst.gold, guideline_rate=0.2, symbol_rate=1.0, rng=random.Random(seed))
    inv = {v: k for k, v in view.symbol_map.items()}
    assert {view.symbol_map[k] for k in view.symbol_map} == set(inv.keys())
    assert all(view.symbol_map[inv[s]] == s for s in inv)


def test_guideline_rate_flip():
    schema = make_schema(TaskKind.NER)
    inst = make_instance(TaskKind.NER, "d", 3, random.Random(3), schema)
    hits = sum(
        augment_schema(schema, inst.gold, guideline_rate=0.2, symbol_rate=0.1, rng=random.Random(s))[0].guidelines_included
        for s in range(2000)
    )
    assert 0.15 < hits / 2000 < 0.25


def test_render_schema_section_with_guidelines():
    schema = make_schema(TaskKind.NER)
    view = SchemaView(schema.labels[:2], guidelines_included=True)
    text = render_schema_section(view)
    assert text.startswith('The candidate categories are: "person", "organization".')
    assert '- "person":' in text
    plain = render_schema_section(SchemaView(schema.labels[:2]))
    assert "\n" not in plain


# ---------------------------------------------------------------------------
# Demonstrations


def test_demo_rate_and_k_range():
    corpus = make_corpus(TaskKind.NER, 40, seed=4)
    spec = EVAL_FORMATS[TaskKind.NER]
    with_demos = 0
    for seed in range(400):
        ex = attach_demonstrations(corpus[0].id, spec, None, "NA", corpus, demo_rate=0.5, k_range=(1, 8), rng=random.Random(seed))
        if ex.demonstrations:
            with_demos += 1
            assert 1 <= len(ex.demonstrations) <= 8
    assert 0.44 < with_demos / 400 < 0.56


def test_demos_exclude_self():
    corpus = make_corpus(TaskKind.NER, 10, seed=4)
    spec = EVAL_FORMATS[TaskKind.NER]
    target = corpus[0]
    for seed in range(100):
        ex = attach_demonstrations(
            target.id, spec, None, "NA", corpus, demo_rate=1.0, k_range=(1, 8), rng=random.Random(seed)
        )
        assert all(text != target.text for text, _ in ex.demonstrations)


def test_demo_pool_shortfall_clamps():
    corpus = make_corpus(TaskKind.NER, 3, seed=4)
    spec = EVAL_FORMATS[TaskKind.NER]
    ex = attach_demonstrations(
        corpus[0].id, spec, None, "NA", corpus, demo_rate=1.0, k_range=(8, 8), rng=random.Random(1)
    )
    assert len(ex.demonstrations) == 2


def test_demo_answers_follow_example_format():
    corpus = make_corpus(TaskKind.NER, 10, seed=5)
    spec = EVAL_FORMATS[TaskKind.NER]
    ex = attach_demonstrations(
        corpus[0].id, spec, None, "NA", corpus, demo_rate=1.0, k_range=(1, 8), rng=random.Random(0)
    )
    from iealign.answers import parse_answer

    for _, answer in ex.demonstrations:
        parse_answer(answer, spec)  # must be well-formed under the same spec


# ---------------------------------------------------------------------------
# Prompt layout


def test_assemble_fixed_section_order():
    schema = make_schema(TaskKind.NER)
    inst = make_instance(TaskKind.NER, "d", 0, random.Random(0), schema)
    view = SchemaView(schema.labels)
    spec = EVAL_FORMATS[TaskKind.NER]
    prompt = assemble_input(inst, view, "Find the entities.", spec, demos=[("demo text", "NA")])
    desc_pos = prompt.index("Find the entities.")
    schema_pos = prompt.index("The candidate categories")
    fmt_pos = prompt.index(spec.input_template)
    demo_pos = prompt.index("Example 1:")
    text_pos = prompt.rindex(f"Text: {inst.text}")
    assert desc_pos < schema_pos < fmt_pos < demo_pos < text_pos


def test_assemble_inlines_text_placeholder():
    inst = make_instance(TaskKind.OPENIE, "d", 0, random.Random(0))
    spec = EVAL_FORMATS[TaskKind.OPENIE]
    prompt = assemble_input(inst, None, f"Extract tuples from: {{text}}", spec)
    assert inst.text in prompt
    assert prompt.count(inst.text) == 1  # no trailing Text: section


def test_assemble_closed_ie_requires_view():
    schema = make_schema(TaskKind.NER)
    inst = make_instance(TaskKind.NER, "d", 0, random.Random(0), schema)
    with pytest.raises(AssemblyError):
        assemble_input(inst, None, "desc", EVAL_FORMATS[TaskKind.NER])


def test_assemble_eae_includes_trigger():
    schema = make_schema(TaskKind.EAE)
    inst = make_instance(TaskKind.EAE, "d", 0, random.Random(0), schema)
    prompt = assemble_input(inst, SchemaView(schema.labels), "desc", EVAL_FORMATS[TaskKind.EAE])
    assert f'The event trigger is "{inst.gold.trigger}".' in prompt


def test_assemble_ondemand_skips_format_section():
    spec = LIBRARY[TaskKind.ONDEMANDIE][0]
    inst = make_instance(TaskKind.ONDEMANDIE, "d", 0, random.Random(0))
    prompt = assemble_input(inst, None, "Build the table.", spec)
    assert spec.input_template not in prompt
