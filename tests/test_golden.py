"""Golden digests: the exact bytes of `sft.jsonl`, `dpo.jsonl` and the
evaluate report for one small fixed config, and the parsed items and
diagnostics of a fixed set of mutated answers.

A change that means to keep the output bytes must leave these digests as
they are. A change that alters the bytes on purpose updates a digest here and
says in CHANGES.md why the bytes changed.
"""

import hashlib
import random

from iealign.answers import parse_answer_lenient, serialize_answer
from iealign.cli import _write_json
from iealign.client import MockClient
from iealign.formats import EVAL_FORMATS, load_format_library
from iealign.model import CLOSED_IE_TASKS, Extraction, TaskKind
from iealign.pipeline import SftOptions, eval_format_for, evaluate, run_build_dpo, run_build_sft
from iealign.prefpairs import DpoPlan
from iealign.synth import make_corpus, make_extraction, make_schema

# The tasks SFT_DIGEST was pinned over: every task but OnDemandIE.
SFT_TASKS = tuple(t for t in TaskKind if t is not TaskKind.ONDEMANDIE)
EVAL_TASKS = tuple(sorted(CLOSED_IE_TASKS, key=lambda t: t.value)) + (TaskKind.OPENIE,)

SFT_DIGEST = "625c7ab4fa5619606c55279bf5abe229ead7df430a9199fb60bf66564fa68019"
DPO_DIGEST = "46559693dceb57d6709b7b47859d1c0a367d4b7b753aa58d6207fd5716ef8e85"
EVALUATE_DIGEST = "44bc6f65007acbd6242eb1b1e342940c9e3eea1f4f1f946e58655bc8b1658b40"
PARSE_DIGEST = "5fa3852beb8a3a57c73d439ecceb15b4faa2968d7956c4ef9c8a30e579d63c1a"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_sft_jsonl_digest(tmp_path):
    instances = []
    for k, task in enumerate(SFT_TASKS):
        instances += make_corpus(task, 40, dataset=f"ds{k}", seed=k, na_rate=0.2)
    # cot_rate and cot_per_task are set so that CoT is capped on some tasks;
    # the default rates already give symbols, guidelines and demonstrations.
    opts = SftOptions(seed=11, cot_rate=0.5, cot_per_task=5)
    client = MockClient(policy="fixed:Each item is stated in the text, so it is extracted.")
    manifest = run_build_sft(instances, opts, tmp_path, client=client)
    counts = manifest["counts"]
    assert counts["total"] == 320
    assert counts["cot_count"] == 5 * len(SFT_TASKS)
    assert 0 < counts["symbol_rate"] and 0 < counts["guideline_rate"] and 0 < counts["demo_rate"]
    assert _sha256(tmp_path / "sft.jsonl") == SFT_DIGEST


def test_dpo_jsonl_digest(tmp_path):
    instances = make_corpus(TaskKind.NER, 60, dataset="d", seed=6)
    plan = DpoPlan(target_size=40, seed=6)
    manifest = run_build_dpo(instances, plan, MockClient(policy="noisy_gold:0.6", seed=6), tmp_path)
    assert manifest["counts"]["total"] > 0
    assert _sha256(tmp_path / "dpo.jsonl") == DPO_DIGEST


def test_evaluate_report_digest(tmp_path):
    """Exact, perturbed, truncated, junk, duplicated and missing predictions,
    so the report holds every kind of per-instance note."""
    golds = []
    for k, task in enumerate(EVAL_TASKS):
        golds += make_corpus(task, 12, dataset=f"g{k}", seed=k, na_rate=0.1)
    rng = random.Random(5)
    preds = {}
    for i, inst in enumerate(golds):
        spec = eval_format_for(inst.task)
        exact = serialize_answer(inst.gold, spec, seed=None)
        kind = i % 5
        if kind == 0:
            preds[inst.id] = exact
        elif kind == 1:  # a random part of the gold items plus one or two new ones
            items = list(inst.gold.items)
            rng.shuffle(items)
            extra = make_extraction(inst.task, rng, inst.schema, allow_empty=False, max_items=2)
            items = items[: rng.randint(0, len(items))] + [it for it in extra.items if it not in items]
            preds[inst.id] = serialize_answer(Extraction(inst.task, tuple(items), trigger=inst.gold.trigger), spec)
        elif kind == 2:  # cut short, so parsing stops at a non-zero offset
            preds[inst.id] = exact[: max(1, len(exact) - 3)]
        elif kind == 3:
            preds[inst.id] = rng.choice(["[Answer]: (((((", "<<garbled>> ;;; ::", "no answer here"])
        elif inst.gold.items and i % 2:  # every gold item, the first one twice
            items = inst.gold.items + inst.gold.items[:1]
            preds[inst.id] = serialize_answer(Extraction(inst.task, items, trigger=inst.gold.trigger), spec)
    report = evaluate(preds, golds)
    assert report["parse_failures"] > 0 and report["tp"] > 0
    _write_json(report, str(tmp_path / "evaluate.json"))
    assert _sha256(tmp_path / "evaluate.json") == EVALUATE_DIGEST


# Characters a mutation inserts or substitutes: template punctuation, quotes,
# escapes and whitespace, plus two plain letters.
_MUTATION_CHARS = '();:,."\\ |[]{}\naZ'


def _parse_cases():
    """About 30 seeded serializations per packaged and evaluation spec (not
    Markdown), each mutated at one position, plus seeded junk."""
    rng = random.Random(2024)
    specs = [s for group in load_format_library().values() for s in group if s.family != "Markdown"]
    for spec in specs + list(EVAL_FORMATS.values()):
        schema = make_schema(spec.task)
        for _ in range(30):
            gold = make_extraction(spec.task, rng, schema)
            text = serialize_answer(gold, spec, seed=random.Random(rng.randrange(100)))
            pos = rng.randrange(len(text) + 1)
            op = rng.randrange(3)
            if op == 0:  # delete
                text = text[:pos] + text[pos + 1:]
            elif op == 1:  # insert
                text = text[:pos] + rng.choice(_MUTATION_CHARS) + text[pos:]
            else:  # substitute
                text = text[:pos] + rng.choice(_MUTATION_CHARS) + text[pos + 1:]
            yield spec, text
        for _ in range(3):
            yield spec, "".join(rng.choice(_MUTATION_CHARS) for _ in range(rng.randrange(30)))


def test_parse_lenient_digest():
    """Items and diagnostics (kind, offset, message, in order) of every case."""
    results = []
    for spec, text in _parse_cases():
        r = parse_answer_lenient(text, spec)
        diagnostics = [(d.kind.value, d.offset, d.message) for d in r.diagnostics]
        results.append((spec.name, text, r.extraction.items, diagnostics))
    assert len(results) > 1000
    assert hashlib.sha256(repr(results).encode("utf-8")).hexdigest() == PARSE_DIGEST
