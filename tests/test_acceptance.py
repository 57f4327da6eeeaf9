"""Acceptance suite: nine end-to-end criteria covering corpus composition,
filtering, mixing, round-trip parsing, metric oracles, preference-pair
properties, determinism, evaluation sanity, and the schema-closure audit.

Each criterion prints one pass/fail line in the terminal summary (via
conftest) so the verdicts stay visible under pytest's output capture.
"""

import functools
import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from conftest import record_criterion
from test_metrics import BLEU_FIXTURE, bleu_oracle, rouge_oracle

from iealign.answers import parse_answer, serialize_answer
from iealign.client import MockClient
from iealign.formats import EVAL_FORMATS, load_format_library
from iealign.ingest import MixturePlan, ReaderSpec, filter_na, mix_general, mix_proportional
from iealign.metrics import (
    header_soft_f1,
    openie_tuple_f1,
    rouge_l_f1,
    sentence_bleu_m3,
    tuple_pair_score,
)
from iealign.model import Extraction, IEInstance, TaskKind
from iealign.pipeline import (
    SftOptions,
    build_dpo,
    cot_eligible,
    evaluate,
    run_build_dpo,
    run_build_sft,
    stats,
)
from iealign.prefpairs import DpoPlan
from iealign.synth import make_corpus, make_extraction, make_schema


def criterion(number: int, title: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} ({title}): FAIL")
                record_criterion(number, title, "FAIL")
                raise
            print(f"criterion {number} ({title}): PASS")
            record_criterion(number, title, "PASS")

        return wrapper

    return deco


def chi2_sf(x: float, df: int) -> float:
    """Survival function of the chi-square distribution via the regularized
    upper incomplete gamma function Q(df/2, x/2)."""
    a, x = df / 2.0, x / 2.0
    if x <= 0:
        return 1.0
    if x < a + 1:
        # lower series for P(a, x), then Q = 1 - P
        ap, term = a, 1.0 / a
        total = term
        for _ in range(500):
            ap += 1
            term *= x / ap
            total += term
            if abs(term) < abs(total) * 1e-14:
                break
        p = total * math.exp(-x + a * math.log(x) - math.lgamma(a))
        return 1.0 - p
    # continued fraction for Q(a, x)
    tiny = 1e-300
    b = x + 1 - a
    c = 1 / tiny
    d = 1 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - a)
        b += 2
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1 / d
        delta = d * c
        h *= delta
        if abs(delta - 1) < 1e-14:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


# ---------------------------------------------------------------------------
# Shared 20,000-instance fixture (criteria 1 and 9)

FIXTURE_TASKS = (TaskKind.NER, TaskKind.RE, TaskKind.ED, TaskKind.EE)
SFT_OPTS = SftOptions(seed=11, cot_per_task=450, max_tokens=100_000)


@pytest.fixture(scope="module")
def big_sft():
    corpus = []
    for k, task in enumerate(FIXTURE_TASKS):
        corpus.extend(make_corpus(task, 5000, dataset=f"ds{k}", seed=100 + k, na_rate=0.0))
    assert len(corpus) == 20_000
    client = MockClient(policy="fixed:The text states each item explicitly, so they are extracted.")
    from iealign.pipeline import build_sft

    started = time.monotonic()
    records, report = build_sft(corpus, SFT_OPTS, client=client)
    records = list(records)
    elapsed = time.monotonic() - started
    return corpus, records, report, elapsed


@criterion(1, "composition rates, CoT capping, demo histogram, runtime")
def test_criterion_1_composition(big_sft):
    corpus, records, report, elapsed = big_sft
    assert len(records) == 20_000
    assert abs(report["demo_rate"] - 0.50) <= 0.02
    assert abs(report["guideline_rate"] - 0.20) <= 0.02

    # CoT: exactly min(cot_per_task, eligible) per task
    eligible = Counter()
    for inst in corpus:
        if cot_eligible(inst.id, inst.is_na, SFT_OPTS):
            eligible[inst.task.value] += 1
    cot_per_task = Counter(r["task"] for r in records if r["cot"])
    for task in FIXTURE_TASKS:
        assert cot_per_task[task.value] == min(SFT_OPTS.cot_per_task, eligible[task.value])

    # demo-count histogram uniform on 1..8 (chi-square, p > 0.01)
    hist = {int(k): v for k, v in report["demo_histogram"].items()}
    assert set(hist) == set(range(1, 9))
    n = sum(hist.values())
    expected = n / 8
    chi2 = sum((hist[k] - expected) ** 2 / expected for k in range(1, 9))
    assert chi2_sf(chi2, df=7) > 0.01

    assert elapsed < 60.0


@criterion(2, "NA filtering keeps all non-NA and 20% of NA")
def test_criterion_2_na_filter():
    non_na = [i for i in make_corpus(TaskKind.NER, 12_000, dataset="p", seed=21, na_rate=0.0)
              if not i.is_na][:10_000]
    na = make_corpus(TaskKind.RE, 10_000, dataset="q", seed=22, na_rate=1.0)
    assert len(non_na) == 10_000
    assert all(i.is_na for i in na) and len(na) == 10_000

    kept = filter_na(non_na + na, ReaderSpec("p", TaskKind.NER, "raw.jsonl", na_keep_rate=0.2, seed=7))
    kept_non_na = [i for i in kept if not i.is_na]
    kept_na = [i for i in kept if i.is_na]
    assert {i.id for i in kept_non_na} == {i.id for i in non_na}
    assert abs(len(kept_na) - 2000) <= 200  # 2,000 +/- 2% of the NA pool


@criterion(3, "proportional mixture cap and general-corpus IE rate")
def test_criterion_3_mixture():
    datasets = {
        "big": make_corpus(TaskKind.NER, 12_000, dataset="big", seed=31),
        "small": make_corpus(TaskKind.RE, 1200, dataset="small", seed=32),
        "mid": make_corpus(TaskKind.ED, 5000, dataset="mid", seed=33),
    }
    mixed, counts = mix_proportional(datasets, MixturePlan(dict.fromkeys(datasets, ""), cap=5000, seed=3))
    assert counts == {"big": 5000, "small": 1200, "mid": 5000}
    assert len(mixed) == 11_200

    general = [f"general-{i}" for i in range(60_000)]
    combined = mix_general(mixed, general, MixturePlan(dict.fromkeys(datasets, ""), ie_rate=0.2, seed=3))
    n_ie = sum(1 for x in combined if not isinstance(x, str))
    assert abs(n_ie / len(combined) - 0.2) <= 1.0 / len(combined)


@criterion(4, "serialize/parse round-trip and byte-exact grammar fixtures")
def test_criterion_4_roundtrip():
    library = load_format_library()
    families = {"Triplet", "Json", "NaturalLanguage"}
    for task, specs in library.items():
        schema = make_schema(task)
        rng = random.Random(40)
        for spec in specs:
            if spec.family not in families:
                continue
            for i in range(1000):
                gold = make_extraction(task, rng, schema)
                text = serialize_answer(gold, spec, seed=None)
                parsed = parse_answer(text, spec, trigger=gold.trigger)
                assert Counter(parsed.items) == Counter(gold.items), (spec.name, i)
                assert parsed.trigger == gold.trigger

    # evaluation-grammar fixtures, byte for byte
    fixtures = [
        (Extraction(TaskKind.NER, (("Steve Jobs", "person"), ("Apple", "organization"))),
         None, "[Answer]: Steve Jobs: person; Apple: organization;"),
        (Extraction(TaskKind.RC, (("Steve Jobs", "founded", "Apple"),)),
         None, "[Answer]: (Steve Jobs; founded; Apple);"),
        (Extraction(TaskKind.ED, (("resigned", "personnel"),)),
         None, "[Answer]: resigned: personnel;"),
        (Extraction(TaskKind.EAE, (("board", "agent"),), trigger="resigned"),
         "resigned", "[Answer]: board: agent;"),
        (Extraction(TaskKind.ERE, (("crash", "causes", "injury"),)),
         None, "[Answer]: (crash; causes; injury);"),
        (Extraction(TaskKind.OPENIE, (("met", "Alice", "Bob", "yesterday", "Paris"),
                                      ("left", "Carol", "the office", None, None))),
         None, "[Answer]: (met; Alice; Bob; yesterday; Paris) (left; Carol; the office)"),
    ]
    for gold, trigger, expected in fixtures:
        spec = EVAL_FORMATS[gold.task]
        text = serialize_answer(gold, spec, seed=None)
        assert text == expected
        parsed = parse_answer(text, spec, trigger=trigger)
        assert Counter(parsed.items) == Counter(gold.items)


def _tuple_match_oracle(pred, gold):
    """Brute-force optimal one-to-one tuple assignment by total slot F1."""
    if not pred or not gold:
        return 0.0
    n_pred, n_gold = len(pred), len(gold)
    if n_pred <= n_gold:
        return max(
            sum(tuple_pair_score(pred[i], gold[j]) for i, j in enumerate(perm))
            for perm in itertools.permutations(range(n_gold), n_pred)
        )
    return max(
        sum(tuple_pair_score(pred[perm[j]], gold[j]) for j in range(n_gold))
        for perm in itertools.permutations(range(n_pred), n_gold)
    )


def _header_match_oracle(pred, gold, threshold=0.5):
    """Maximum number of one-to-one header matches at/above the threshold."""
    from iealign.metrics import dice_similarity

    best = 0
    n_pred, n_gold = len(pred), len(gold)
    small, large = (range(n_pred), range(n_gold)) if n_pred <= n_gold else (range(n_gold), range(n_pred))
    for perm in itertools.permutations(large, len(list(small))):
        count = 0
        for i, j in zip(small, perm):
            a, b = (pred[i], gold[j]) if n_pred <= n_gold else (pred[j], gold[i])
            if dice_similarity(a, b) >= threshold:
                count += 1
        best = max(best, count)
    return best


@criterion(5, "metric oracle equivalence (BLEU, ROUGE-L, assignment)")
def test_criterion_5_metric_oracles():
    assert len(BLEU_FIXTURE) == 20
    for cand, ref, frozen in BLEU_FIXTURE:
        got = sentence_bleu_m3(cand, ref)
        assert abs(got - bleu_oracle(cand, ref)) <= 1e-9
        assert abs(got - frozen) <= 1e-9

    rng = random.Random(50)
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon", ";", ","]
    for _ in range(50):
        a = " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 12)))
        b = " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 12)))
        assert rouge_l_f1(a, b) == rouge_oracle(a, b)

    # tuple matching: the production scorer equals brute-force optimum on
    # every <= 4-item fixture
    schema = None
    rng = random.Random(51)
    checked = 0
    while checked < 100:
        pred = make_extraction(TaskKind.OPENIE, rng, schema).items
        gold = make_extraction(TaskKind.OPENIE, rng, schema).items
        if not pred or not gold or max(len(pred), len(gold)) > 4:
            continue
        prf = openie_tuple_f1(pred, gold)
        assert abs(prf.tp - _tuple_match_oracle(pred, gold)) <= 1e-12
        checked += 1

    # header matching: greedy tp equals the exhaustive maximum on <= 4 headers
    words = ["name", "first name", "date", "birth date", "city", "home city",
             "team", "score", "final score", "id"]
    rng = random.Random(52)
    for _ in range(200):
        pred = rng.sample(words, rng.randint(1, 4))
        gold = rng.sample(words, rng.randint(1, 4))
        prf = header_soft_f1(pred, gold)
        assert prf.tp == _header_match_oracle(pred, gold)


@criterion(6, "preference-pair gap, gold preference, and offline rate")
def test_criterion_6_dpo_properties():
    corpus = [i for i in make_corpus(TaskKind.NER, 2300, dataset="d", seed=61, na_rate=0.0)
              if not i.is_na][:2000]
    assert len(corpus) == 2000
    gold_texts = {
        i.id: serialize_answer(i.gold, EVAL_FORMATS[TaskKind.NER], seed=None) for i in corpus
    }

    client = MockClient(policy="noisy_gold:0.6", seed=6)
    plan = DpoPlan(target_size=1000, seed=6)
    pairs, summary = build_dpo(corpus, plan, client)
    assert summary["total"] == 1000
    n_offline = sum(1 for p in pairs if p["origin"] == "offline")
    assert abs(n_offline - 700) <= 1  # 0.70 +/- one pair
    for p in pairs:
        if p["origin"] == "online":
            assert p["chosen_score"] - p["rejected_score"] > 0.10
        else:
            assert p["chosen"] == gold_texts[p["id"]]

    # a perfect sampler produces no pairs at all
    perfect = MockClient(policy="noisy_gold:0", seed=6)
    none_pairs, none_summary = build_dpo(corpus[:200], DpoPlan(target_size=1000, seed=6), perfect)
    assert none_pairs == [] and none_summary["total"] == 0

    # split logic at scaled target 100 -> 30 online / 70 offline
    small_pairs, small_summary = build_dpo(
        corpus[:500], DpoPlan(target_size=100, seed=6), MockClient(policy="noisy_gold:0.6", seed=6)
    )
    assert small_summary["online"] == 30 and small_summary["offline"] == 70


@criterion(7, "byte-identical reruns (manifest digest equality)")
def test_criterion_7_determinism(tmp_path):
    corpus = make_corpus(TaskKind.NER, 300, dataset="d", seed=71, na_rate=0.1)
    opts = SftOptions(seed=7, max_tokens=100_000)
    plan = DpoPlan(target_size=50, seed=7)

    manifests = []
    for run in ("one", "two"):
        sft_client = MockClient(policy="fixed:Each entity is named directly in the text.")
        dpo_client = MockClient(policy="noisy_gold:0.6", seed=7)
        m_sft = run_build_sft(corpus, opts, tmp_path / run / "sft", client=sft_client)
        m_dpo = run_build_dpo(
            [i for i in corpus if not i.is_na], plan, dpo_client, tmp_path / run / "dpo"
        )
        manifests.append((m_sft, m_dpo))
    (sft1, dpo1), (sft2, dpo2) = manifests
    assert sft1["outputs"] == sft2["outputs"]
    assert dpo1["outputs"] == dpo2["outputs"]
    assert sft1["config_digest"] == sft2["config_digest"]
    # the digests verify against the files on disk
    from iealign.pipeline import file_digest

    assert sft1["outputs"]["sft.jsonl"] == file_digest(tmp_path / "one" / "sft" / "sft.jsonl")
    assert dpo1["outputs"]["dpo.jsonl"] == file_digest(tmp_path / "one" / "dpo" / "dpo.jsonl")


@criterion(8, "evaluation sanity on the 8/2/4 fixture")
def test_criterion_8_evaluation():
    schema = make_schema(TaskKind.NER)
    label = schema.labels[0].name
    fmt = EVAL_FORMATS[TaskKind.NER]

    instances = []
    predictions = {}

    def add(idx, gold_items, pred_items):
        gold = Extraction(TaskKind.NER, gold_items)
        inst = IEInstance(
            id=f"fix-{idx:02d}", dataset="fix", task=TaskKind.NER,
            text=f"sentence number {idx}", schema=schema, gold=gold,
            is_na=gold.is_empty(),
        )
        instances.append(inst)
        predictions[inst.id] = serialize_answer(
            Extraction(TaskKind.NER, pred_items), fmt, seed=None
        )

    idx = 0
    for _ in range(8):  # exact matches: 8 tp
        add(idx, ((f"ent{idx}", label),), ((f"ent{idx}", label),))
        idx += 1
    for _ in range(4):  # gold present, prediction empty: 4 fn
        add(idx, ((f"ent{idx}", label),), ())
        idx += 1
    for _ in range(2):  # gold empty, prediction invents an item: 2 fp
        add(idx, (), ((f"ghost{idx}", label),))
        idx += 1
    for _ in range(6):  # both empty
        add(idx, (), ())
        idx += 1
    assert len(instances) == 20

    report = evaluate(predictions, instances)
    assert (report["tp"], report["fp"], report["fn"]) == (8, 2, 4)
    tp, fp, fn = int(report["tp"]), int(report["fp"]), int(report["fn"])
    precision = Fraction(tp, tp + fp)
    recall = Fraction(tp, tp + fn)
    f1 = 2 * precision * recall / (precision + recall)
    assert precision == Fraction(4, 5)
    assert recall == Fraction(2, 3)
    assert f1 == Fraction(8, 11)
    assert report["precision"] == 0.8
    assert report["recall"] == pytest.approx(2 / 3)
    assert report["f1"] == pytest.approx(8 / 11)


@criterion(9, "schema-closure audit reports zero violations")
def test_criterion_9_closure(big_sft):
    _, records, report, _ = big_sft
    assert report["closure_violations"] == 0
    recomputed = stats(records)
    assert recomputed["closure_violations"] == 0
    assert recomputed["closure_violating_ids"] == []
