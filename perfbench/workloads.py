"""The benchmark's workloads: input set-up, the timed run, and the checks.

Each workload generates its inputs from the benchmark seed with
``iealign.synth`` and writes them to disk; the program under test sees only
those files. The timed run goes from the input files on disk to the complete
result on disk. Config seeds (SFT, DPO plan, mock backend) are the fixed
values of the acceptance suite, so only the data varies with the seed.

Program functions are called through their module (``pipeline.run_build_sft``)
so that the tracer, which patches module attributes, sees the calls.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from iealign import answers, client, formats, model, pipeline, synth
from iealign.model import CLOSED_IE_TASKS, Extraction, TaskKind
from iealign.prefpairs import DpoPlan

from fake_transport import FakeSession, prompt_key
from tracer import TRANSPORT_SPAN

# The acceptance suite's rate tolerance for demo, guideline and symbol rates.
RATE_TOLERANCE = 0.02


@dataclass
class Outcome:
    """What one repetition did, as the benchmark checked it."""

    items: int  # items attempted
    failed: int  # items the program could not complete
    digests: dict[str, str]  # output file name -> sha256
    problems: list[str] = field(default_factory=list)  # failed correctness checks
    layer: dict[str, float] = field(default_factory=dict)  # per-layer figures read from the run


def sub_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def tree_digest(directory: Path) -> str:
    """Digest of every file under ``directory``, by relative path."""
    return json.dumps({str(p.relative_to(directory)): sha256_file(p)
                       for p in sorted(directory.rglob("*")) if p.is_file()})


def read_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def write_jsonl(records, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec, ensure_ascii=False, sort_keys=True) + "\n")


def write_report(report: dict, path) -> None:
    """Write a report the way ``iealign evaluate --out`` and ``iealign stats --out`` do."""
    text = json.dumps(report, ensure_ascii=False, sort_keys=True, indent=2)
    Path(path).write_text(text + "\n", encoding="utf-8")


def expect(problems: list[str], ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def check_dpo(out: Path, manifest: dict, plan: DpoPlan, gold_text: dict[str, str]) -> list[str]:
    """Corpus size, offline share, online gaps and gold preference, read back
    from ``dpo.jsonl`` on disk."""
    problems: list[str] = []
    records = read_jsonl(out / "dpo.jsonl")
    n_offline = sum(1 for r in records if r["origin"] == "offline")
    expect(problems, manifest["counts"]["total"] == plan.target_size == len(records),
           f"dpo total {manifest['counts']['total']} / {len(records)} records != {plan.target_size}")
    expected_offline = round(plan.target_size * plan.offline_rate)
    expect(problems, abs(n_offline - expected_offline) <= 1,
           f"offline pairs {n_offline} not within 1 of {expected_offline}")
    bad_gap = [r["id"] for r in records
               if r["origin"] == "online" and not r["chosen_score"] - r["rejected_score"] > plan.gap_threshold]
    expect(problems, not bad_gap, f"{len(bad_gap)} online pairs with gap <= {plan.gap_threshold}")
    not_gold = [r["id"] for r in records if r["origin"] == "offline" and r["chosen"] != gold_text[r["id"]]]
    expect(problems, not not_gold, f"{len(not_gold)} offline pairs do not prefer the gold text")
    expect(problems, manifest["outputs"]["dpo.jsonl"] == sha256_file(out / "dpo.jsonl"),
           "manifest digest of dpo.jsonl does not match the file")
    return problems


def ner_gold_texts(instances) -> dict[str, str]:
    """Instance id -> gold answer in the fixed evaluation format, as the DPO
    builder serializes it (unshuffled)."""
    fmt = pipeline.eval_format_for(TaskKind.NER)
    return {i.id: answers.serialize_answer(i.gold, fmt, seed=None) for i in instances}


def dpo_layer(manifest: dict, n_instances: int) -> dict[str, float]:
    counts = manifest["counts"]
    candidates = counts["candidate_online"] + counts["candidate_offline"]
    return {
        "prefpairs.kept_ratio": counts["total"] / candidates if candidates else 0.0,
        "prefpairs.candidates_per_instance": candidates / n_instances,
    }


class Workload:
    """One benchmark workload.

    ``setup`` writes the inputs for a seed (timed as ``setup_s``); ``prepare``
    computes what the checks expect, untimed; ``run`` is the timed part and
    returns what ``check`` needs to turn it into an ``Outcome``.
    """

    name: str
    # (class, method, span name) the tracer wraps besides the iealign functions.
    traced_methods: tuple = ()

    def setup(self, seed: int, inp: Path) -> None:
        raise NotImplementedError

    def prepare(self, inp: Path) -> None:
        pass

    def run(self, inp: Path, out: Path):
        raise NotImplementedError

    def check(self, inp: Path, out: Path, result) -> Outcome:
        raise NotImplementedError


class SftBuild(Workload):
    """``read_instances`` + ``run_build_sft`` over 5,000 instances with the
    acceptance options and a fixed-text mock for CoT.

    The corpus is a quarter of the acceptance suite's 20,000 so that a run
    holds a dozen repetitions and their median; the CoT cap is scaled with it
    (450 / 4) to keep CoT at the same share of the records."""

    name = "sft_5k"
    tasks = (TaskKind.NER, TaskKind.RE, TaskKind.ED, TaskKind.EE)
    per_task = 1250
    opts = pipeline.SftOptions(seed=11, cot_per_task=112, max_tokens=100_000)
    cot_policy = "fixed:The text states each item explicitly, so they are extracted."

    def setup(self, seed: int, inp: Path) -> None:
        corpus = []
        for k, task in enumerate(self.tasks):
            corpus += synth.make_corpus(task, self.per_task, dataset=f"ds{k}", seed=sub_seed(seed, k))
        model.write_instances(corpus, inp / "instances.jsonl")
        self.keys = [(i.id, i.task, i.is_na) for i in corpus]

    def prepare(self, inp: Path) -> None:
        self.n = len(self.keys)
        eligible = Counter(task for id_, task, is_na in self.keys if pipeline.cot_eligible(id_, is_na, self.opts))
        self.expected_cot = sum(min(self.opts.cot_per_task, eligible[t]) for t in self.tasks)

    def run(self, inp: Path, out: Path):
        instances = model.read_instances(inp / "instances.jsonl")
        mock = client.MockClient(policy=self.cot_policy)
        manifest = pipeline.run_build_sft(instances, self.opts, out, client=mock)
        return manifest, mock

    def check(self, inp: Path, out: Path, result) -> Outcome:
        manifest, mock = result
        counts = manifest["counts"]
        problems: list[str] = []
        expect(problems, counts["total"] == self.n, f"sft records {counts['total']} != {self.n}")
        expect(problems, counts["closure_violations"] == 0,
               f"closure_violations = {counts['closure_violations']}")
        expect(problems, counts["cot_count"] == self.expected_cot,
               f"cot_count {counts['cot_count']} != {self.expected_cot}")
        for rate, target in (("demo_rate", self.opts.demo_rate),
                             ("guideline_rate", self.opts.guideline_rate),
                             ("symbol_rate", self.opts.symbol_rate)):
            expect(problems, abs(counts[rate] - target) <= RATE_TOLERANCE,
                   f"{rate} {counts[rate]:.4f} not within {RATE_TOLERANCE} of {target}")
        digest = sha256_file(out / "sft.jsonl")
        expect(problems, manifest["outputs"]["sft.jsonl"] == digest,
               "manifest digest of sft.jsonl does not match the file")
        failed = counts["dropped_length"] + max(0, self.expected_cot - counts["cot_count"])
        return Outcome(self.n, failed, {"sft.jsonl": digest}, problems,
                       {"client.generations": mock.call_count})


class DpoBuild(Workload):
    """``run_build_dpo`` over 2,000 non-NA NER instances x 5 samples with the
    ``noisy_gold:0.6`` mock and a 1,000-pair target."""

    name = "dpo_2k"
    n = 2000
    plan = DpoPlan(target_size=1000, seed=6)
    policy = "noisy_gold:0.6"

    def setup(self, seed: int, inp: Path) -> None:
        corpus = synth.make_corpus(TaskKind.NER, self.n, dataset="d", seed=sub_seed(seed, 0), na_rate=0.0)
        model.write_instances(corpus, inp / "instances.jsonl")

    def prepare(self, inp: Path) -> None:
        self.gold_text = ner_gold_texts(model.read_instances(inp / "instances.jsonl"))

    def run(self, inp: Path, out: Path):
        instances = model.read_instances(inp / "instances.jsonl")
        mock = client.MockClient(policy=self.policy, seed=self.plan.seed)
        manifest = pipeline.run_build_dpo(instances, self.plan, mock, out)
        return manifest, mock

    def check(self, inp: Path, out: Path, result) -> Outcome:
        manifest, mock = result
        problems = check_dpo(out, manifest, self.plan, self.gold_text)
        generations = self.n * self.plan.samples_per_instance
        expect(problems, mock.call_count == generations, f"generations {mock.call_count} != {generations}")
        layer = {"client.generations": mock.call_count, **dpo_layer(manifest, self.n)}
        return Outcome(self.n, manifest["counts"]["skipped_instances"],
                       {"dpo.jsonl": sha256_file(out / "dpo.jsonl")}, problems, layer)


class ScoreMixed(Workload):
    """``evaluate_files`` over 5,000 gold instances (every closed-IE task plus
    OpenIE, 10% NA) against a seeded mix of exact, perturbed, unparseable and
    missing predictions, then ``stats`` over an SFT corpus of half that size
    built at set-up. Sized, like ``sft_5k``, for many short repetitions."""

    name = "score_mixed"
    tasks = tuple(sorted(CLOSED_IE_TASKS, key=lambda t: t.value)) + (TaskKind.OPENIE,)
    per_task = 625
    sft_per_task = 312
    na_rate = 0.1
    # Shares of predictions that are missing, unparseable and exact; the rest are perturbed.
    missing_share, unparseable_share, exact_share = 0.1, 0.1, 0.4
    junk = ("[Answer]: (((((", "<<garbled>> ;;; ::", "[Answer]: ]]]]")
    sft_opts = pipeline.SftOptions(seed=11, max_tokens=100_000)

    def setup(self, seed: int, inp: Path) -> None:
        gold: list = []
        for k, task in enumerate(self.tasks):
            gold += synth.make_corpus(task, self.per_task, dataset=f"g{k}", seed=sub_seed(seed, k),
                                      na_rate=self.na_rate)
        model.write_instances(gold, inp / "gold.jsonl")

        library = formats.load_format_library()
        rng = random.Random(sub_seed(seed, 99))
        preds: list[dict] = []
        tp = fp = fn = planted = 0
        for inst in gold:
            kind = rng.random()
            pred_items: tuple = ()
            if kind < self.missing_share:
                planted += 1
            elif kind < self.missing_share + self.unparseable_share:
                planted += 1
                preds.append({"id": inst.id, "output": rng.choice(self.junk)})
            else:
                pred_items = inst.gold.items
                if kind >= self.missing_share + self.unparseable_share + self.exact_share:
                    pred_items = self._perturb(inst, rng)
                pred = Extraction(inst.task, pred_items, trigger=inst.gold.trigger)
                spec = pipeline.eval_format_for(inst.task, library)
                preds.append({"id": inst.id, "output": answers.serialize_answer(pred, spec, seed=None)})
            hits = sum((Counter(pred_items) & Counter(inst.gold.items)).values())
            tp += hits
            fp += len(pred_items) - hits
            fn += len(inst.gold.items) - hits
        write_jsonl(preds, inp / "pred.jsonl")

        by_task: dict = {}
        for inst in gold:
            by_task.setdefault(inst.task, []).append(inst)
        sft_corpus = [i for t in self.tasks for i in by_task[t][: self.sft_per_task]]
        # Keep only the corpus: the build's manifest records its own wall time.
        pipeline.run_build_sft(sft_corpus, self.sft_opts, inp / "sft-build")
        os.replace(inp / "sft-build" / "sft.jsonl", inp / "sft.jsonl")
        shutil.rmtree(inp / "sft-build")
        expected = {"tp": tp, "fp": fp, "fn": fn, "planted_failures": planted,
                    "gold": len(gold), "sft_records": len(sft_corpus)}
        (inp / "expected.json").write_text(json.dumps(expected, sort_keys=True) + "\n", encoding="utf-8")

    @staticmethod
    def _perturb(inst, rng: random.Random) -> tuple:
        """Keep a random part of the gold items and add one or two new ones."""
        items = list(inst.gold.items)
        rng.shuffle(items)
        items = items[: rng.randint(0, len(items))]
        extra = synth.make_extraction(inst.task, rng, inst.schema, allow_empty=False, max_items=2)
        for item in extra.items:
            if item not in items:
                items.append(item)
        return tuple(items)

    def prepare(self, inp: Path) -> None:
        self.expected = json.loads((inp / "expected.json").read_text(encoding="utf-8"))

    def run(self, inp: Path, out: Path):
        out.mkdir(parents=True, exist_ok=True)
        report = pipeline.evaluate_files(inp / "pred.jsonl", inp / "gold.jsonl")
        write_report(report, out / "evaluate.json")
        records = list(model.load_jsonl(inp / "sft.jsonl"))
        composition = pipeline.stats(records)
        write_report(composition, out / "stats.json")
        return report, composition

    def check(self, inp: Path, out: Path, result) -> Outcome:
        report, composition = result
        exp = self.expected
        problems: list[str] = []
        got = (report["tp"], report["fp"], report["fn"])
        want = (exp["tp"], exp["fp"], exp["fn"])
        expect(problems, got == want, f"evaluate tp/fp/fn {got} != independent count {want}")
        expect(problems, report["parse_failures"] == exp["planted_failures"],
               f"parse_failures {report['parse_failures']} != planted {exp['planted_failures']}")
        expect(problems, composition["total"] == exp["sft_records"],
               f"stats total {composition['total']} != {exp['sft_records']}")
        expect(problems, composition["closure_violations"] == 0,
               f"closure_violations = {composition['closure_violations']}")
        failed = max(0, report["parse_failures"] - exp["planted_failures"])
        digests = {name: sha256_file(out / name) for name in ("evaluate.json", "stats.json")}
        return Outcome(exp["gold"] + exp["sft_records"], failed, digests, problems)


class DpoLive(Workload):
    """``run_build_dpo`` through a real ``LiveClient`` (no cache) whose session
    is the benchmark's fake transport with a fixed latency per post."""

    name = "dpo_live"
    n = 400
    plan = DpoPlan(target_size=400, seed=6)
    latency_s = 0.003
    noise = 0.6
    # Far above the serial call rate (at most 1 / latency_s), so throttling never waits.
    qps = 10_000.0
    traced_methods = ((FakeSession, "post", TRANSPORT_SPAN),)

    def setup(self, seed: int, inp: Path) -> None:
        corpus = synth.make_corpus(TaskKind.NER, self.n, dataset="live", seed=sub_seed(seed, 0), na_rate=0.0)
        model.write_instances(corpus, inp / "instances.jsonl")
        fmt = pipeline.eval_format_for(TaskKind.NER)
        gold_text = ner_gold_texts(corpus)
        gold = {prompt_key(pipeline.dpo_prompt(i, fmt, None, self.plan.seed)): gold_text[i.id] for i in corpus}
        (inp / "gold_by_prompt.json").write_text(json.dumps(gold, sort_keys=True), encoding="utf-8")

    def prepare(self, inp: Path) -> None:
        self.gold_by_prompt = json.loads((inp / "gold_by_prompt.json").read_text(encoding="utf-8"))
        self.gold_text = ner_gold_texts(model.read_instances(inp / "instances.jsonl"))
        # LiveClient insists on a key; the fake transport ignores it.
        os.environ["IEALIGN_API_KEY"] = "perfbench-dummy-key"

    def run(self, inp: Path, out: Path):
        instances = model.read_instances(inp / "instances.jsonl")
        session = FakeSession(self.gold_by_prompt, self.latency_s, self.noise, seed=self.plan.seed)
        live = client.LiveClient(endpoint="fake://chat/completions", model="fake", qps=self.qps,
                                 cache=None, session=session)
        manifest = pipeline.run_build_dpo(instances, self.plan, live, out)
        return manifest, live, session

    def check(self, inp: Path, out: Path, result) -> Outcome:
        manifest, live, session = result
        problems = check_dpo(out, manifest, self.plan, self.gold_text)
        generations = self.n * self.plan.samples_per_instance
        expect(problems, live.call_count == generations, f"generations {live.call_count} != {generations}")
        expect(problems, session.unknown_prompts == 0,
               f"{session.unknown_prompts} posts for prompts the fake has no gold for")
        skipped = manifest["counts"]["skipped_instances"]
        expect(problems, skipped == 0, f"{skipped} instances skipped on transport errors")
        layer = {
            "client.generations": live.call_count,
            "client.retries": session.posts - live.call_count,
            **dpo_layer(manifest, self.n),
        }
        return Outcome(self.n, skipped, {"dpo.jsonl": sha256_file(out / "dpo.jsonl")}, problems, layer)


WORKLOADS = {w.name: w for w in (SftBuild, DpoBuild, ScoreMixed, DpoLive)}
