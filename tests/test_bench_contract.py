"""The benchmark under `perfbench/` can still run against the program: every
name its tracer wraps resolves, and every workload's set-up, timed run and
checks pass once at seed 1 and give the five output digests that CI's
untraced smoke run pins."""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# The seed-1 output digests per workload, as CI's untraced smoke run pins them.
DIGESTS = {
    "sft_5k": {"sft.jsonl": "4fc0839e3150aba3b670a193b496c198b6e4f5a62646be7fdf9504e8a58c2665"},
    "dpo_2k": {"dpo.jsonl": "d5f54eae45ea62a21598768f8ef3b662811d1f5629f35b8038f60bca764c6dd0"},
    "score_mixed": {
        "evaluate.json": "803ceac0615c91af012763a59fdc89c31071f2fe02acf527fc533601cd9d14bc",
        "stats.json": "3a0f88d54d2cdf17d658763a86b147853d3fedb478e8f196ac511e98bf11974a",
    },
    "dpo_live": {"dpo.jsonl": "03a883fdd6554264a01edb2d3f60e0ac43d965a58c6f9d8fbcfe020b87320065"},
}


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer"), importlib.import_module("workloads")


def test_every_traced_name_resolves(perfbench):
    tracer, _ = perfbench
    for module, name in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"iealign.{module}"), name)), f"{module}.{name}"
    for module, cls, method, _ in tracer.METHODS:
        owner = getattr(importlib.import_module(f"iealign.{module}"), cls)
        assert callable(vars(owner)[method]), f"{module}.{cls}.{method}"


def test_every_workload_runs_and_gives_the_pinned_digests(perfbench, tmp_path, monkeypatch):
    _, workloads = perfbench
    monkeypatch.setenv("IEALIGN_API_KEY", "perfbench-dummy-key")
    assert set(workloads.WORKLOADS) == set(DIGESTS)
    for name, workload_class in workloads.WORKLOADS.items():
        workload = workload_class()
        inp, out = tmp_path / name / "input", tmp_path / name / "output"
        inp.mkdir(parents=True)
        workload.setup(1, inp)
        workload.prepare(inp)
        outcome = workload.check(inp, out, workload.run(inp, out))
        assert (outcome.problems, outcome.failed) == ([], 0), name
        assert outcome.digests == DIGESTS[name], name
