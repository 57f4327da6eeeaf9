"""CLI tests: every subcommand end to end with mock backends, exit-code
mapping, and pre-flight validation before any output is written."""

import json

import pytest
import yaml
from click.testing import CliRunner
from conftest import assert_kept, fail_on_second

from iealign.cli import _write_json, main
from iealign.errors import DataError
from iealign.model import TaskKind, gold_to_json, read_instances, schema_to_json, write_instances
from iealign.synth import make_corpus, make_schema


@pytest.fixture
def runner():
    return CliRunner()


def _write_yaml(path, data):
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return str(path)


def _raw_dataset(tmp_path, task=TaskKind.NER, n=30, seed=0, na_rate=0.3):
    corpus = make_corpus(task, n, seed=seed, na_rate=na_rate)
    raw = tmp_path / "raw.jsonl"
    with open(raw, "w", encoding="utf-8") as f:
        for inst in corpus:
            f.write(json.dumps({"text": inst.text, "gold": gold_to_json(inst.gold)}) + "\n")
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(schema_to_json(make_schema(task))), encoding="utf-8")
    return raw, schema, corpus


def _canonical(tmp_path, task=TaskKind.NER, n=40, seed=1, name="inst.jsonl", na_rate=0.0):
    corpus = make_corpus(task, n, dataset="d", seed=seed, na_rate=na_rate)
    path = tmp_path / name
    write_instances(corpus, path)
    return path, corpus


# ---------------------------------------------------------------------------
# ingest


def test_ingest_writes_canonical(runner, tmp_path):
    raw, schema, corpus = _raw_dataset(tmp_path)
    cfg = _write_yaml(tmp_path / "cfg.yaml", {
        "dataset": "demo", "task": "NER", "path": str(raw), "schema": str(schema),
    })
    out = tmp_path / "out.jsonl"
    result = runner.invoke(main, ["ingest", "--config", cfg, "--out", str(out)])
    assert result.exit_code == 0, result.output
    loaded = read_instances(out)
    non_na = sum(1 for i in corpus if not i.is_na)
    assert sum(1 for i in loaded if not i.is_na) == non_na  # NA filter never drops non-NA


def test_ingest_missing_config_exits_2(runner, tmp_path):
    out = tmp_path / "out.jsonl"
    result = runner.invoke(main, ["ingest", "--config", str(tmp_path / "none.yaml"), "--out", str(out)])
    assert result.exit_code == 2
    assert not out.exists()


def test_ingest_missing_input_exits_2_without_output(runner, tmp_path):
    cfg = _write_yaml(tmp_path / "cfg.yaml", {
        "dataset": "demo", "task": "NER", "path": str(tmp_path / "missing.jsonl"),
    })
    out = tmp_path / "out.jsonl"
    result = runner.invoke(main, ["ingest", "--config", cfg, "--out", str(out)])
    assert result.exit_code == 2
    assert "input file not found" in result.output
    assert not out.exists()


def test_ingest_malformed_line_exits_1_strict_0_lenient(runner, tmp_path):
    raw = tmp_path / "raw.jsonl"
    out = tmp_path / "out.jsonl"
    cases = [
        ("OpenIE", b"not json"),
        ("OpenIE", b'{"text": "caf\xe9", "gold": []}'),  # not UTF-8
        ("OpenIE", b'{"text": "\\ud800", "gold": []}'),  # a lone surrogate in the text
        ("OpenIE", b'{"text": "ok", "gold": [["a \\ud800", "b", null, null, null]]}'),  # ... in the gold
        ("OpenIE", b'{"text": "ok", "gold": [["met", "", "Bob", null, null]]}'),  # an empty subject
        ("NER", b"5"),  # not an object
        ("NER", b'{"text": 5, "gold": []}'),
        ("NER", b'{"text": "ok", "gold": [["a"]]}'),  # an item one slot short
        ("NER", b'{"text": "ok", "gold": [[["a"], "person"]]}'),  # a slot value that is not a string
        ("EE", b'{"text": "ok", "gold": [{"trigger": "t", "type": "e", "arguments": [["a"]]}]}'),
    ]
    for task, bad in cases:
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps(schema_to_json(make_schema(TaskKind(task)))), encoding="utf-8")
        cfg = _write_yaml(tmp_path / "cfg.yaml", {"dataset": "d", "task": task, "path": str(raw), "schema": str(schema)})
        raw.write_bytes(b'{"text": "ok", "gold": []}\n' + bad + b"\n")
        result = runner.invoke(main, ["ingest", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 1, (bad, result.output)
        assert "data error:" in result.output and "line 2" in result.output
        assert not out.exists()
        result = runner.invoke(main, ["ingest", "--config", cfg, "--out", str(out), "--lenient"])
        assert result.exit_code == 0, (bad, result.output)
        assert result.output.startswith("loaded 1,")
        out.unlink()


def test_ingest_duplicate_instance_id_exits_1_strict_0_lenient(runner, tmp_path):
    """Two raw lines with the same index and text would share one instance id."""
    raw, schema, _ = _raw_dataset(tmp_path)
    line = json.dumps({"index": 3, "text": "Paris is big.", "gold": [["Paris", "location"]]})
    raw.write_text(line + "\n" + line + "\n", encoding="utf-8")
    cfg = _write_yaml(tmp_path / "cfg.yaml", {"dataset": "d", "task": "NER", "path": str(raw), "schema": str(schema)})
    out = tmp_path / "out.jsonl"
    result = runner.invoke(main, ["ingest", "--config", cfg, "--out", str(out)])
    assert result.exit_code == 1, result.output
    assert "duplicate instance id" in result.output and result.output.rstrip().endswith("| line 2")
    assert not out.exists()
    result = runner.invoke(main, ["ingest", "--config", cfg, "--out", str(out), "--lenient"])
    assert result.exit_code == 0, result.output
    assert len(read_instances(out)) == 1


@pytest.mark.parametrize(
    "write",
    [
        lambda p: write_instances(fail_on_second(make_corpus(TaskKind.NER, 2, seed=0)), p),  # ingest, mix
        lambda p: _write_json({"text": "lone surrogate \ud800"}, str(p)),  # evaluate/stats --out
    ],
    ids=["instances", "report"],
)
def test_failed_write_keeps_previous_file(tmp_path, write):
    dest = tmp_path / "out"
    dest.write_bytes(b"previous\n")
    with pytest.raises((RuntimeError, DataError)):
        write(dest)
    assert_kept(dest, b"previous\n")


def test_ingest_unknown_task_exits_2(runner, tmp_path):
    raw, _, _ = _raw_dataset(tmp_path)
    cfg = _write_yaml(tmp_path / "cfg.yaml", {"dataset": "d", "task": "NOPE", "path": str(raw)})
    assert runner.invoke(main, ["ingest", "--config", cfg, "--out", str(tmp_path / "o.jsonl")]).exit_code == 2


# ---------------------------------------------------------------------------
# mix


def test_mix_caps_and_writes(runner, tmp_path):
    a, _ = _canonical(tmp_path, TaskKind.NER, 120, seed=1, name="a.jsonl")
    b, _ = _canonical(tmp_path, TaskKind.RE, 30, seed=2, name="b.jsonl")
    cfg = _write_yaml(tmp_path / "mix.yaml", {
        "datasets": {"a": str(a), "b": str(b)}, "cap": 50,
    })
    out = tmp_path / "mixed.jsonl"
    result = runner.invoke(main, ["mix", "--config", cfg, "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert len(read_instances(out)) == 80  # 50 capped + 30 whole


def test_mix_missing_datasets_key_exits_2(runner, tmp_path):
    cfg = _write_yaml(tmp_path / "mix.yaml", {"cap": 50})
    assert runner.invoke(main, ["mix", "--config", cfg, "--out", str(tmp_path / "o.jsonl")]).exit_code == 2


@pytest.mark.parametrize("command,values,message", [
    ("ingest", {"na_keep_rate": "0.5"}, "ingest config na_keep_rate must be float, got '0.5'"),
    ("ingest", {"seed": "x"}, "ingest config seed must be int, got 'x'"),
    ("ingest", {"null_labels": "NONE"}, "ingest config null_labels must be list[str], got 'NONE'"),
    ("mix", {"cap": "5"}, "mix config cap must be int, got '5'"),
    ("mix", {"quotas": {"a": "1"}}, "mix config quotas must be dict[str, int], got {'a': '1'}"),
    ("mix", {"ie_rate": "0.2"}, "mix config ie_rate must be float, got '0.2'"),
    ("mix", {"datasets": ["a.jsonl"]}, "mix config datasets must be dict[str, str], got ['a.jsonl']"),
], ids=["na_keep_rate", "seed", "null_labels", "cap", "quotas", "ie_rate", "datasets"])
def test_ingest_and_mix_mistyped_config_exits_2(runner, tmp_path, command, values, message):
    """A config value of the wrong type is a configuration error before any
    input is read or output written, not a traceback or a silent seed."""
    if command == "ingest":
        raw, schema, _ = _raw_dataset(tmp_path)
        base = {"dataset": "d", "task": "NER", "path": str(raw), "schema": str(schema)}
    else:
        a, _ = _canonical(tmp_path, name="a.jsonl")
        general, _ = _canonical(tmp_path, TaskKind.RE, name="general.jsonl")
        base = {"datasets": {"a": str(a)}, "general": str(general)}
    cfg = _write_yaml(tmp_path / "cfg.yaml", {**base, **values})
    out = tmp_path / "out.jsonl"
    result = runner.invoke(main, [command, "--config", cfg, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert f"configuration error: {message}" in result.output
    assert not out.exists()


@pytest.mark.parametrize("command,values,message", [
    ("ingest", {"na_keep_rte": 1.0}, "unknown ingest config keys: ['na_keep_rte']"),
    ("mix", {"ie_rte": 0.5, 7: 1}, "unknown mix config keys: [7, 'ie_rte']"),
    ("build-sft", {"pool_dir": "pools"}, "unknown build-sft config keys: ['pool_dir']"),
    ("build-dpo", {"options": {}}, "unknown build-dpo config keys: ['options']"),
], ids=["ingest", "mix", "build-sft", "build-dpo"])
def test_unknown_config_key_exits_2(runner, tmp_path, command, values, message):
    """A top-level config key the command does not read is a configuration
    error before any output is written, not a setting silently left at its
    default."""
    if command == "ingest":
        raw, schema, _ = _raw_dataset(tmp_path)
        base = {"dataset": "d", "task": "NER", "path": str(raw), "schema": str(schema)}
    elif command == "mix":
        a, _ = _canonical(tmp_path, name="a.jsonl")
        base = {"datasets": {"a": str(a)}}
    else:
        inst, _ = _canonical(tmp_path)
        base = {"instances": str(inst), "backend": {"kind": "mock", "policy": "fixed:x"}}
    cfg = _write_yaml(tmp_path / "cfg.yaml", {**base, **values})
    out = tmp_path / "out"
    result = runner.invoke(main, [command, "--config", cfg, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert f"configuration error: {message}" in result.output
    assert not out.exists()


# ---------------------------------------------------------------------------
# build-sft / build-dpo


def test_build_sft_end_to_end(runner, tmp_path):
    inst, corpus = _canonical(tmp_path, n=60)
    cfg = _write_yaml(tmp_path / "sft.yaml", {
        "instances": str(inst),
        "options": {"max_tokens": 100000},
    })
    out = tmp_path / "run"
    result = runner.invoke(main, ["build-sft", "--config", cfg, "--out", str(out), "--seed", "3"])
    assert result.exit_code == 0, result.output
    lines = (out / "sft.jsonl").read_text().splitlines()
    assert len(lines) == len(corpus)
    manifest = json.loads((out / "manifest.json").read_text())
    assert "sft.jsonl" in manifest["outputs"]


def test_build_sft_unknown_option_exits_2(runner, tmp_path):
    inst, _ = _canonical(tmp_path)
    for options in ({"bogus": 1}, {"seed": 3}):  # the seed is set at the top level
        cfg = _write_yaml(tmp_path / "sft.yaml", {"instances": str(inst), "options": options})
        result = runner.invoke(main, ["build-sft", "--config", cfg, "--out", str(tmp_path / "run")])
        assert result.exit_code == 2
        assert f"unknown SFT options: {sorted(options)}" in result.output


def test_build_dpo_unknown_plan_key_exits_2(runner, tmp_path):
    inst, _ = _canonical(tmp_path)
    cfg = _write_yaml(tmp_path / "dpo.yaml", {"instances": str(inst), "plan": {"target_sise": 5}})
    out = tmp_path / "run"
    result = runner.invoke(main, ["build-dpo", "--config", cfg, "--out", str(out), "--backend", "fixed:x"])
    assert result.exit_code == 2
    assert "unknown DPO plan options: ['target_sise']" in result.output
    assert not out.exists()


@pytest.mark.parametrize("command,key,values,message", [
    ("build-dpo", "plan", {"target_size": -5}, "target_size must be >= 0, got -5"),
    ("build-dpo", "plan", {"samples_per_instance": 0}, "samples_per_instance must be >= 1, got 0"),
    ("build-dpo", "plan", {"sample_temperature": -0.5}, "sample_temperature must be >= 0, got -0.5"),
    ("build-sft", "options", {"demo_k_range": [8, 1]}, "demo_k_range must be (lo, hi) with 0 <= lo <= hi"),
    ("build-sft", "options", {"demo_k_range": [-1, 2]}, "demo_k_range must be (lo, hi) with 0 <= lo <= hi"),
    ("build-sft", "options", {"cot_per_task": -1}, "cot_per_task must be >= 0, got -1"),
    ("build-sft", "options", {"demo_pool_size": -1}, "demo_pool_size must be >= 0, got -1"),
    ("build-sft", "options", {"max_tokens": 0}, "max_tokens must be >= 1, got 0"),
])
def test_build_out_of_range_option_exits_2(runner, tmp_path, command, key, values, message):
    """An out-of-range plan or option is a configuration error before any
    output is written, not a traceback at the first instance."""
    inst, _ = _canonical(tmp_path)
    cfg = _write_yaml(tmp_path / "run.yaml", {"instances": str(inst), key: values})
    out = tmp_path / "run"
    result = runner.invoke(main, [command, "--config", cfg, "--out", str(out), "--backend", "noisy_gold:0.5"])
    assert result.exit_code == 2, result.output
    assert f"configuration error: {message}" in result.output
    assert not out.exists()


@pytest.mark.parametrize("command,key,values,message", [
    ("build-sft", "options", {"demo_k_range": 3}, "SFT option demo_k_range must be tuple[int, int], got 3"),
    ("build-sft", "options", {"demo_k_range": [1, 2.5]}, "SFT option demo_k_range must be tuple[int, int], got [1, 2.5]"),
    ("build-sft", "options", {"cot_per_task": "many"}, "SFT option cot_per_task must be int, got 'many'"),
    ("build-sft", "options", {"max_tokens": True}, "SFT option max_tokens must be int, got True"),
    ("build-sft", "options", {"demo_rate": False}, "SFT option demo_rate must be float, got False"),
    ("build-sft", "options", {"pool_dir": ["a"]}, "SFT option pool_dir must be Optional[str], got ['a']"),
    ("build-dpo", "plan", {"gap_threshold": "0.1"}, "DPO plan option gap_threshold must be float, got '0.1'"),
    ("build-dpo", "seed", "seven", "DPO plan option seed must be int, got 'seven'"),
])
def test_build_option_of_wrong_type_exits_2(runner, tmp_path, command, key, values, message):
    """A value that does not fit its option's type is a configuration error
    before any output is written, not a TypeError traceback."""
    inst, _ = _canonical(tmp_path)
    cfg = _write_yaml(tmp_path / "run.yaml", {"instances": str(inst), key: values})
    out = tmp_path / "run"
    result = runner.invoke(main, [command, "--config", cfg, "--out", str(out), "--backend", "noisy_gold:0.5"])
    assert result.exit_code == 2, result.output
    assert f"configuration error: {message}" in result.output
    assert not out.exists()


_LIVE = {"kind": "live", "endpoint": "http://localhost:9/v1", "model": "m"}


@pytest.mark.parametrize("backend,override,message", [
    ({**_LIVE, "qps": -1}, None, "qps must be a number >= 0, got -1"),
    ([1, 2], None, "backend must be a mapping, got [1, 2]"),
    ({"kind": "live", "endpoint": "http://localhost:9/v1"}, None, "live backend missing ['model']"),
    ({"kind": "live", "model": "m"}, None, "live backend missing ['endpoint']"),
    (None, "https://localhost:9/v1", "live backend missing ['model']"),
    ({"kind": "mock", "policy": "noisy_gold:abc"}, None,
     "noisy_gold rate must be a number in [0, 1], got 'noisy_gold:abc'"),
    (None, "noisy_gold:1.5", "noisy_gold rate must be a number in [0, 1], got 'noisy_gold:1.5'"),
    (None, "bogus", "unknown mock policy 'bogus'"),
    ({"kind": "mock", "seed": "x"}, None, "mock seed must be an int, got 'x'"),
    ({**_LIVE, "workers": 8}, None, "unknown live backend keys: ['workers']"),
    ({**_LIVE, "qsp": 3}, None, "unknown live backend keys: ['qsp']"),
    ({**_LIVE, "endpoint": 5}, None, "live backend endpoint must be a string, got 5"),
], ids=["qps", "not_mapping", "no_model", "no_endpoint", "url_override_no_model", "policy_not_number",
        "policy_rate_range", "policy_unknown", "mock_seed", "workers_key", "typo_key", "endpoint_type"])
def test_build_dpo_bad_live_setting_exits_2(runner, tmp_path, monkeypatch, backend, override, message):
    """A bad backend config exits 2 before any output is written, not with a
    traceback or a setting silently ignored; the qps values are checked in
    test_client."""
    monkeypatch.setenv("IEALIGN_API_KEY", "k")
    inst, _ = _canonical(tmp_path)
    config = {"instances": str(inst), "cache_dir": str(tmp_path / "cache")}
    if backend is not None:
        config["backend"] = backend
    cfg = _write_yaml(tmp_path / "dpo.yaml", config)
    out = tmp_path / "run"
    args = ["build-dpo", "--config", cfg, "--out", str(out)] + (["--backend", override] if override else [])
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert f"configuration error: {message}" in result.output
    assert not out.exists() and not (tmp_path / "cache").exists()


def test_build_int_for_float_option_is_accepted(runner, tmp_path):
    inst, _ = _canonical(tmp_path)
    options = {"demo_rate": 1, "guideline_rate": 0, "demo_k_range": [2, 2]}
    cfg = _write_yaml(tmp_path / "run.yaml", {"instances": str(inst), "options": options})
    result = runner.invoke(main, ["build-sft", "--config", cfg, "--out", str(tmp_path / "run")])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output.splitlines()[0])["demo_histogram"] == {"2": 40}


def test_build_dpo_requires_backend(runner, tmp_path):
    inst, _ = _canonical(tmp_path)
    cfg = _write_yaml(tmp_path / "dpo.yaml", {"instances": str(inst)})
    result = runner.invoke(main, ["build-dpo", "--config", cfg, "--out", str(tmp_path / "run")])
    assert result.exit_code == 2
    assert "requires a backend" in result.output


def test_build_dpo_with_mock_backend(runner, tmp_path):
    """--backend with a mock policy replaces a live backend in the config
    instead of passing it the live settings."""
    inst, _ = _canonical(tmp_path, n=80, na_rate=0.0)
    cfg = _write_yaml(tmp_path / "dpo.yaml", {
        "instances": str(inst),
        "plan": {"target_size": 20},
        "backend": {"kind": "live", "endpoint": "http://localhost:9/v1", "model": "m", "qps": 2},
    })
    out = tmp_path / "run"
    result = runner.invoke(
        main,
        ["build-dpo", "--config", cfg, "--out", str(out), "--backend", "noisy_gold:0.6"],
    )
    assert result.exit_code == 0, result.output
    lines = (out / "dpo.jsonl").read_text().splitlines()
    assert len(lines) == 20
    offline = sum(1 for l in lines if json.loads(l)["origin"] == "offline")
    assert offline == 14  # 70% of 20


# ---------------------------------------------------------------------------
# evaluate / stats


def test_evaluate_cli(runner, tmp_path):
    from iealign.answers import serialize_answer
    from iealign.formats import EVAL_FORMATS

    inst, corpus = _canonical(tmp_path, n=10)
    pred = tmp_path / "pred.jsonl"
    fmt = EVAL_FORMATS[TaskKind.NER]
    with open(pred, "w", encoding="utf-8") as f:
        for i in corpus:
            f.write(json.dumps({"id": i.id, "output": serialize_answer(i.gold, fmt, seed=None)}) + "\n")
    out = tmp_path / "report.json"
    result = runner.invoke(
        main, ["evaluate", "--pred", str(pred), "--gold", str(inst), "--task", "NER", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    assert json.loads(out.read_text())["f1"] == 1.0

    bad_task = runner.invoke(main, ["evaluate", "--pred", str(pred), "--gold", str(inst), "--task", "RE"])
    assert bad_task.exit_code == 2


def _perfect_ner_output(instance):
    from iealign.answers import serialize_answer
    from iealign.formats import EVAL_FORMATS

    return serialize_answer(instance.gold, EVAL_FORMATS[TaskKind.NER], seed=None)


def test_evaluate_warns_once_for_prediction_ids_without_gold(runner, tmp_path, caplog):
    inst, corpus = _canonical(tmp_path, n=3)
    records = [{"id": i.id, "output": _perfect_ner_output(i)} for i in corpus]
    records += [{"id": "no-such-id", "output": "NA"}, {"id": "nor-this", "output": "NA"}]
    pred = tmp_path / "pred.jsonl"
    pred.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    with caplog.at_level("WARNING", logger="iealign.pipeline"):
        result = runner.invoke(main, ["evaluate", "--pred", str(pred), "--gold", str(inst)])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["f1"] == 1.0
    assert [r.getMessage() for r in caplog.records] == [
        "2 prediction ids match no gold instance and are not scored"
    ]


def test_stats_cli_counts_malformed(runner, tmp_path):
    inst, _ = _canonical(tmp_path, n=15)
    run = tmp_path / "run"
    cfg = _write_yaml(tmp_path / "sft.yaml", {"instances": str(inst), "options": {"max_tokens": 100000}})
    assert runner.invoke(main, ["build-sft", "--config", cfg, "--out", str(run)]).exit_code == 0
    corpus_path = run / "sft.jsonl"
    record = json.loads(corpus_path.read_text(encoding="utf-8").splitlines()[0])
    not_sft_records = [
        {"id": "a"},
        {"id": "a", "task": "NER", "format": 5, "demonstrations": []},
        {**record, "task": "XX"},
    ]
    with open(corpus_path, "ab") as f:
        f.write(b"oops not json\n" + b'{"cut mid-character": "caf\xc3\n')
        f.write(b"".join(json.dumps(r).encode("utf-8") + b"\n" for r in not_sft_records))
    result = runner.invoke(main, ["stats", "--corpus", str(corpus_path)])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["malformed_lines"] == 5
    assert report["total"] == 15
    assert report["closure_violations"] == 0


def _replace_line(path, lineno, text):
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[lineno - 1] = text
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _truncated_instances(tmp_path):
    inst, _ = _canonical(tmp_path, n=3)
    _replace_line(inst, 2, inst.read_text(encoding="utf-8").splitlines()[1][:40])
    cfg = _write_yaml(tmp_path / "sft.yaml", {"instances": str(inst)})
    return ["build-sft", "--config", cfg, "--out", str(tmp_path / "run")], 2


def _instances_cut_mid_character(tmp_path):
    inst, corpus = _canonical(tmp_path, n=3)
    with open(inst, "ab") as f:
        f.write('{"text": "café'.encode("utf-8")[:-1])
    cfg = _write_yaml(tmp_path / "sft.yaml", {"instances": str(inst)})
    return ["build-sft", "--config", cfg, "--out", str(tmp_path / "run")], len(corpus) + 1


def _instance_missing_fields(tmp_path):
    inst, _ = _canonical(tmp_path, n=3)
    record = json.loads(inst.read_text(encoding="utf-8").splitlines()[2])
    del record["gold"]
    _replace_line(inst, 3, json.dumps(record))
    cfg = _write_yaml(tmp_path / "sft.yaml", {"instances": str(inst)})
    return ["build-sft", "--config", cfg, "--out", str(tmp_path / "run")], 3


def _edited_second_instance(tmp_path, edit):
    """A build-sft run over three NER instances whose second record is
    replaced by `edit(second, first)`."""
    inst, _ = _canonical(tmp_path, n=3)
    first, second = map(json.loads, inst.read_text(encoding="utf-8").splitlines()[:2])
    _replace_line(inst, 2, json.dumps(edit(second, first)))
    cfg = _write_yaml(tmp_path / "sft.yaml", {"instances": str(inst)})
    return ["build-sft", "--config", cfg, "--out", str(tmp_path / "run")], 2


def _instance_gold_one_slot_short(tmp_path):
    return _edited_second_instance(tmp_path, lambda rec, first: {**rec, "gold": [["Paris"]]})


def _instance_text_not_a_string(tmp_path):
    return _edited_second_instance(tmp_path, lambda rec, first: {**rec, "text": 5})


def _instance_label_not_in_schema(tmp_path):
    return _edited_second_instance(tmp_path, lambda rec, first: {**rec, "gold": [["Paris", "no_such_label"]]})


def _duplicate_instance_id(tmp_path):
    return _edited_second_instance(tmp_path, lambda rec, first: first)


def _prediction_without_output(tmp_path):
    inst, corpus = _canonical(tmp_path, n=3)
    pred = tmp_path / "pred.jsonl"
    # the blank line counts: the error names the line in the file
    pred.write_text(f'{{"id": "{corpus[0].id}", "output": "NA"}}\n\n{{"id": "{corpus[1].id}"}}\n',
                    encoding="utf-8")
    return ["evaluate", "--pred", str(pred), "--gold", str(inst)], 3


def _prediction_output_not_a_string(tmp_path):
    inst, corpus = _canonical(tmp_path, n=3)
    pred = tmp_path / "pred.jsonl"
    pred.write_text(f'{{"id": "{corpus[0].id}", "output": "NA"}}\n{{"id": "{corpus[1].id}", "output": 5}}\n',
                    encoding="utf-8")
    return ["evaluate", "--pred", str(pred), "--gold", str(inst)], 2


def _duplicate_prediction_id(tmp_path):
    inst, corpus = _canonical(tmp_path, n=3)
    perfect = _perfect_ner_output(corpus[0])
    records = [
        {"id": corpus[0].id, "output": perfect},
        {"id": corpus[0].id, "output": "NA"},
        {"id": "no-such-id", "output": perfect},
    ]
    pred = tmp_path / "pred.jsonl"
    pred.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return ["evaluate", "--pred", str(pred), "--gold", str(inst)], 2


@pytest.mark.parametrize(
    "case",
    [
        _truncated_instances,
        _instances_cut_mid_character,
        _instance_missing_fields,
        _instance_gold_one_slot_short,
        _instance_text_not_a_string,
        _instance_label_not_in_schema,
        _duplicate_instance_id,
        _prediction_without_output,
        _prediction_output_not_a_string,
        _duplicate_prediction_id,
    ],
    ids=lambda case: case.__name__.lstrip("_"),
)
def test_malformed_input_is_data_error_naming_its_line(runner, tmp_path, case):
    args, line = case(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    result = runner.invoke(main, args)
    assert result.exit_code == 1, result.output
    assert result.output.startswith("data error: ")
    assert result.output.rstrip().endswith(f"| line {line}")
    assert sorted(tmp_path.rglob("*")) == before
