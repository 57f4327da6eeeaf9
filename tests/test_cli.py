"""CLI tests: every subcommand end to end with mock backends, exit-code
mapping, and pre-flight validation before any output is written."""

import json
import re
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner
from conftest import assert_kept, fail_on_second

from iealign.cli import DPO_KEYS, SFT_KEYS, _load_config, _make_backend, _options, _write_json, main
from iealign.pipeline import SftOptions, config_digest
from iealign.prefpairs import DpoPlan
from iealign.errors import DataError
from iealign.formats import load_format_library, spec_to_json
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


@pytest.mark.parametrize("text,message", [
    ("{not json", "is not JSON"),
    ('{"task": "NER"}', "is not a schema: KeyError('labels')"),
    ('["NER"]', "is not a schema"),
    ('{"task": "NER", "labels": [{"name": "person", "exemplars": [5]}]}', "an exemplar of label 'person' is not a string"),
    ('{"task": "NER", "labels": []}', "schema: no labels"),
], ids=["not_json", "no_labels", "not_an_object", "exemplar_not_a_string", "empty_labels"])
def test_ingest_bad_schema_file_exits_2(runner, tmp_path, text, message):
    """A schema file that is not a valid schema is a configuration error
    before any line is read, not a traceback or every line skipped."""
    raw, schema, _ = _raw_dataset(tmp_path)
    schema.write_text(text, encoding="utf-8")
    cfg = _write_yaml(tmp_path / "cfg.yaml", {"dataset": "d", "task": "NER", "path": str(raw), "schema": str(schema)})
    out = tmp_path / "out.jsonl"
    for flags in ([], ["--lenient"]):
        result = runner.invoke(main, ["ingest", "--config", cfg, "--out", str(out), *flags])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("configuration error: schema file") and message in result.output
        assert not out.exists()


@pytest.mark.parametrize("schema_text", [None, "null"], ids=["no_schema_key", "schema_file_null"])
def test_ingest_closed_ie_without_schema_exits_2(runner, tmp_path, schema_text):
    """A closed-IE reader without a schema is a configuration error before
    any line is read, not every line failing, or under --lenient every line
    skipped into an empty file."""
    raw, _, _ = _raw_dataset(tmp_path)
    config = {"dataset": "d", "task": "NER", "path": str(raw)}
    if schema_text is not None:
        (tmp_path / "none.json").write_text(schema_text, encoding="utf-8")
        config["schema"] = str(tmp_path / "none.json")
    cfg = _write_yaml(tmp_path / "cfg.yaml", config)
    out = tmp_path / "out.jsonl"
    for flags in ([], ["--lenient"]):
        result = runner.invoke(main, ["ingest", "--config", cfg, "--out", str(out), *flags])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("configuration error: a NER reader needs a schema")
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


def _base_config(tmp_path, command):
    """A config that `command` accepts: the raw file and its schema for
    ingest, one dataset and a general corpus for mix, and the instances and
    a mock backend for the builds."""
    if command == "ingest":
        raw, schema, _ = _raw_dataset(tmp_path)
        return {"dataset": "d", "task": "NER", "path": str(raw), "schema": str(schema)}
    if command == "mix":
        a, _ = _canonical(tmp_path, name="a.jsonl")
        general, _ = _canonical(tmp_path, TaskKind.RE, seed=2, name="general.jsonl")
        return {"datasets": {"a": str(a)}, "general": str(general)}
    inst, _ = _canonical(tmp_path)
    return {"instances": str(inst), "backend": {"kind": "mock", "policy": "fixed:x"}}


@pytest.mark.parametrize("inputs", ["one_file_twice", "general_overlaps_a_dataset"])
def test_mix_rejects_an_instance_id_two_inputs_hold(runner, tmp_path, inputs):
    """An instance that two inputs hold would be in the mixed corpus twice,
    which build-sft rejects: a data error naming the id and both inputs,
    before any output is written."""
    a, corpus = _canonical(tmp_path, name="a.jsonl")
    b, _ = _canonical(tmp_path, TaskKind.RE, seed=2, name="b.jsonl")
    if inputs == "one_file_twice":
        config, where = {"datasets": {"a": str(a), "again": str(a)}}, "datasets.a and datasets.again"
    else:
        config, where = {"datasets": {"a": str(a), "b": str(b)}, "general": str(a)}, "datasets.a and general"
    cfg = _write_yaml(tmp_path / "mix.yaml", config)
    out = tmp_path / "mixed.jsonl"
    result = runner.invoke(main, ["mix", "--config", cfg, "--out", str(out)])
    assert result.exit_code == 1, result.output
    assert f"data error: duplicate instance id {corpus[0].id!r} in {where}" in result.output
    assert not out.exists()


@pytest.mark.parametrize("command,defaults", [
    ("ingest", {"na_keep_rate": 0.2, "max_tokens": 2048, "seed": 0}),
    ("mix", {"cap": 5000, "ie_rate": 0.2, "seed": 0}),
])
def test_omitted_config_keys_take_their_defaults(runner, tmp_path, command, defaults):
    """A config that omits every optional key writes the same bytes as one
    that spells out the documented defaults."""
    if command == "ingest":
        raw, schema, _ = _raw_dataset(tmp_path, n=200, na_rate=0.5)
        base = {"dataset": "d", "task": "NER", "path": str(raw), "schema": str(schema)}
    else:
        a, _ = _canonical(tmp_path, n=60, name="a.jsonl")
        general, _ = _canonical(tmp_path, TaskKind.RE, n=100, seed=2, name="general.jsonl")
        base = {"datasets": {"a": str(a)}, "general": str(general)}
    written = []
    for config in (base, {**base, **defaults}):
        out = tmp_path / f"out{len(written)}.jsonl"
        path = _write_yaml(tmp_path / "cfg.yaml", config)
        result = runner.invoke(main, [command, "--config", path, "--out", str(out)])
        assert result.exit_code == 0, result.output
        written.append(out.read_bytes())
    assert written[0] == written[1]


def test_mix_missing_datasets_key_exits_2(runner, tmp_path):
    cfg = _write_yaml(tmp_path / "mix.yaml", {"cap": 50})
    assert runner.invoke(main, ["mix", "--config", cfg, "--out", str(tmp_path / "o.jsonl")]).exit_code == 2


@pytest.mark.parametrize("command,values,message", [
    ("ingest", {"na_keep_rate": "0.5"}, "ingest config na_keep_rate must be float, got '0.5'"),
    ("ingest", {"seed": "x"}, "ingest config seed must be int, got 'x'"),
    ("ingest", {"null_labels": "NONE"}, "ingest config null_labels must be tuple[str, ...], got 'NONE'"),
    ("mix", {"cap": "5"}, "mix config cap must be int, got '5'"),
    ("mix", {"quotas": {"a": "1"}}, "mix config quotas must be dict[str, int], got {'a': '1'}"),
    ("mix", {"ie_rate": "0.2"}, "mix config ie_rate must be float, got '0.2'"),
    ("mix", {"datasets": ["a.jsonl"]}, "mix config datasets must be dict[str, str], got ['a.jsonl']"),
], ids=["na_keep_rate", "seed", "null_labels", "cap", "quotas", "ie_rate", "datasets"])
def test_ingest_and_mix_mistyped_config_exits_2(runner, tmp_path, command, values, message):
    """A config value of the wrong type is a configuration error before any
    input is read or output written, not a traceback or a silent seed."""
    cfg = _write_yaml(tmp_path / "cfg.yaml", {**_base_config(tmp_path, command), **values})
    out = tmp_path / "out.jsonl"
    result = runner.invoke(main, [command, "--config", cfg, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert f"configuration error: {message}" in result.output
    assert not out.exists()


@pytest.mark.parametrize("command,values,message", [
    ("ingest", {"max_tokens": 0}, "max_tokens must be >= 1, got 0"),
    ("mix", {"quotas": {"a": -1}}, "quotas must be >= 0, got {'a': -1}"),
    ("mix", {"quotas": {"b": 3}}, "quotas name datasets not in the mixture: ['b']"),
    ("mix", {"datasets": {}}, "no datasets to mix"),
], ids=["max_tokens", "negative_quota", "unknown_quota", "no_datasets"])
def test_ingest_and_mix_out_of_range_config_exits_2(runner, tmp_path, command, values, message):
    """An out-of-range value is a configuration error before any output is
    written, not a traceback, an empty output or a quota silently ignored."""
    cfg = _write_yaml(tmp_path / "cfg.yaml", {**_base_config(tmp_path, command), **values})
    out = tmp_path / "out.jsonl"
    result = runner.invoke(main, [command, "--config", cfg, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert f"configuration error: {message}" in result.output
    assert not out.exists()


@pytest.mark.parametrize("command,key,message,flags", [
    ("ingest", "na_keep_rate", "na_keep_rate must be in [0, 1], got 1.5", []),
    ("ingest", "na_keep_rate", "na_keep_rate must be in [0, 1], got 1.5", ["--lenient"]),
    ("mix", "ie_rate", "ie_rate must be in (0, 1), got 1.5", []),
], ids=["na_keep_rate", "na_keep_rate_lenient", "ie_rate"])
def test_out_of_range_rate_over_a_bad_input_exits_2(runner, tmp_path, command, key, message, flags):
    """An out-of-range rate is a configuration error naming its config key,
    found before the input is read: over an input whose first line is not
    JSON it is not reported as that line's data error."""
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n", encoding="utf-8")
    base = _base_config(tmp_path, command)
    inputs = {"path": str(bad)} if command == "ingest" else {"datasets": {"a": str(bad)}, "general": str(bad)}
    cfg = _write_yaml(tmp_path / "cfg.yaml", {**base, **inputs, key: 1.5})
    out = tmp_path / "out.jsonl"
    result = runner.invoke(main, [command, "--config", cfg, "--out", str(out), *flags])
    assert result.exit_code == 2, result.output
    assert f"configuration error: {message}" in result.output
    assert not out.exists()


@pytest.mark.parametrize("command,values,message", [
    ("ingest", {"na_keep_rte": 1.0}, "unknown ingest config keys: ['na_keep_rte']"),
    ("mix", {"ie_rte": 0.5, 7: 1}, "unknown mix config keys: [7, 'ie_rte']"),
    ("build-sft", {"pool_dir": "pools"}, "unknown build-sft config keys: ['pool_dir']"),
    ("build-dpo", {"options": {}}, "unknown build-dpo config keys: ['options']"),
    ("build-dpo", {"pool_dir": "pools"}, "unknown build-dpo config keys: ['pool_dir']"),
], ids=["ingest", "mix", "build-sft", "build-dpo", "build-dpo-pool_dir"])
def test_unknown_config_key_exits_2(runner, tmp_path, command, values, message):
    """A top-level config key the command does not read is a configuration
    error before any output is written, not a setting silently left at its
    default."""
    cfg = _write_yaml(tmp_path / "cfg.yaml", {**_base_config(tmp_path, command), **values})
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


def test_build_sft_keeps_a_text_placeholder_in_a_demonstration(runner, tmp_path):
    """An instance text that holds the literal `{text}` is content: it reaches
    its own prompt and, as a demonstration, every other instance's."""
    inst, corpus = _canonical(tmp_path, n=3)
    _replace_line(inst, 2, json.dumps({**json.loads(inst.read_text(encoding="utf-8").splitlines()[1]),
                                       "text": "Run print('{text}') in Paris."}))
    cfg = _write_yaml(tmp_path / "sft.yaml", {
        "instances": str(inst),
        "options": {"demo_rate": 1.0, "demo_k_range": [2, 2]},
    })
    out = tmp_path / "run"
    result = runner.invoke(main, ["build-sft", "--config", cfg, "--out", str(out)])
    assert result.exit_code == 0, result.output
    prompts = [json.loads(line)["prompt"] for line in (out / "sft.jsonl").read_text(encoding="utf-8").splitlines()]
    assert len(prompts) == len(corpus) and all("print('{text}')" in prompt for prompt in prompts)


def test_build_sft_unknown_option_exits_2(runner, tmp_path):
    inst, _ = _canonical(tmp_path)
    # the seed is set at the top level, and the demonstration pool size is a constant
    for options in ({"bogus": 1}, {"seed": 3}, {"demo_pool_size": 64}):
        cfg = _write_yaml(tmp_path / "sft.yaml", {"instances": str(inst), "options": options})
        result = runner.invoke(main, ["build-sft", "--config", cfg, "--out", str(tmp_path / "run")])
        assert result.exit_code == 2
        assert f"unknown SFT option keys: {sorted(options)}" in result.output


def test_build_dpo_unknown_plan_key_exits_2(runner, tmp_path):
    inst, _ = _canonical(tmp_path)
    cfg = _write_yaml(tmp_path / "dpo.yaml", {"instances": str(inst), "plan": {"target_sise": 5}})
    out = tmp_path / "run"
    result = runner.invoke(main, ["build-dpo", "--config", cfg, "--out", str(out), "--backend", "fixed:x"])
    assert result.exit_code == 2
    assert "unknown DPO plan option keys: ['target_sise']" in result.output
    assert not out.exists()


@pytest.mark.parametrize("command,key,values,message", [
    ("build-dpo", "plan", {"target_size": -5}, "target_size must be >= 0, got -5"),
    ("build-dpo", "plan", {"samples_per_instance": 0}, "samples_per_instance must be >= 1, got 0"),
    ("build-dpo", "plan", {"sample_temperature": -0.5}, "sample_temperature must be >= 0, got -0.5"),
    ("build-sft", "options", {"demo_k_range": [8, 1]}, "demo_k_range must be (lo, hi) with 0 <= lo <= hi"),
    ("build-sft", "options", {"demo_k_range": [-1, 2]}, "demo_k_range must be (lo, hi) with 0 <= lo <= hi"),
    ("build-sft", "options", {"cot_per_task": -1}, "cot_per_task must be >= 0, got -1"),
    ("build-sft", "options", {"cot_rate": 1.5}, "cot_rate must be in [0, 1], got 1.5"),
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
    ("build-dpo", "seed", "seven", "build-dpo config seed must be int, got 'seven'"),
    ("build-dpo", "instances", 5, "build-dpo config instances must be str, got 5"),
    ("build-dpo", "plan", {"pool_dir": 5}, "DPO plan option pool_dir must be Optional[str], got 5"),
    ("build-dpo", "cache_dir", 5, "build-dpo config cache_dir must be Optional[str], got 5"),
    ("build-sft", "options", [1], "build-sft config options must be Optional[dict], got [1]"),
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
    ([1, 2], None, "build-dpo config backend must be Optional[dict], got [1, 2]"),
    ({"kind": "live", "endpoint": "http://localhost:9/v1"}, None, "live backend missing ['model']"),
    ({"kind": "live", "model": "m"}, None, "live backend missing ['endpoint']"),
    (None, "https://localhost:9/v1", "live backend missing ['model']"),
    ({"kind": "mock", "policy": "noisy_gold:abc"}, None,
     "noisy_gold rate must be a number in [0, 1], got 'noisy_gold:abc'"),
    (None, "noisy_gold:1.5", "noisy_gold rate must be a number in [0, 1], got 'noisy_gold:1.5'"),
    (None, "bogus", "unknown mock policy 'bogus'"),
    ({"kind": "mock", "seed": "x"}, None, "mock backend seed must be int, got 'x'"),
    ({**_LIVE, "workers": 8}, None, "unknown live backend keys: ['workers']"),
    ({**_LIVE, "qsp": 3}, None, "unknown live backend keys: ['qsp']"),
    ({**_LIVE, "endpoint": 5}, None, "live backend endpoint must be str, got 5"),
    ({"kind": "telepathy"}, None, "unknown backend kind 'telepathy'"),
    ({"kind": ["live"]}, None, "unknown backend kind ['live']"),
    ({"kind": "mock", "policy": 5}, None, "mock backend policy must be str, got 5"),
], ids=["qps", "not_mapping", "no_model", "no_endpoint", "url_override_no_model", "policy_not_number",
        "policy_rate_range", "policy_unknown", "mock_seed", "workers_key", "typo_key", "endpoint_type",
        "unknown_kind", "unhashable_kind", "policy_type"])
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


@pytest.mark.parametrize("command,section,label,mistyped,message", [
    ("ingest", None, "ingest config", {"max_tokens": "9"}, "ingest config max_tokens must be int, got '9'"),
    ("mix", None, "mix config", {"general": 5}, "mix config general must be Optional[str], got 5"),
    ("build-sft", None, "build-sft config", {"seed": 1.5}, "build-sft config seed must be int, got 1.5"),
    ("build-sft", "options", "SFT option", {"symbol_rate": "high"}, "SFT option symbol_rate must be float, got 'high'"),
    ("build-dpo", None, "build-dpo config", {"instances": ["a"]}, "build-dpo config instances must be str, got ['a']"),
    ("build-dpo", "plan", "DPO plan option", {"offline_rate": None}, "DPO plan option offline_rate must be float, got None"),
    ("build-dpo", "backend", "mock backend", {"seed": "5"}, "mock backend seed must be int, got '5'"),
    ("build-dpo", "backend", "live backend", {"model": 5}, "live backend model must be str, got 5"),
], ids=["ingest", "mix", "build-sft", "build-sft-options", "build-dpo", "build-dpo-plan", "mock-backend",
        "live-backend"])
def test_every_config_mapping_rejects_unknown_key_and_wrong_type(
    runner, tmp_path, command, section, label, mistyped, message
):
    """Each config mapping is checked against its own table of keys and
    types: an unknown key or a value of the wrong type exits 2 before any
    file is written."""
    base = _base_config(tmp_path, command)
    if label == "live backend":
        base["backend"] = dict(_LIVE)
    for values, expected in (({"bogus": 1}, f"unknown {label} keys: ['bogus']"), (mistyped, message)):
        cfg = {**base, **values} if section is None else {**base, section: {**base.get(section, {}), **values}}
        path = _write_yaml(tmp_path / "cfg.yaml", cfg)
        result = runner.invoke(main, [command, "--config", path, "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert f"configuration error: {expected}" in result.output
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,values", [
    ("build-sft", {"options": {"pool_dir": "no-such-dir"}}),
    ("build-dpo", {"plan": {"pool_dir": "no-such-dir"}}),
], ids=["build-sft", "build-dpo"])
def test_build_missing_pool_dir_exits_2(runner, tmp_path, monkeypatch, command, values):
    """A description pool directory that does not exist is a configuration
    error, not a silent fall-back to the packaged descriptions."""
    monkeypatch.chdir(tmp_path)
    cfg = _write_yaml(tmp_path / "cfg.yaml", {**_base_config(tmp_path, command), **values})
    result = runner.invoke(main, [command, "--config", cfg, "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert "configuration error: input file not found: no-such-dir" in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,section,output", [
    ("build-sft", "options", "sft.jsonl"),
    ("build-dpo", "plan", "dpo.jsonl"),
])
def test_build_reads_pool_dir_from_its_section(runner, tmp_path, command, section, output):
    """Both builds take `pool_dir` in the section their options class reads
    (`options:` or `plan:`), and every prompt then starts with a description
    from its files."""
    (tmp_path / "pools" / "NER").mkdir(parents=True)
    (tmp_path / "pools" / "NER" / "manual.txt").write_text("Own description.\n", encoding="utf-8")
    config = {**_base_config(tmp_path, command), section: {"pool_dir": str(tmp_path / "pools")}}
    cfg = _write_yaml(tmp_path / "cfg.yaml", config)
    result = runner.invoke(main, [command, "--config", cfg, "--out", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    prompts = [json.loads(line)["prompt"] for line in (tmp_path / "out" / output).read_text().splitlines()]
    assert prompts and all(prompt.startswith("Own description.") for prompt in prompts)


@pytest.mark.parametrize("command", ["build-sft", "build-dpo"])
def test_build_cache_dir_that_is_a_file_exits_2(runner, tmp_path, command):
    """A cache_dir that names a regular file is a configuration error before
    anything is written, not a FileExistsError from the first cache entry
    put; a cache_dir that does not exist yet is made."""
    base = _base_config(tmp_path, command)
    if command == "build-sft":
        base["options"] = {"cot_rate": 1.0}  # CoT requests put cache entries
    (tmp_path / "a-file").write_text("", encoding="utf-8")
    cfg = _write_yaml(tmp_path / "cfg.yaml", {**base, "cache_dir": str(tmp_path / "a-file")})
    before = sorted(tmp_path.rglob("*"))
    result = runner.invoke(main, [command, "--config", cfg, "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert f"configuration error: cache_dir {tmp_path / 'a-file'} is not a directory" in result.output
    assert sorted(tmp_path.rglob("*")) == before
    cfg = _write_yaml(tmp_path / "cfg.yaml", {**base, "cache_dir": str(tmp_path / "new-dir")})
    result = runner.invoke(main, [command, "--config", cfg, "--out", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    assert list((tmp_path / "new-dir").glob("*.json"))


@pytest.mark.parametrize("command,values,kind", [
    ("ingest", {"path": "a-dir"}, "regular file"),
    ("ingest", {"schema": "a-dir"}, "regular file"),
    ("mix", {"datasets": {"a": "a-dir"}}, "regular file"),
    ("mix", {"general": "a-dir"}, "regular file"),
    ("build-sft", {"instances": "a-dir"}, "regular file"),
    ("build-sft", {"options": {"pool_dir": "a-file"}}, "directory"),
    ("build-dpo", {"plan": {"pool_dir": "a-file"}}, "directory"),
    ("stats", ["--corpus", "a-dir"], "regular file"),
    ("evaluate", ["--pred", "a-dir", "--gold", "a-file"], "regular file"),
    ("evaluate", ["--pred", "a-file", "--gold", "a-dir"], "regular file"),
], ids=["ingest-path", "ingest-schema", "mix-dataset", "mix-general", "build-sft-instances",
        "build-sft-pool_dir", "build-dpo-pool_dir", "stats-corpus", "evaluate-pred", "evaluate-gold"])
def test_input_path_of_the_wrong_kind_exits_2(runner, tmp_path, monkeypatch, command, values, kind):
    """A file key or flag that names a directory, or a pool_dir that names a
    regular file, is a configuration error before anything is written, not
    an IsADirectoryError traceback or a silent fall-back to the packaged
    descriptions."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a-dir").mkdir()
    (tmp_path / "a-file").write_text("{}\n", encoding="utf-8")
    if isinstance(values, dict):
        args = [command, "--config", _write_yaml(tmp_path / "cfg.yaml", {**_base_config(tmp_path, command), **values})]
    else:
        args = [command, *values]
    before = sorted(tmp_path.rglob("*"))
    result = runner.invoke(main, [*args, "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    named = "a-file" if kind == "directory" else "a-dir"
    assert f"configuration error: input {named} is not a {kind}" in result.output
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command,kind", [
    ("ingest", "regular file"),
    ("mix", "regular file"),
    ("build-sft", "directory"),
    ("build-dpo", "directory"),
    ("evaluate", "regular file"),
    ("stats", "regular file"),
])
def test_out_of_the_wrong_kind_exits_2(runner, tmp_path, command, kind):
    """An --out file that names a directory, or a build's --out directory
    that names a file, is a configuration error before any input is read
    (for build-dpo, before any model call), not a traceback once the job is
    done. An --out that does not exist yet is valid."""
    if command in ("evaluate", "stats"):
        inst, _ = _canonical(tmp_path)
        (tmp_path / "pred.jsonl").write_text("", encoding="utf-8")
        args = ["--pred", str(tmp_path / "pred.jsonl"), "--gold", str(inst)] if command == "evaluate" else ["--corpus", str(inst)]
    else:
        args = ["--config", _write_yaml(tmp_path / "cfg.yaml", _base_config(tmp_path, command))]
    out = tmp_path / "out"
    out.mkdir() if kind == "regular file" else out.write_text("kept\n", encoding="utf-8")
    before = sorted(tmp_path.rglob("*"))
    result = runner.invoke(main, [command, *args, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert f"configuration error: output {out} is not a {kind}" in result.output
    assert sorted(tmp_path.rglob("*")) == before
    out.rmdir() if kind == "regular file" else out.unlink()
    assert runner.invoke(main, [command, *args, "--out", str(out)]).exit_code == 0
    assert out.is_dir() if kind == "directory" else out.is_file()


@pytest.mark.parametrize("command,where", [
    ("ingest", "--out"),
    ("mix", "--out"),
    ("build-sft", "--out"),
    ("build-dpo", "--out"),
    ("evaluate", "--out"),
    ("stats", "--out"),
    ("build-sft", "cache_dir"),
    ("build-dpo", "cache_dir"),
])
def test_output_under_a_regular_file_exits_2(runner, tmp_path, command, where):
    """An --out or a cache_dir whose nearest existing ancestor is a regular
    file cannot be made: a configuration error before anything is written,
    not a NotADirectoryError or FileExistsError once the job is done."""
    (tmp_path / "a-file").write_text("kept\n", encoding="utf-8")
    under = tmp_path / "a-file" / "deeper" / "out"
    out = tmp_path / "out"
    if command in ("evaluate", "stats"):
        inst, _ = _canonical(tmp_path)
        (tmp_path / "pred.jsonl").write_text("", encoding="utf-8")
        args = ["--pred", str(tmp_path / "pred.jsonl"), "--gold", str(inst)] if command == "evaluate" else ["--corpus", str(inst)]
    else:
        config = _base_config(tmp_path, command)
        if where == "cache_dir":
            config["cache_dir"] = str(under)
            if command == "build-sft":
                config["options"] = {"cot_rate": 1.0}  # CoT requests put cache entries
        args = ["--config", _write_yaml(tmp_path / "cfg.yaml", config)]
    if where == "--out":
        out = under
        kind = "directory" if command.startswith("build") else "regular file"
        expected = f"configuration error: output {under} is not a {kind}"
    else:
        expected = f"configuration error: cache_dir {under} is not a directory"
    before = sorted(tmp_path.rglob("*"))
    result = runner.invoke(main, [command, *args, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert expected in result.output
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command", ["ingest", "mix", "build-sft", "build-dpo"])
@pytest.mark.parametrize("write", [
    lambda path: path.write_bytes(b"seed: caf\xe9\n"),
    lambda path: path.mkdir(),
], ids=["not_utf8", "directory"])
def test_unreadable_config_file_exits_2(runner, tmp_path, command, write):
    """A config file that is not UTF-8, or a --config that names a
    directory, is a configuration error, not a traceback."""
    cfg = tmp_path / "cfg.yaml"
    write(cfg)
    out = tmp_path / "out"
    result = runner.invoke(main, [command, "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert result.output.startswith(f"configuration error: invalid config {cfg}: ")
    assert not out.exists()


@pytest.mark.parametrize("name,keys,cls,label,section", [
    ("sft", SFT_KEYS, SftOptions, "SFT option", "options"),
    ("dpo", DPO_KEYS, DpoPlan, "DPO plan option", "plan"),
])
def test_readme_build_config_examples_pass_the_config_checks(tmp_path, name, keys, cls, label, section):
    """The README's example `sft.yaml` and `dpo.yaml` pass the checks their
    build makes, and every option they set reaches the options class: a key
    that moves cannot leave the docs behind."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    examples = dict(re.findall(r"Example `(\w+)\.yaml`:\n\n```yaml\n(.*?)```", readme, re.S))
    (tmp_path / f"{name}.yaml").write_text(examples[name], encoding="utf-8")
    cfg = _load_config(str(tmp_path / f"{name}.yaml"), f"build-{name} config", keys, ("instances",), None)
    options = _options(cls, label, cfg, section)
    assert {key: getattr(options, key) for key in cfg[section]} == {
        key: tuple(value) if isinstance(value, list) else value for key, value in cfg[section].items()
    }
    assert _make_backend(cfg, None) is not None


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


def test_manifest_config_digest_covers_a_backend_override(runner, tmp_path):
    """The manifest digests the config with the backend that --backend made;
    without --backend, the config as the file holds it."""
    inst, _ = _canonical(tmp_path, n=20)
    config = {"instances": str(inst), "plan": {"target_size": 10}, "backend": {"policy": "noisy_gold:0.6"}}
    cfg = _write_yaml(tmp_path / "dpo.yaml", config)
    digests = {}
    for override in (None, "echo_gold", "noisy_gold:0.6"):
        out = tmp_path / f"run-{override}"
        args = ["build-dpo", "--config", cfg, "--out", str(out)] + (["--backend", override] if override else [])
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        digests[override] = json.loads((out / "manifest.json").read_text())["config_digest"]
    assert digests["echo_gold"] != digests["noisy_gold:0.6"]
    assert digests[None] == config_digest(config)
    assert digests["noisy_gold:0.6"] == config_digest({**config, "backend": {"kind": "mock", "policy": "noisy_gold:0.6"}})


@pytest.mark.parametrize("command,output", [("build-sft", "sft.jsonl"), ("build-dpo", "dpo.jsonl")])
def test_build_ondemand_ie_from_the_packaged_descriptions(runner, tmp_path, command, output):
    """On-demand IE instances build with no pool_dir: every prompt opens with
    one of the packaged descriptions."""
    from iealign.prompts import load_description_pool

    inst, corpus = _canonical(tmp_path, TaskKind.ONDEMANDIE, n=30)
    cfg = _write_yaml(tmp_path / "run.yaml", {"instances": str(inst)})
    out = tmp_path / "run"
    result = runner.invoke(main, [command, "--config", cfg, "--out", str(out), "--backend", "noisy_gold:0.6"])
    assert result.exit_code == 0, result.output
    records = [json.loads(line) for line in (out / output).read_text(encoding="utf-8").splitlines()]
    assert records and {r["id"] for r in records} <= {i.id for i in corpus}
    pool = load_description_pool(TaskKind.ONDEMANDIE, None)
    assert all(r["prompt"].split("\n\n", 1)[0] in pool for r in records)


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


def test_evaluate_and_stats_print_the_bytes_their_out_file_holds(runner, tmp_path):
    """Without --out, `evaluate` and `stats` print exactly the bytes their
    --out file holds: one report text, non-ASCII kept, newline-ended."""
    corpus = make_corpus(TaskKind.NER, 12, dataset="données", seed=2)
    inst = tmp_path / "inst.jsonl"
    write_instances(corpus, inst)
    pred = tmp_path / "pred.jsonl"  # a right answer, one that does not parse, and the rest missing
    preds = [{"id": corpus[0].id, "output": _perfect_ner_output(corpus[0])}, {"id": corpus[1].id, "output": "é («"}]
    pred.write_text("".join(json.dumps(p) + "\n" for p in preds), encoding="utf-8")
    run = tmp_path / "run"
    cfg = _write_yaml(tmp_path / "sft.yaml", {"instances": str(inst), "options": {"max_tokens": 100000}})
    assert runner.invoke(main, ["build-sft", "--config", cfg, "--out", str(run)]).exit_code == 0
    for args in (["evaluate", "--pred", str(pred), "--gold", str(inst)], ["stats", "--corpus", str(run / "sft.jsonl")]):
        out = tmp_path / f"{args[0]}.json"
        written = runner.invoke(main, [*args, "--out", str(out)])
        printed = runner.invoke(main, args)
        assert written.exit_code == printed.exit_code == 0, printed.output
        assert written.stdout_bytes == b""
        assert printed.stdout_bytes == out.read_bytes()
        assert "données".encode("utf-8") in printed.stdout_bytes and printed.stdout_bytes.endswith(b"}\n")


def test_stats_cli_counts_malformed(runner, tmp_path):
    inst, _ = _canonical(tmp_path, n=15)
    run = tmp_path / "run"
    cfg = _write_yaml(tmp_path / "sft.yaml", {"instances": str(inst), "options": {"max_tokens": 100000}})
    assert runner.invoke(main, ["build-sft", "--config", cfg, "--out", str(run)]).exit_code == 0
    corpus_path = run / "sft.jsonl"
    record = json.loads(corpus_path.read_text(encoding="utf-8").splitlines()[0])
    slot_twice = {"family": "Triplet", "name": "slot-twice", "task": "NER", "input_template": "",
                  "answer_template": "{entity}: {entity};"}
    not_sft_records = [
        {"id": "a"},
        {"id": "a", "task": "NER", "format": 5, "demonstrations": []},
        {**record, "task": "XX"},
        {**record, "format": slot_twice},  # a template that cannot compile
    ]
    with open(corpus_path, "ab") as f:
        f.write(b"oops not json\n" + b'{"cut mid-character": "caf\xc3\n')
        f.write(b"[" * 100_000 + b"]" * 100_000 + b"\n")  # nested too deep to decode
        f.write(b"".join(json.dumps(r).encode("utf-8") + b"\n" for r in not_sft_records))
    result = runner.invoke(main, ["stats", "--corpus", str(corpus_path)])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["malformed_lines"] == 7
    assert report["total"] == 15
    assert report["closure_violations"] == 0


def test_stats_cli_counts_a_format_the_loader_rejects_as_malformed(runner, tmp_path):
    """A record whose format fails the library's own check is a malformed
    line, not a record parsed under a broken format."""
    inst, _ = _canonical(tmp_path, n=20)
    run = tmp_path / "run"
    cfg = _write_yaml(tmp_path / "sft.yaml", {"instances": str(inst), "options": {"max_tokens": 100000}})
    assert runner.invoke(main, ["build-sft", "--config", cfg, "--out", str(run)]).exit_code == 0
    corpus_path = run / "sft.jsonl"
    records = [json.loads(line) for line in corpus_path.read_text(encoding="utf-8").splitlines()]
    assert len(records) == 20 and {r["format"]["family"] for r in records[:3]} <= {"Triplet", "NaturalLanguage"}
    for i, edit in enumerate([{"family": "Yaml"}, {"answer_template": "{entity}: {kind};"}, {"fail_output": ""}]):
        records[i] = {**records[i], "format": {**records[i]["format"], **edit}}
    corpus_path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    result = runner.invoke(main, ["stats", "--corpus", str(corpus_path)])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["malformed_lines"] == 3 and report["total"] == 17


def test_stats_cli_counts_a_record_whose_template_lacks_its_label_slot(runner, tmp_path):
    """A record whose format's template has no label slot is malformed: its
    answers could not parse back to labelled items. stats exits 0, counts it
    as a malformed line and reads no closure violation from it."""
    inst, _ = _canonical(tmp_path, n=15)
    run = tmp_path / "run"
    cfg = _write_yaml(tmp_path / "sft.yaml", {"instances": str(inst), "options": {"max_tokens": 100000}})
    assert runner.invoke(main, ["build-sft", "--config", cfg, "--out", str(run)]).exit_code == 0
    corpus_path = run / "sft.jsonl"
    records = [json.loads(line) for line in corpus_path.read_text(encoding="utf-8").splitlines()]
    records[0] = {**records[0], "answer": "Paris;", "format": {
        "family": "Triplet", "name": "entity-only", "task": "NER", "input_template": "",
        "answer_template": "{entity};",
    }}
    corpus_path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    result = runner.invoke(main, ["stats", "--corpus", str(corpus_path)])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["total"] == 14 and report["malformed_lines"] == 1
    assert report["closure_violations"] == 0
    assert report["closure_violating_ids"] == []


def test_stats_cli_counts_a_json_answer_whose_slot_value_is_a_list(runner, tmp_path):
    """A Json-format answer whose item holds a list slot value parses
    leniently with that item dropped as a bad item: stats exits 0, counts
    the record, and reads no label from the dropped item."""
    inst, _ = _canonical(tmp_path, n=5)
    run = tmp_path / "run"
    cfg = _write_yaml(tmp_path / "sft.yaml", {"instances": str(inst), "options": {"max_tokens": 100000}})
    assert runner.invoke(main, ["build-sft", "--config", cfg, "--out", str(run)]).exit_code == 0
    corpus_path = run / "sft.jsonl"
    records = [json.loads(line) for line in corpus_path.read_text(encoding="utf-8").splitlines()]
    json_spec = next(s for s in load_format_library()[TaskKind.NER] if s.family == "Json")
    answer = json.dumps({"task": "NER", "items": [{"entity": ["a"], "type": "x"}]})
    records[0] = {**records[0], "answer": answer, "format": spec_to_json(json_spec)}
    corpus_path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    result = runner.invoke(main, ["stats", "--corpus", str(corpus_path)])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["total"] == 5 and report["malformed_lines"] == 0
    assert report["per_task"] == {"NER": 5}
    assert report["closure_violations"] == 0  # "x", outside the schema, came only from the dropped item


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


def _with_label(rec: dict, label: dict) -> dict:
    """`rec` with one more schema label, which its gold does not use."""
    rec["schema"]["labels"].append(label)
    return rec


def _schema_exemplar_not_a_string(tmp_path):
    label = {"name": "extra", "guideline": "An extra label.", "exemplars": [5]}
    return _edited_second_instance(tmp_path, lambda rec, first: _with_label(rec, label))


def _schema_label_name_not_a_string(tmp_path):
    return _edited_second_instance(tmp_path, lambda rec, first: _with_label(rec, {"name": 5}))


def _schema_without_labels(tmp_path):
    """Three NA instances whose schema has no labels: nothing else in them is
    wrong, so the first line is the one named."""
    inst, _ = _canonical(tmp_path, n=3, na_rate=1.0)
    records = [json.loads(line) for line in inst.read_text(encoding="utf-8").splitlines()]
    inst.write_text("".join(json.dumps({**rec, "schema": {"task": "NER", "labels": []}}) + "\n" for rec in records),
                    encoding="utf-8")
    cfg = _write_yaml(tmp_path / "sft.yaml", {"instances": str(inst)})
    return ["build-sft", "--config", cfg, "--out", str(tmp_path / "run")], 1


def _instance_empty_slot_value(tmp_path):
    """An empty value renders as nothing in a template format, so it would
    not parse back."""
    return _edited_second_instance(tmp_path, lambda rec, first: {**rec, "gold": [["", "person"]]})


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


def _prediction_nested_too_deep(tmp_path):
    inst, corpus = _canonical(tmp_path, n=3)
    pred = tmp_path / "pred.jsonl"
    pred.write_text(f'{{"id": "{corpus[0].id}", "output": "NA"}}\n' + "[" * 100_000 + "]" * 100_000 + "\n",
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
        _schema_exemplar_not_a_string,
        _schema_label_name_not_a_string,
        _schema_without_labels,
        _instance_empty_slot_value,
        _duplicate_instance_id,
        _prediction_without_output,
        _prediction_output_not_a_string,
        _prediction_nested_too_deep,
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
