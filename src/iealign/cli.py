"""Command-line interface orchestrating the pipeline.

Subcommands: ingest, mix, build-sft, build-dpo, evaluate, stats.
Configuration lives in one YAML file; --seed/--out/--backend flags override
it. Exit codes: 0 success, 1 data errors, 2 configuration errors. Pre-flight
validation runs before any output file is created.

A config mapping's keys are the parameters of the class that takes it
(ReaderSpec, MixturePlan, SftOptions, DpoPlan, a backend's client), checked
by `_check` against their types; the class holds the defaults and checks the
ranges. Only a build's top level, which no class takes, has a table.
"""

from __future__ import annotations

import enum
import functools
import inspect
import json
import logging
import sys
import typing
from pathlib import Path
from typing import Optional

import click
import yaml

from .client import BACKENDS, make_client
from .errors import ConfigurationError, DataError
from .ingest import MixturePlan, ReaderSpec, filter_length, filter_na, load_dataset, mix_general, mix_proportional
from .model import TaskKind, json_report, read_instances, read_records, writable_as, write_instances, write_json_atomic
from .pipeline import (
    DpoPlan,
    SftOptions,
    check_sft_record,
    evaluate_files,
    run_build_dpo,
    run_build_sft,
    stats as corpus_stats,
)

logger = logging.getLogger(__name__)

EXIT_DATA_ERROR = 1
EXIT_CONFIG_ERROR = 2


def _guarded(fn):
    """Map domain errors to the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ConfigurationError as e:
            click.echo(f"configuration error: {e}", err=True)
            sys.exit(EXIT_CONFIG_ERROR)
        except DataError as e:
            click.echo(f"data error: {e}", err=True)
            sys.exit(EXIT_DATA_ERROR)

    return wrapper


def _load_config(path: str, label: str, types: dict, required: tuple, seed: Optional[int]) -> dict:
    """The config at `path`, checked by `_check`, with --seed as its seed
    when given."""
    try:
        data = yaml.safe_load(Path(path).read_text(encoding="utf-8")) or {}
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}")
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as e:  # a directory, say, or not UTF-8
        raise ConfigurationError(f"invalid config {path}: {e}")
    cfg = _check(data, label, types, required)
    if seed is not None:
        cfg["seed"] = seed
    return cfg


# The type of each key the top level of a build's config may hold. `options:`
# and `plan:` take the fields of SftOptions and DpoPlan, whose seed is set at
# the top level.
_BUILD_KEYS = {"instances": str, "seed": int, "backend": Optional[dict], "cache_dir": Optional[str]}
SFT_KEYS = {**_BUILD_KEYS, "options": Optional[dict]}
DPO_KEYS = {**_BUILD_KEYS, "plan": Optional[dict]}


def _params(cls, *skip) -> tuple[dict, tuple]:
    """A config mapping's keys and its required keys: the types of the
    annotated parameters of `cls` but `skip`, and those without a default."""
    hints = typing.get_type_hints(cls.__init__)
    params = [p for p in inspect.signature(cls).parameters.values() if p.name in hints and p.name not in skip]
    return {p.name: hints[p.name] for p in params}, tuple(p.name for p in params if p.default is p.empty)


def _check(section, label: str, types: dict, required: tuple) -> dict:
    """`section`, once it is a mapping whose keys `types` lists, that holds
    every key of `required` and whose values fit their types; otherwise a
    ConfigurationError for the first fault, in that order."""
    if not isinstance(section, dict):
        raise ConfigurationError(f"{label} must be a mapping, got {section!r}")
    unknown = sorted(set(section) - set(types), key=str)
    if unknown:
        raise ConfigurationError(f"unknown {label} keys: {unknown}")
    missing = [key for key in required if key not in section]
    if missing:
        raise ConfigurationError(f"{label} missing {missing}")
    for key, hint in types.items():
        if key in section and not _fits(section[key], hint):
            name = hint.__name__ if typing.get_origin(hint) is None else str(hint).replace("typing.", "")
            name = f"one of {[member.value for member in hint]}" if isinstance(hint, enum.EnumMeta) else name
            raise ConfigurationError(f"{label} {key} must be {name}, got {section[key]!r}")
    return section


def _build(cls, values: dict):
    """`cls` from `values`, which fit its field types: YAML lists as tuples,
    enum values as members; a field that `values` omits keeps its default."""
    hints, _ = _params(cls)
    values = {k: tuple(v) if isinstance(v, list) else v for k, v in values.items()}
    return cls(**{k: hints[k](v) if isinstance(hints[k], enum.EnumMeta) else v for k, v in values.items()})


def _require(kind: str, *paths) -> None:
    """Check that each of `paths` but None names an existing `kind`."""
    for p in [p for p in paths if p is not None]:
        if not Path(p).exists():
            raise ConfigurationError(f"input file not found: {p}")
        if not (Path(p).is_dir() if kind == "directory" else Path(p).is_file()):
            raise ConfigurationError(f"input {p} is not a {kind}")


def _require_out(kind: str, path) -> None:
    """Check that the output `path`, when given, can be written as a `kind`
    (`writable_as`), so that a run does not end in a write onto the wrong
    kind of file or under a regular file."""
    if path is not None and not writable_as(kind, path):
        raise ConfigurationError(f"output {path} is not a {kind}")


def _write_json(data: dict, out: Optional[str]) -> None:
    if out:
        write_json_atomic(data, out)
    else:
        click.echo(json_report(data), nl=False)


@click.group()
@click.option("-v", "--verbose", is_flag=True, help="Enable debug logging.")
def main(verbose: bool):
    """Build and evaluate information-extraction alignment corpora."""
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )


@main.command()
@click.option("--config", "config_path", required=True, help="Reader config YAML.")
@click.option("--out", "out_path", required=True, help="Canonical JSONL output path.")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--lenient", is_flag=True, help="Skip malformed lines instead of failing.")
@_guarded
def ingest(config_path, out_path, seed, lenient):
    """Read a raw dataset into canonical instances, applying NA and length filters."""
    spec = _build(ReaderSpec, _load_config(config_path, "ingest config", *_params(ReaderSpec), seed))
    _require("regular file", spec.path, spec.schema)
    _require_out("regular file", out_path)
    instances = load_dataset(spec, lenient)
    n_loaded = len(instances)
    instances = filter_na(instances, spec)
    n_after_na = len(instances)
    instances = filter_length(instances, max_tokens=spec.max_tokens)
    write_instances(instances, out_path)
    click.echo(
        f"loaded {n_loaded}, after NA filter {n_after_na}, "
        f"after length filter {len(instances)} -> {out_path}"
    )


@main.command()
@click.option("--config", "config_path", required=True, help="Mixture config YAML.")
@click.option("--out", "out_path", required=True, help="Mixed canonical JSONL output.")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@_guarded
def mix(config_path, out_path, seed):
    """Combine canonical datasets with the proportional cap, optionally mixing
    in a general-purpose corpus at a fixed IE rate."""
    plan = _build(MixturePlan, _load_config(config_path, "mix config", *_params(MixturePlan), seed))
    _require("regular file", *plan.datasets.values(), plan.general)
    _require_out("regular file", out_path)
    datasets = {name: read_instances(path) for name, path in plan.datasets.items()}
    general = read_instances(plan.general) if plan.general else []
    owner: dict[str, str] = {}  # instance id -> the input that holds it: the mix must not hold one twice
    for key, inputs in [*((f"datasets.{name}", i) for name, i in datasets.items()), ("general", general)]:
        for inst in inputs:
            if owner.setdefault(inst.id, key) != key:
                raise DataError(f"duplicate instance id {inst.id!r} in {owner[inst.id]} and {key}")
    mixed, counts = mix_proportional(datasets, plan)
    if general:
        mixed = mix_general(mixed, general, plan)
    write_instances(mixed, out_path)
    click.echo(f"contributions {counts}, total {len(mixed)} -> {out_path}")


def _options(cls, label: str, cfg: dict, key: str):
    """`cls` built from the mapping `cfg[key]`, checked against the field
    types of `cls` but seed, and from the config's top-level seed."""
    values = dict(_check(cfg.get(key) or {}, label, *_params(cls, "seed")))
    if "seed" in cfg:
        values["seed"] = cfg["seed"]
    return _build(cls, values)


def _fits(value, hint) -> bool:
    """Whether a YAML value fits a field type: an int fits a float field, a
    bool fits no number field, an enum field takes one of its values, a
    list fits a tuple field item by item (a `tuple[T, ...]` at any length),
    and a mapping fits a dict type when every item does."""
    if hint in (int, float):
        return isinstance(value, (int, hint)) and not isinstance(value, bool)
    if isinstance(hint, enum.EnumMeta):
        return value in [member.value for member in hint]
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple:
        if args[1:] == (...,) and isinstance(value, list):
            args = args[:1] * len(value)
        return isinstance(value, list) and len(value) == len(args) and all(map(_fits, value, args))
    if origin is dict:
        return isinstance(value, dict) and all(_fits(k, args[0]) and _fits(v, args[1]) for k, v in value.items())
    if origin is typing.Union:
        return any(_fits(value, arg) for arg in args)
    return isinstance(value, hint)


def _make_backend(cfg: dict, backend_override: Optional[str]):
    """The client for the config's `backend` mapping with --backend applied,
    or None when neither names one. An override of the config's kind updates
    its settings; one of the other kind replaces them, so a live config's
    endpoint never reaches a mock. A mapping without a `kind` is a mock's.
    An overridden mapping becomes the config's `backend`, so the manifest's
    config digest covers it."""
    backend_cfg = {"kind": "mock", **cfg["backend"]} if cfg.get("backend") else {}
    if backend_override:
        if backend_override in BACKENDS:
            override = {"kind": backend_override}
        elif backend_override.startswith(("http://", "https://")):
            override = {"kind": "live", "endpoint": backend_override}
        else:
            override = {"kind": "mock", "policy": backend_override}
        same_kind = backend_cfg.get("kind") == override["kind"]
        backend_cfg = cfg["backend"] = {**(backend_cfg if same_kind else {}), **override}
    if not backend_cfg:
        return None
    kind = backend_cfg["kind"]
    if kind not in list(BACKENDS):  # a list, so an unhashable kind is unknown
        raise ConfigurationError(f"unknown backend kind {kind!r}")
    types, required = _params(BACKENDS[kind], "cache")
    _check(backend_cfg, f"{kind} backend", {"kind": str, **types}, required)
    return make_client(backend_cfg, cfg.get("cache_dir"))


@main.command("build-sft")
@click.option("--config", "config_path", required=True, help="Pipeline config YAML.")
@click.option("--out", "out_dir", required=True, help="Output directory.")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--backend", default=None, help="Override the backend (mock|live|policy|endpoint).")
@_guarded
def build_sft_cmd(config_path, out_dir, seed, backend):
    """Build the instruction-tuning corpus from canonical instances."""
    cfg = _load_config(config_path, "build-sft config", SFT_KEYS, ("instances",), seed)
    opts = _options(SftOptions, "SFT option", cfg, "options")
    _require("regular file", cfg["instances"])
    _require("directory", opts.pool_dir)
    _require_out("directory", out_dir)
    client = _make_backend(cfg, backend)
    instances = read_instances(cfg["instances"])
    manifest = run_build_sft(instances, opts, out_dir, client=client, config=cfg)
    click.echo(json.dumps(manifest["counts"], sort_keys=True))
    click.echo(f"wrote {out_dir}/sft.jsonl and manifest.json")


@main.command("build-dpo")
@click.option("--config", "config_path", required=True, help="Plan config YAML.")
@click.option("--out", "out_dir", required=True, help="Output directory.")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--backend", default=None, help="Override the backend (mock|live|policy|endpoint).")
@_guarded
def build_dpo_cmd(config_path, out_dir, seed, backend):
    """Build the preference-pair corpus with a model backend (mock allowed)."""
    cfg = _load_config(config_path, "build-dpo config", DPO_KEYS, ("instances",), seed)
    plan = _options(DpoPlan, "DPO plan option", cfg, "plan")
    _require("regular file", cfg["instances"])
    _require("directory", plan.pool_dir)
    _require_out("directory", out_dir)
    client = _make_backend(cfg, backend)
    if client is None:
        raise ConfigurationError("build-dpo requires a backend (config 'backend' or --backend)")
    instances = read_instances(cfg["instances"])
    manifest = run_build_dpo(instances, plan, client, out_dir, config=cfg)
    click.echo(json.dumps(manifest["counts"], sort_keys=True))
    click.echo(f"wrote {out_dir}/dpo.jsonl and manifest.json")


@main.command()
@click.option("--pred", "pred_path", required=True, help="Predictions JSONL ({id, output}).")
@click.option("--gold", "gold_path", required=True, help="Gold canonical instances JSONL.")
@click.option("--task", default=None, help="Expected task; mismatching golds are an error.")
@click.option("--out", "out_path", default=None, help="Write the report JSON here.")
@_guarded
def evaluate(pred_path, gold_path, task, out_path):
    """Score predictions against gold with exact-match micro F1."""
    _require("regular file", pred_path, gold_path)
    _require_out("regular file", out_path)
    if not _fits(task, Optional[TaskKind]):
        raise ConfigurationError(f"unknown task {task!r}")
    report = evaluate_files(pred_path, gold_path, task=TaskKind(task) if task else None)
    _write_json(report, out_path)


@main.command()
@click.option("--corpus", "corpus_path", required=True, help="SFT corpus JSONL.")
@click.option("--out", "out_path", default=None, help="Write the report JSON here.")
@_guarded
def stats(corpus_path, out_path):
    """Composition report and schema-closure audit over an SFT corpus."""
    _require("regular file", corpus_path)
    _require_out("regular file", out_path)
    records, skipped = read_records(corpus_path, lambda rec, lineno: check_sft_record(rec), lenient=True)
    report = corpus_stats(records)
    report["malformed_lines"] = skipped
    _write_json(report, out_path)


if __name__ == "__main__":
    main()
