"""Command-line interface orchestrating the pipeline.

Subcommands: ingest, mix, build-sft, build-dpo, evaluate, stats.
Configuration lives in one YAML file; --seed/--out/--backend flags override
it. Exit codes: 0 success, 1 data errors, 2 configuration errors. Pre-flight
validation runs before any output file is created.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import logging
import sys
import typing
from pathlib import Path
from typing import Optional

import click
import yaml

from .client import make_client
from .errors import ConfigurationError, DataError
from .ingest import MixturePlan, ReaderSpec, filter_length, filter_na, load_dataset, mix_general, mix_proportional
from .model import TaskKind, read_instances, read_records, write_instances, write_json_atomic
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


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigurationError(f"config file not found: {path}")
    try:
        data = yaml.safe_load(p.read_text(encoding="utf-8")) or {}
    except yaml.YAMLError as e:
        raise ConfigurationError(f"invalid config: {e}")
    if not isinstance(data, dict):
        raise ConfigurationError("config root must be a mapping")
    return data


# The type of each key that `ingest` and `mix` read from their config.
INGEST_KEYS = {
    "dataset": str, "task": str, "path": str, "schema": Optional[str], "text_field": str,
    "gold_field": str, "null_labels": list[str], "na_keep_rate": float, "max_tokens": int, "seed": int,
}
MIX_KEYS = {
    "datasets": dict[str, str], "general": Optional[str], "cap": int, "quotas": dict[str, int],
    "ie_rate": float, "seed": int,
}
# The top-level keys that `build-sft` and `build-dpo` read.
SFT_KEYS = ("instances", "seed", "options", "backend", "cache_dir")
DPO_KEYS = ("instances", "seed", "plan", "backend", "cache_dir", "pool_dir")


def _check_keys(cfg: dict, label: str, known) -> None:
    """A ConfigurationError naming the keys of `cfg` that `known` does not list."""
    unknown = sorted(set(cfg) - set(known), key=str)
    if unknown:
        raise ConfigurationError(f"unknown {label} keys: {unknown}")


def _check_types(cfg: dict, label: str, types: dict) -> None:
    """A ConfigurationError for the first key of `types` in `cfg` whose
    value does not fit its type."""
    for key, hint in types.items():
        if key in cfg and not _fits(cfg[key], hint):
            name = hint.__name__ if typing.get_origin(hint) is None else str(hint).replace("typing.", "")
            raise ConfigurationError(f"{label} {key} must be {name}, got {cfg[key]!r}")


def _require_files(*paths) -> None:
    for p in paths:
        if p is not None and not Path(p).exists():
            raise ConfigurationError(f"input file not found: {p}")


def _write_json(data: dict, out: Optional[str]) -> None:
    if out:
        write_json_atomic(data, out)
    else:
        click.echo(json.dumps(data, ensure_ascii=False, sort_keys=True, indent=2))


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
    cfg = _load_config(config_path)
    _check_keys(cfg, "ingest config", INGEST_KEYS)
    _check_types(cfg, "ingest config", INGEST_KEYS)
    for key in ("dataset", "task", "path"):
        if key not in cfg:
            raise ConfigurationError(f"ingest config missing {key!r}")
    try:
        task = TaskKind(cfg["task"])
    except ValueError:
        raise ConfigurationError(f"unknown task {cfg['task']!r}")
    _require_files(cfg["path"], cfg.get("schema"))
    spec = ReaderSpec(
        dataset=cfg["dataset"],
        task=task,
        text_field=cfg.get("text_field", "text"),
        gold_field=cfg.get("gold_field", "gold"),
        schema_path=cfg.get("schema"),
        null_labels=tuple(cfg.get("null_labels", ())),
    )
    instances = load_dataset(spec, cfg["path"], lenient=lenient)
    n_loaded = len(instances)
    instances = filter_na(
        instances,
        keep_rate=cfg.get("na_keep_rate", 0.2),
        seed=seed if seed is not None else cfg.get("seed", 0),
    )
    n_after_na = len(instances)
    instances = filter_length(instances, max_tokens=cfg.get("max_tokens", 2048))
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
    cfg = _load_config(config_path)
    _check_keys(cfg, "mix config", MIX_KEYS)
    _check_types(cfg, "mix config", MIX_KEYS)
    datasets_cfg = cfg.get("datasets")
    if not datasets_cfg:
        raise ConfigurationError("mix config missing 'datasets'")
    _require_files(*datasets_cfg.values(), cfg.get("general"))
    datasets = {name: read_instances(path) for name, path in datasets_cfg.items()}
    plan = MixturePlan(
        cap=cfg.get("cap", 5000),
        quotas=cfg.get("quotas", {}),
        seed=seed if seed is not None else cfg.get("seed", 0),
    )
    mixed, counts = mix_proportional(datasets, plan)
    if cfg.get("general"):
        general = read_instances(cfg["general"])
        mixed = mix_general(mixed, general, ie_rate=cfg.get("ie_rate", 0.2), seed=plan.seed)
    write_instances(mixed, out_path)
    click.echo(f"contributions {counts}, total {len(mixed)} -> {out_path}")


def _options(cls, label: str, cfg: dict, key: str, seed: Optional[int]):
    """`cls` built from the mapping `cfg[key]`, whose keys must be fields of
    `cls` other than seed and whose values must fit the field types (YAML
    lists become tuples); the seed is --seed or the config's top-level seed."""
    given = cfg.get(key) or {}
    if not isinstance(given, dict):
        raise ConfigurationError(f"{label} options must be a mapping")
    unknown = set(given) - ({f.name for f in dataclasses.fields(cls)} - {"seed"})
    if unknown:
        raise ConfigurationError(f"unknown {label} options: {sorted(unknown)}")
    values = {**given, "seed": seed if seed is not None else cfg.get("seed", 0)}
    _check_types(values, f"{label} option", typing.get_type_hints(cls))
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in values.items()})


def _fits(value, hint) -> bool:
    """Whether a YAML value fits a field type: an int fits a float field, a
    bool fits no number field, a list fits a tuple field item by item, and
    a list or a mapping fits a list or dict type when every item does."""
    if hint in (int, float):
        return isinstance(value, (int, hint)) and not isinstance(value, bool)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple:
        return isinstance(value, list) and len(value) == len(args) and all(map(_fits, value, args))
    if origin is list:
        return isinstance(value, list) and all(_fits(v, args[0]) for v in value)
    if origin is dict:
        return isinstance(value, dict) and all(_fits(k, args[0]) and _fits(v, args[1]) for k, v in value.items())
    if origin is typing.Union:
        return any(_fits(value, arg) for arg in args)
    return isinstance(value, hint)


def _make_backend(cfg: dict, backend_override: Optional[str]):
    """The client for the config's `backend` mapping with --backend applied,
    or None when neither names one. An override of the config's kind updates
    its settings; one of the other kind replaces them, so a live config's
    endpoint never reaches a mock as an unknown key."""
    backend_cfg = cfg.get("backend")
    if backend_cfg is None:
        backend_cfg = {}
    if not isinstance(backend_cfg, dict):
        raise ConfigurationError(f"backend must be a mapping, got {backend_cfg!r}")
    if backend_override:
        if backend_override in ("mock", "live"):
            override = {"kind": backend_override}
        elif backend_override.startswith(("http://", "https://")):
            override = {"kind": "live", "endpoint": backend_override}
        else:
            override = {"kind": "mock", "policy": backend_override}
        same_kind = backend_cfg.get("kind", "mock") == override["kind"]
        backend_cfg = {**(backend_cfg if same_kind else {}), **override}
    if not backend_cfg:
        return None
    return make_client(backend_cfg, cache_dir=cfg.get("cache_dir"))


@main.command("build-sft")
@click.option("--config", "config_path", required=True, help="Pipeline config YAML.")
@click.option("--out", "out_dir", required=True, help="Output directory.")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--backend", default=None, help="Override the backend (mock|live|policy|endpoint).")
@_guarded
def build_sft_cmd(config_path, out_dir, seed, backend):
    """Build the instruction-tuning corpus from canonical instances."""
    cfg = _load_config(config_path)
    _check_keys(cfg, "build-sft config", SFT_KEYS)
    if "instances" not in cfg:
        raise ConfigurationError("build-sft config missing 'instances'")
    _require_files(cfg["instances"])
    opts = _options(SftOptions, "SFT", cfg, "options", seed)
    if opts.pool_dir:
        _require_files(opts.pool_dir)
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
    cfg = _load_config(config_path)
    _check_keys(cfg, "build-dpo config", DPO_KEYS)
    if "instances" not in cfg:
        raise ConfigurationError("build-dpo config missing 'instances'")
    _require_files(cfg["instances"])
    plan = _options(DpoPlan, "DPO plan", cfg, "plan", seed)
    client = _make_backend(cfg, backend)
    if client is None:
        raise ConfigurationError("build-dpo requires a backend (config 'backend' or --backend)")
    instances = read_instances(cfg["instances"])
    manifest = run_build_dpo(
        instances, plan, client, out_dir, pool_dir=cfg.get("pool_dir"), config=cfg
    )
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
    _require_files(pred_path, gold_path)
    task_kind = None
    if task is not None:
        try:
            task_kind = TaskKind(task)
        except ValueError:
            raise ConfigurationError(f"unknown task {task!r}")
    report = evaluate_files(pred_path, gold_path, task=task_kind)
    _write_json(report, out_path)


@main.command()
@click.option("--corpus", "corpus_path", required=True, help="SFT corpus JSONL.")
@click.option("--out", "out_path", default=None, help="Write the report JSON here.")
@_guarded
def stats(corpus_path, out_path):
    """Composition report and schema-closure audit over an SFT corpus."""
    _require_files(corpus_path)
    records, skipped = read_records(corpus_path, lambda rec, lineno: check_sft_record(rec), lenient=True)
    report = corpus_stats(records)
    report["malformed_lines"] = skipped
    _write_json(report, out_path)


if __name__ == "__main__":
    main()
