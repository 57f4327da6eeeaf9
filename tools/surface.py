"""Print the size of iealign's source: its line total, its settable values
and its config keys.

A settable value is a parameter with a default (keyword-only ones included)
of any function or method, or a field with a default of a dataclass. The
config keys are the keys the CLI's config tables accept plus the fields of
SftOptions and DpoPlan, which `options:` and `plan:` set. All three numbers
are meant to fall as the code gets simpler.

Usage, from any directory: python tools/surface.py
"""

from __future__ import annotations

import ast
import dataclasses
import sys
from pathlib import Path


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def settable_values(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body)
    return count


def config_keys() -> int:
    from iealign import cli

    tables = [cli.INGEST_KEYS, cli.MIX_KEYS, cli.SFT_KEYS, cli.DPO_KEYS, *cli.BACKEND_KEYS.values()]
    fields = [dataclasses.fields(cls) for cls in (cli.SftOptions, cli.DpoPlan)]
    return sum(map(len, tables + fields))


def main() -> None:
    source = Path(__file__).resolve().parent.parent / "src"
    texts = [f.read_text(encoding="utf-8") for f in sorted((source / "iealign").glob("*.py"))]
    lines = sum(t.count("\n") for t in texts)
    print(f"source lines: {lines:,}")
    print(f"settable values: {sum(settable_values(ast.parse(t)) for t in texts)}")
    sys.path.insert(0, str(source))
    print(f"config keys: {config_keys()}")


if __name__ == "__main__":
    main()
