"""Print the size of iealign's source: its line total and each module's
lines, its settable values and its config keys, then the top-level functions and classes that no
reached code in it names.

A settable value is a parameter with a default (keyword-only ones included)
of any function or method, or a field with a default of a dataclass. The
config keys are the constructor parameters of the classes a config mapping
builds (ReaderSpec, MixturePlan, SftOptions, DpoPlan, and each backend's
client with its `kind`) plus the keys of the builds' top-level tables. All
three numbers are meant to fall as the code gets simpler, and the unreached
list to empty.

Usage, from any directory: python tools/surface.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src"


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

    classes = [cli.ReaderSpec, cli.MixturePlan, cli.SftOptions, cli.DpoPlan]
    backends = [{"kind": str, **cli._params(cls, "cache")[0]} for cls in cli.BACKENDS.values()]
    tables = [cli.SFT_KEYS, cli.DPO_KEYS, *backends, *(cli._params(cls)[0] for cls in classes)]
    return sum(map(len, tables))


def _names(node: ast.AST) -> set[str]:
    """The names code under `node` looks up: bare names, attributes, and the
    original names of imports it renames."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.alias) and n.asname:
            names.add(n.name)
    return names


def _registered(node: ast.AST) -> bool:
    """Whether a decorator registers `node`: a click command or group."""
    decorators = getattr(node, "decorator_list", [])
    return any(isinstance(d, ast.Call) and getattr(d.func, "attr", None) in ("command", "group") for d in decorators)


def unreached(trees: list[ast.AST]) -> list[str]:
    """The top-level functions and classes of the trees that no reached code
    names. Code is reached when it is outside every top-level function and
    class, is a click command or group, or is a function or class that
    reached code names."""
    defined: dict[str, list[set[str]]] = {}
    reached: set[str] = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not _registered(node):
                defined.setdefault(node.name, []).append(_names(node) - {node.name})
            else:
                reached |= _names(node)
    pending = list(reached & set(defined))
    while pending:
        for names in defined[pending.pop()]:
            new = names & set(defined) - reached
            reached |= new
            pending.extend(new)
    return sorted(set(defined) - reached)


def source_files() -> list[Path]:
    """Each module of the iealign package, by file name."""
    return sorted((SOURCE / "iealign").glob("*.py"))


def source_texts() -> list[str]:
    """The text of each of `source_files`."""
    return [f.read_text(encoding="utf-8") for f in source_files()]


def main() -> None:
    texts = source_texts()
    lines = [t.count("\n") for t in texts]
    print(f"source lines: {sum(lines):,}")
    for f, n in zip(source_files(), lines):
        print(f"  {f.name}: {n:,}")
    trees = [ast.parse(t) for t in texts]
    print(f"settable values: {sum(map(settable_values, trees))}")
    sys.path.insert(0, str(SOURCE))
    print(f"config keys: {config_keys()}")
    print(f"unreached: {', '.join(unreached(trees)) or '-'}")


if __name__ == "__main__":
    main()
