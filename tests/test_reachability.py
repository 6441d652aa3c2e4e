"""Every public top-level name of ``src/matconv`` has a caller.

A name is reached along references from three roots: every name of
``matconv/cli.py`` (the command line), every name that a ``perfbench/*.py``
file mentions (the benchmark), and every name that ``matconv/__init__.py``
exports (the library surface).  References are read from the syntax trees:
a bare name, ``alias.name`` through an imported module, and a name imported
from another module of the package.  A public name that no chain reaches
fails the test unless ``ALLOWED`` gives the reason it stays.
"""

from __future__ import annotations

import ast
from collections import deque
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ALLOWED: dict[str, str] = {}


class _Module:
    """Top-level definitions and package imports of one source file."""

    def __init__(self, path: Path, modules: set[str]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        self.defs: dict[str, list[ast.AST]] = {}
        self.modules: dict[str, str] = {}        # alias -> module
        self.imports: dict[str, tuple] = {}      # alias -> (module, name)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                self.defs.setdefault(node.name, []).append(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            self.defs.setdefault(name.id, []).append(node)
            elif isinstance(node, ast.ImportFrom) and node.level:
                owner = node.module or "__init__"
                for alias in node.names:
                    local = alias.asname or alias.name
                    if owner == "__init__" and alias.name in modules:
                        self.modules[local] = alias.name
                    else:
                        self.imports[local] = (owner, alias.name)

    def references(self, nodes) -> set[str]:
        """Names of this module (as written here) that ``nodes`` use."""
        out = set()
        for top in nodes:
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    out.add(node.id)
                elif (isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name)
                      and node.value.id in self.modules):
                    out.add(f"{node.value.id}.{node.attr}")
        return out


def _mentions(path: Path) -> set[str]:
    """Every identifier, attribute, imported name and string constant."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def unreachable(root: Path = ROOT) -> set[str]:
    """Public top-level names of ``root/src/matconv`` that no root reaches,
    as ``module.name``."""
    files = sorted((root / "src" / "matconv").glob("*.py"))
    names = {p.stem for p in files}
    mods = {p.stem: _Module(p, names) for p in files}

    def resolve(mod: str, local: str):
        """The definition that ``local`` (a bare name or ``alias.name``)
        denotes in ``mod``, following imports; None when outside."""
        while True:
            m = mods[mod]
            head, _, attr = local.partition(".")
            if attr:
                mod, local = m.modules[head], attr
            elif local in m.defs:
                return mod, local
            elif local in m.imports:
                mod, local = m.imports[local]
            else:
                return None

    mentioned = set().union(*map(_mentions, (root / "perfbench").glob("*.py")))
    roots = [("cli", name) for name in mods["cli"].defs]
    roots += [(mod, name) for mod, m in mods.items() for name in m.defs
              if name in mentioned]
    roots += [resolve("__init__", name) for name in mods["__init__"].imports]
    reached, todo = set(), deque(roots)
    while todo:
        key = todo.popleft()
        if key in reached:
            continue
        reached.add(key)
        mod, name = key
        m = mods[mod]
        for ref in m.references(m.defs[name]):
            target = resolve(mod, ref)
            if target is not None:
                todo.append(target)
    return {f"{mod}.{name}" for mod, m in mods.items() for name in m.defs
            if not name.startswith("_") and (mod, name) not in reached}


def test_every_public_name_has_a_caller():
    assert sorted(unreachable() - set(ALLOWED)) == []


def test_allowed_names_exist_and_are_unreachable():
    # An allowed name that gained a caller, or went, leaves the list.
    assert unreachable() >= set(ALLOWED)
