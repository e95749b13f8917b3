"""Every module under ``src/repro`` is reached from an entry point.

An import walk over the source tree's ASTs, starting from the public
``repro`` package, ``python -m repro`` (``repro.__main__`` and
``repro.cli``) and the experiment modules the CLI loads by name through
``importlib``.  Function-local imports count: the CLI imports most
subsystems lazily inside its command handlers.  A module only its own
tests import is dead surface and fails the walk.

The same walk checks DESIGN.md's module map (§3) in both directions.
"""

import ast
import re
from pathlib import Path

import repro
from repro.cli import EXPERIMENTS

PACKAGE_DIR = Path(repro.__file__).resolve().parent
SRC = PACKAGE_DIR.parent
DESIGN = Path(__file__).resolve().parents[1] / "DESIGN.md"

ROOTS = ("repro", "repro.__main__", "repro.cli") + tuple(
    f"repro.experiments.{name}" for name in EXPERIMENTS
)


def _module_files():
    files = {}
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        files[".".join(parts)] = path
    return files


MODULES = _module_files()


def _imported_names(path):
    """Every dotted name ``path`` imports, at any depth of the AST.

    ``from a import b`` yields both ``a`` and ``a.b``; the walk keeps
    whichever of them is a module.  The source uses absolute imports only.
    """
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def reachable(roots):
    seen = set()
    todo = list(roots)
    while todo:
        name = todo.pop()
        if name in seen or name not in MODULES:
            continue
        seen.add(name)
        for target in _imported_names(MODULES[name]):
            parts = target.split(".")
            # Importing a.b.c runs a/__init__ and a/b/__init__ first.
            todo.extend(".".join(parts[:i]) for i in range(1, len(parts) + 1))
    return seen


def test_every_module_is_reachable_from_an_entry_point():
    unreachable = sorted(set(MODULES) - reachable(ROOTS))
    assert not unreachable, (
        "modules no entry point imports (only tests keep them alive): "
        + ", ".join(unreachable)
    )


# -- DESIGN.md §3 module map ---------------------------------------------------


def _module_map_paths():
    text = DESIGN.read_text(encoding="utf-8")
    section = re.search(r"^## 3\..*?(?=^## )", text, re.M | re.S)
    assert section, "DESIGN.md has no §3"
    return set(re.findall(r"`(repro/[\w/.]*)`", section.group(0)))


def test_module_map_names_every_package_and_top_level_module():
    named = _module_map_paths()
    missing = []
    for path in sorted(PACKAGE_DIR.iterdir()):
        if path.is_dir() and (path / "__init__.py").exists():
            prefix = f"repro/{path.name}/"
            if not any(entry.startswith(prefix) for entry in named):
                missing.append(prefix)
        elif path.suffix == ".py" and path.name != "__init__.py":
            if f"repro/{path.name}" not in named:
                missing.append(f"repro/{path.name}")
    assert not missing, f"DESIGN.md §3 does not list: {', '.join(missing)}"


def test_module_map_names_only_paths_that_exist():
    stale = sorted(p for p in _module_map_paths() if not (SRC / p).exists())
    assert not stale, f"DESIGN.md §3 names missing paths: {', '.join(stale)}"
