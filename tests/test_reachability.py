"""Dead-code guards: every package module is imported from an entry
point, and every top-level def/class of the package is named outside
the tests.

Both scans are static (``ast`` for imports, word tokens for names), so
they run in milliseconds and need no Ray session. An exemption is made
by name only, with its reason written beside it.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "gotenberg_ray"

# the three ways the engine is run: the Ray entry contract, the benchmark
# and the CLI (python -m gotenberg_ray)
ENTRY_POINTS = (ROOT / "__ray_entry__.py", ROOT / "bench.py", PKG / "__main__.py")

# module → reason it may stay unreached (none today)
UNREACHED_OK: dict[str, str] = {}

# top-level name → reason it may be named by tests only
TEST_ONLY_OK = {
    "checkpoint_digest": "oracle: resume tests compare a snapshot's decoded state "
    "with an uninterrupted run's through this digest",
    "word_ngrams": "oracle: the brute-force word-3-gram Jaccard pairs that "
    "tests/test_textops.py checks the near-duplicate operators against",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(ROOT).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


PACKAGE_MODULES = {_module_name(p): p for p in PKG.rglob("*.py")}


def _imported_modules(path: Path) -> set[str]:
    """Package modules a file imports, function-local imports included;
    importing ``a.b.c`` also imports the packages ``a`` and ``a.b``."""
    here = _module_name(path).split(".") if path.is_relative_to(PKG) else []
    if path.name != "__init__.py":
        here = here[:-1]  # relative imports resolve against the package
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = here[: len(here) - node.level + 1] if node.level else []
            mod = ".".join(base + ([node.module] if node.module else []))
            names.add(mod)
            # `from pkg import mod` imports a module, not only a name
            names.update(f"{mod}.{a.name}" for a in node.names)
    out = set()
    for name in names:
        parts = name.split(".")
        out.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
    return out & PACKAGE_MODULES.keys()


def reached_modules() -> set[str]:
    reached = {_module_name(p) for p in ENTRY_POINTS if p.is_relative_to(PKG)}
    todo = list(ENTRY_POINTS)
    while todo:
        for mod in _imported_modules(todo.pop()) - reached:
            reached.add(mod)
            todo.append(PACKAGE_MODULES[mod])
    return reached


def test_every_package_module_is_reached_from_an_entry_point():
    unreached = PACKAGE_MODULES.keys() - reached_modules()
    assert sorted(unreached - UNREACHED_OK.keys()) == []
    # an exemption for a module that is reached is stale
    assert sorted(UNREACHED_OK.keys() - unreached) == []


_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _non_test_files() -> list[Path]:
    crawlbench = [
        p for p in (ROOT / "crawlbench").glob("*.py") if not p.name.startswith("test_")
    ]
    return [*PKG.rglob("*.py"), ROOT / "__ray_entry__.py", ROOT / "bench.py", *crawlbench]


def names_used_only_by_tests() -> set[str]:
    """Top-level defs/classes of the package whose name appears in no
    non-test file except on a ``def``/``class`` line of that name."""
    words: Counter = Counter()
    for path in _non_test_files():
        words.update(_WORD.findall(path.read_text()))
    on_def_lines: Counter = Counter()
    for path in PKG.rglob("*.py"):
        lines = path.read_text().splitlines()
        for node in ast.parse("\n".join(lines)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                on_def_lines[node.name] += _WORD.findall(lines[node.lineno - 1]).count(node.name)
    return {name for name, n in on_def_lines.items() if words[name] <= n}


def test_every_top_level_name_is_named_outside_tests():
    unnamed = names_used_only_by_tests()
    assert sorted(unnamed - TEST_ONLY_OK.keys()) == []
    # an exemption for a name that non-test code names is stale
    assert sorted(TEST_ONLY_OK.keys() - unnamed) == []
