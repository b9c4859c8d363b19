"""Every module under src/ and tests/ uses every name it imports, and the CLI
imports only the standard library."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/*.py")])


def unused_imports(source: str) -> list[str]:
    """Imported names the module never reads, with the line of their import.

    A name counts as read when it appears as an expression anywhere in the
    module or is listed in ``__all__``; ``from __future__`` imports are
    compiler directives and are skipped.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_checker_flags_only_unread_names():
    source = ("from __future__ import annotations\n"
              "import json, os.path\n"
              "from math import comb, gcd as g\n"
              "from .keys import ratio_key\n"
              "__all__ = ['ratio_key']\n"
              "print(os.sep, g)\n")
    assert unused_imports(source) == ["comb (line 3)", "json (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_cli_imports_only_the_standard_library():
    # in a fresh interpreter: this one has loaded pytest and what the other tests import
    probe = ("import sys\n"
             "before = set(sys.modules)\n"
             "import rainbowsets.cli\n"
             "loaded = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
             "print(sorted(loaded - set(sys.stdlib_module_names) - {'rainbowsets'}))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    probed = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, timeout=60)
    assert (probed.returncode, probed.stdout) == (0, "[]\n"), probed.stderr
