"""Mutation sweep: run the test suite against one small mutant at a time.

A mutant changes one spot inside the named functions or classes of a
module: it swaps a comparison (``<``/``<=``, ``>``/``>=``, ``==``/``!=``)
or an arithmetic operator (``+``/``-``, ``*``/``/``), an in-place one
(``+=``/``-=``, ``*=``/``/=``) included, or bumps a constant 0, 1, 2 or 0.5
by one. The repository is copied once into a temporary
directory; each mutant rewrites the module there (with ``ast.unparse``, so
comments drop out) and runs ``pytest -x`` first on the test files that
import the module plus ``tests/test_acceptance.py``, then, only if that
selection passes, on the whole tier-1 suite. It counts as killed if
pytest fails or times out. Each survivor is a test gap, code that nothing
needs, or an equivalent mutant.

    python tools/mutate.py src/bbcq/quantizers.py QuantParams _mpq_anchor
    python tools/mutate.py src/bbcq/cli.py src/bbcq/serialize.py \
        _read_manifest src/bbcq/calibration.py CalibResult calibrate

Each module path (an argument ending in ``.py``) is followed by its scopes:
a top-level name or ``Class.method``; with none, every top-level function
and class of the module is swept. All modules share one repository copy
and one run of the unmutated suite, and each is restored before the next.
A module with no mutation points reports ``killed 0 of 0``. ``--list``
prints the mutation points without running anything. Stdlib only.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Add: ast.Sub,
         ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}
BUMPED = (0, 1, 2, 0.5)
TIMEOUT_S = 600.0  # a hung mutant counts as killed


def _scopes(tree: ast.Module, names: set[str]) -> dict[str, ast.AST]:
    """The function and class nodes whose qualified names are in ``names``,
    by name."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if name in names:
                    found[name] = child
                else:
                    visit(child, name + ".")

    visit(tree, "")
    return found


def _points(tree: ast.Module, names: set[str]) -> list[tuple[ast.AST, int]]:
    """(node, operator index) of every mutation point, in a fixed order."""
    points = []
    for scope in _scopes(tree, names).values():
        for node in ast.walk(scope):
            if isinstance(node, ast.Compare):
                points += [(node, i) for i, op in enumerate(node.ops)
                           if type(op) in SWAPS]
            elif (isinstance(node, (ast.BinOp, ast.AugAssign))
                  and type(node.op) in SWAPS):
                points.append((node, 0))
            elif (isinstance(node, ast.Constant)
                  and type(node.value) in (int, float) and node.value in BUMPED):
                points.append((node, 0))
    return points


def _mutant(source: str, names: set[str], k: int) -> tuple[str, str]:
    """The module source with mutation point ``k`` applied, and a label."""
    tree = ast.parse(source)
    node, i = _points(tree, names)[k]
    before = ast.unparse(node)
    if isinstance(node, ast.Compare):
        node.ops[i] = SWAPS[type(node.ops[i])]()
    elif isinstance(node, (ast.BinOp, ast.AugAssign)):
        node.op = SWAPS[type(node.op)]()
    else:
        node.value += 1
    return ast.unparse(tree), f"line {node.lineno}: {before} -> {ast.unparse(node)}"


def _imported(tree: ast.Module) -> set[str]:
    """Every module a file imports, ``from package import module`` included."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.add(node.module)
            modules.update(f"{node.module}.{alias.name}" for alias in node.names)
    return modules


def _importers(module: str) -> tuple[str, ...]:
    """The test files that import ``module`` (a path such as
    ``src/bbcq/model.py``), plus ``tests/test_acceptance.py``."""
    parts = Path(module).with_suffix("").parts
    dotted = ".".join(parts[1:] if parts[0] == "src" else parts)
    found = {"tests/test_acceptance.py"}
    for path in (ROOT / "tests").glob("test_*.py"):
        if dotted in _imported(ast.parse(path.read_text())):
            found.add(f"tests/{path.name}")
    return tuple(sorted(found))


def _suite_fails(work: Path, tests: tuple[str, ...] = ()) -> bool:
    """Whether ``pytest -x`` fails on ``tests`` (all of tier-1 if none)."""
    env = {**os.environ, "PYTHONPATH": str(work / "src")}
    try:
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *tests],
            cwd=work, env=env, timeout=TIMEOUT_S,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return True
    return run.returncode != 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("targets", nargs="+", metavar="module [scope ...]",
                        help="module path relative to the repo root, then "
                             "function, class or Class.method (default: all)")
    parser.add_argument("--list", action="store_true", help="only list points")
    args = parser.parse_args(argv)
    targets = []  # (module, scopes); a scope belongs to the path before it
    for word in args.targets:
        if word.endswith(".py"):
            targets.append((word, []))
        elif targets:
            targets[-1][1].append(word)
        else:
            parser.error(f"scope {word!r} comes before any module path")
    sweeps = []  # (module, source, names, count)
    for module, scopes in targets:
        source = (ROOT / module).read_text()
        tree = ast.parse(source)
        names = set(scopes) or {node.name for node in tree.body if isinstance(
            node, (ast.FunctionDef, ast.ClassDef))}
        if missing := names - set(_scopes(tree, names)):
            parser.error(f"{module} has no scope {sorted(missing)}")
        sweeps.append((module, source, names, len(_points(tree, names))))
    if args.list:
        for module, source, names, count in sweeps:
            for k in range(count):
                print(module, k, _mutant(source, names, k)[1])
        return 0
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        work = Path(tmp) / "repo"
        shutil.copytree(ROOT, work, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache",
            ".perfbench-work"))
        if any(count for *_, count in sweeps) and _suite_fails(work):
            print("the unmutated suite fails; nothing to measure", file=sys.stderr)
            return 1
        totals = []
        for module, source, names, count in sweeps:
            target = work / module
            selection = _importers(module)
            print(f"{module} selection: {' '.join(selection)}", flush=True)
            killed = 0
            for k in range(count):
                mutated, label = _mutant(source, names, k)
                target.write_text(mutated)
                dead = _suite_fails(work, selection) or _suite_fails(work)
                killed += dead
                print(f"{'killed ' if dead else 'SURVIVED'} {k} {label}", flush=True)
            target.write_text(source)
            totals.append(f"{module}: killed {killed} of {count} mutants")
    print("\n".join(totals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
