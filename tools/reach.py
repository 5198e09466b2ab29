"""Statement lines of `presdim` that the tier-1 suite never runs.

Usage: python3 tools/reach.py [--src DIR]

Runs the test suite of DIR (default: the tree this script lives in) in this
process under `sys.settrace`, tracing only files under DIR/src/presdim, and
prints for each module the statement lines that never ran.  Statement lines
come from `ast`; docstrings are not statements here.  A statement counts as
run when any line from its first line (decorators included) to its last ran,
so a compound statement whose body ran counts as run too.  Tests that start a
subprocess are not followed into it.  Tracing makes the suite about twice
as slow.
"""
from __future__ import annotations

import argparse
import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path


def _docstrings(tree: ast.Module) -> set[int]:
    """ids of the Expr nodes that are module, class or function docstrings."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                found.add(id(first))
    return found


def statement_spans(source: str) -> list[tuple[int, int]]:
    """(first line, last line) of every statement that is not a docstring."""
    tree = ast.parse(source)
    skip = _docstrings(tree)
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and id(node) not in skip:
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            spans.append((first, node.end_lineno))
    return sorted(spans)


def _ranges(lines: list[int]) -> str:
    out, start = [], None
    for i, line in enumerate(lines):
        if start is None:
            start = line
        if i + 1 == len(lines) or lines[i + 1] != line + 1:
            out.append(str(start) if start == line else f"{start}-{line}")
            start = None
    return ", ".join(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1],
                        help="source tree holding src/presdim and tests")
    args = parser.parse_args(argv)
    root = args.src.resolve()
    package = root / "src" / "presdim"
    if "presdim" in sys.modules:
        raise SystemExit("presdim is already imported; its module-level lines would not be traced")
    sys.path.insert(0, str(root / "src"))

    prefix = str(package) + "/"
    ran: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    import pytest

    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(root / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total_missed = 0
    for path in sorted(package.glob("*.py")):
        hit = ran.get(str(path), set())
        missed = sorted({first for first, last in statement_spans(path.read_text())
                         if not any(line in hit for line in range(first, last + 1))})
        total_missed += len(missed)
        print(f"{path.name}: {len(missed)} statements never ran" + (f": {_ranges(missed)}" if missed else ""))
    print(f"total: {total_missed} statements never ran (pytest exit {int(code)})")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
