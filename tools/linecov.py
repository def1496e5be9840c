"""Line coverage of `src/suppsets` under the tier-1 tests, with the standard
library alone.

    python tools/linecov.py

Runs the tier-1 tests once, in this process, under `sys.settrace`, tracing
lines only in frames whose code is in `src/suppsets`.  A line is executable
when the compiled module maps an instruction to it.  Prints each executable
line that did not run and that `ALLOWED` does not list, and exits 1 if there
is any, or if the tests fail.  Hypothesis is seeded with 0, so the run
repeats.  Lines run only in a subprocess are not seen.

An `ALLOWED` entry names a file, the function or class that holds the lines
(`<module>` for module level) and the exact text of each line, stripped of
surrounding blanks, so it follows the code when lines move.  An entry whose
text is not found exactly once in its scope, or one of whose lines now runs,
fails by name.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "suppsets"

ALLOWED = (
    ("cli.py", "__getattr__", ("_load(layer)", "return globals()[name]"),
     "binds a layer's name when code outside the CLI reads it from the module, as the "
     "benchmark's trace does; the CLI's own handlers bind their names with `_load` first"),
    ("cli.py", "<module>", ("raise SystemExit(main())",),
     "runs only when the module is run as a script, which is always a subprocess"),
    ("automata.py", "run", ("raise",),
     "the end of the error replay: the letter that raised is replayed on every configuration, "
     "and one of them raises again, so this re-raise is reached only if none does"),
)


def executable_lines(path: Path) -> set:
    """The lines some instruction of the compiled file maps to."""
    todo, lines = [compile(path.read_text(), str(path), "exec")], set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def scopes(source: str) -> dict:
    """Each function's and class's qualified name -> its line range, and
    `<module>` -> the whole file."""
    out = {"<module>": range(1, len(source.splitlines()) + 1)}
    todo = [(node, "") for node in ast.parse(source).body]
    while todo:
        node, prefix = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = prefix + node.name
            out[name] = range(node.lineno, node.end_lineno + 1)
            todo.extend((child, name + ".") for child in node.body)
        else:
            todo.extend((child, prefix) for child in ast.iter_child_nodes(node))
    return out


def trace_tests() -> tuple:
    """Run tier-1 under the tracer: (pytest's exit code, {(path, line)} run).

    A code object is traced line by line only until each of its lines has
    run, so a hot function costs one call to the tracer per call after that."""
    import pytest

    prefix, todo = str(PACKAGE) + "/", {}  # package code object -> (its lines, those not yet run)

    def tracer(frame, event, arg):
        code = frame.f_code
        entry = todo.get(code)
        if entry is None:
            if not code.co_filename.startswith(prefix):
                return None
            lines = {line for _, _, line in code.co_lines() if line is not None}
            entry = todo[code] = (lines, set(lines))
        left = entry[1]
        left.discard(frame.f_lineno)
        if not left:
            return None

        def local(frame, event, arg):
            if event == "line":
                left.discard(frame.f_lineno)
            return local

        return local

    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", "--hypothesis-seed=0",
                            "--rootdir", str(ROOT), str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    return int(code), {(c.co_filename, n) for c, (lines, left) in todo.items() for n in lines - left}


def check_allowed(ran: set) -> tuple:
    """({(path, line)} the entries allow, [problem with an entry])."""
    allowed, problems = set(), []
    for name, scope, texts, _reason in ALLOWED:
        path = PACKAGE / name
        source = path.read_text() if path.exists() else ""
        span = scopes(source).get(scope) if source else None
        if span is None:
            problems.append(f"stale entry {name}:{scope}: no such scope")
            continue
        lines = source.splitlines()
        for text in texts:
            at = [n for n in span if lines[n - 1].strip() == text]
            if len(at) != 1:
                problems.append(f"stale entry {name}:{scope}: {text!r} is found {len(at)} times, not once")
            elif (str(path), at[0]) in ran:
                problems.append(f"stale entry {name}:{scope}: {text!r} (line {at[0]}) now runs")
            else:
                allowed.add((str(path), at[0]))
    return allowed, problems


def main() -> int:
    code, ran = trace_tests()
    allowed, problems = check_allowed(ran)
    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        total += len(lines)
        source = path.read_text().splitlines()
        for n in sorted(lines):
            if (str(path), n) not in ran:
                missed += 1
                if (str(path), n) not in allowed:
                    problems.append(f"{path.relative_to(ROOT)}:{n}: not run: {source[n - 1].strip()}")
    print(f"linecov: {total - missed} of {total} executable lines of src/suppsets ran; "
          f"{len(allowed)} of the {missed} that did not are allowed by {len(ALLOWED)} entries")
    if code:
        problems.append(f"the tests failed under the tracer (pytest exit code {code})")
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
