"""The allowlist of `tools/linecov.py`: an entry that no longer matches the
code fails by name.  The traced run itself is a CI step, not a test."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "linecov.py"
_spec = importlib.util.spec_from_file_location("linecov", TOOL)
linecov = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(linecov)

SCRIPT_LINE = "raise SystemExit(main())"


def test_every_entry_matches_one_line_per_text():
    allowed, problems = linecov.check_allowed(set())
    assert problems == []
    assert len(allowed) == sum(len(texts) for _, _, texts, _ in linecov.ALLOWED)


def test_an_entry_whose_line_runs_fails_by_name():
    cli = linecov.PACKAGE / "cli.py"
    n = [i for i, line in enumerate(cli.read_text().splitlines(), 1) if line.strip() == SCRIPT_LINE][0]
    _, problems = linecov.check_allowed({(str(cli), n)})
    assert problems == [f"stale entry cli.py:<module>: {SCRIPT_LINE!r} (line {n}) now runs"]


def test_an_entry_whose_text_or_scope_is_gone_fails_by_name(monkeypatch):
    monkeypatch.setattr(linecov, "ALLOWED", (
        ("cli.py", "main", (SCRIPT_LINE,), "the line is outside this scope"),
        ("cli.py", "no_such_function", ("pass",), "the scope is gone")))
    _, problems = linecov.check_allowed(set())
    assert problems == [f"stale entry cli.py:main: {SCRIPT_LINE!r} is found 0 times, not once",
                        "stale entry cli.py:no_such_function: no such scope"]
