import argparse
import io
import json
import operator
from contextlib import redirect_stderr, redirect_stdout
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from suppsets.cli import build_parser, main

DATA = Path(__file__).resolve().parent.parent / "data"
FIRST_REPEAT = str(DATA / "first_repeat.json")
ASCENT = str(DATA / "ascent_after_first.json")
PAIRS = str(DATA / "unordered_pairs.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


class TestValidate:
    def test_ok(self, capsys):
        code, out, _ = run_cli(capsys, "validate", FIRST_REPEAT)
        assert code == 0 and out == "ok"

    def test_bad_automaton(self, capsys, tmp_path):
        doc = json.loads(Path(FIRST_REPEAT).read_text())
        doc["locations"]["elements"][0]["support"] = [0]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, _ = run_cli(capsys, "validate", str(bad))
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "validate", "no-such-file.json")
        assert code == 2 and "no-such-file" in err

    def test_json_error_list(self, capsys, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{")
        code, out, _ = run_cli(capsys, "--format", "json", "validate", str(bad))
        assert code == 2
        assert json.loads(out)["errors"]


class TestRun:
    def test_accept(self, capsys):
        code, out, _ = run_cli(capsys, "run", FIRST_REPEAT, str(DATA / "word_repeat.txt"))
        assert (code, out) == (0, "accept")

    def test_reject(self, capsys):
        code, out, _ = run_cli(capsys, "run", FIRST_REPEAT, str(DATA / "word_norepeat.txt"))
        assert (code, out) == (1, "reject")

    def test_rational_word(self, capsys, tmp_path):
        w = tmp_path / "w.txt"
        w.write_text("1/2\n3/4\n")
        code, out, _ = run_cli(capsys, "run", ASCENT, str(w))
        assert (code, out) == (0, "accept")

    def test_bad_atom(self, capsys, tmp_path):
        w = tmp_path / "w.txt"
        w.write_text("abc\n")
        code, _, _ = run_cli(capsys, "run", FIRST_REPEAT, str(w))
        assert code == 2


class TestOrbits:
    def test_summary(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "orbits", FIRST_REPEAT, "--depth", "3")
        assert code == 0
        assert json.loads(out)["per_location"] == [["q0", 1], ["q1", 1], ["qa", 1]]

    def test_int_and_str_locations_stay_apart(self, capsys, tmp_path):
        spec = tmp_path / "ids.json"
        spec.write_text(json.dumps({
            "symmetry": "equality",
            "locations": {"elements": [{"id": q, "support": []} for q in ("s", 1, "1")]},
            "initial": "s",
            "final": ["1"],
            "transitions": [{"from": "s", "to": 1}, {"from": "s", "to": "1"}],
        }))
        code, out, _ = run_cli(capsys, "--format", "json", "orbits", str(spec), "--depth", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["per_location"] == [["s", 1], [1, 1], ["1", 1]]
        assert doc["total"] == 3
        code, out, _ = run_cli(capsys, "orbits", str(spec), "--depth", "1")
        assert (code, out) == (0, "s: 1, 1: 1, 1: 1 (total 3, 3 configurations)")


class TestLambda:
    def test_to_db(self, capsys):
        code, out, _ = run_cli(capsys, "lambda", "to-db", r"\v0. v0 v5")
        assert (code, out) == (0, r"\ #0 #6")

    def test_from_db(self, capsys):
        code, out, _ = run_cli(capsys, "lambda", "from-db", r"\ #0 #6")
        assert (code, out) == (0, r"\v0. v0 v5")

    def test_alpha_eq_true(self, capsys):
        code, out, _ = run_cli(capsys, "lambda", "alpha-eq", r"\v0. v0 v2", r"\v1. v1 v2")
        assert (code, out) == (0, "alpha-equivalent")

    def test_alpha_eq_false(self, capsys):
        code, out, _ = run_cli(capsys, "lambda", "alpha-eq", r"\v0. v1", r"\v1. v0")
        assert (code, out) == (1, "not alpha-equivalent")

    def test_syntax_error(self, capsys):
        code, _, err = run_cli(capsys, "lambda", "to-db", "(v0")
        assert code == 2 and "v0" in err


class TestQuot:
    def test_count_with_pool_3(self, capsys):
        code, out, _ = run_cli(capsys, "quot", "count", PAIRS, "--pool", "3")
        assert (code, out) == (0, "3")

    def test_orbits(self, capsys):
        code, out, _ = run_cli(capsys, "quot", "orbits", PAIRS, "--pool", "3")
        assert (code, out) == (0, "1")

    def test_eq(self, capsys):
        e1 = '{"pi": {"0": 0, "1": 1}, "base": "g"}'
        e2 = '{"pi": {"0": 1, "1": 0}, "base": "g"}'
        code, out, _ = run_cli(capsys, "quot", "eq", PAIRS, e1, e2)
        assert (code, out) == (0, "equal")

    def test_eq_distinct(self, capsys):
        e1 = '{"pi": {"0": 0, "1": 1}, "base": "g"}'
        e2 = '{"pi": {"0": 0, "1": 2}, "base": "g"}'
        code, out, _ = run_cli(capsys, "quot", "eq", PAIRS, e1, e2)
        assert (code, out) == (1, "distinct")

    def test_supp(self, capsys):
        e = '{"pi": {"0": 4, "1": 7}, "base": "g"}'
        code, out, _ = run_cli(capsys, "quot", "supp", PAIRS, e)
        assert (code, out) == (0, "4 7")

    def test_supp_json_states_its_pool(self, capsys):
        e = '{"pi": {"0": 4, "1": 7}, "base": "g"}'
        code, out, _ = run_cli(capsys, "--format", "json", "quot", "supp", PAIRS, e, "--pool", "9")
        assert code == 0
        assert json.loads(out) == {"command": "quot.supp", "support": [4, 7], "pool_size": 9}

    def test_supp_is_exact_on_a_chain(self, capsys, tmp_path):
        """Under total order `(g0,(0,1)) = (g0,(1,2))` joins the whole orbit
        into one class, so every element has empty least support."""
        chain = tmp_path / "chain.json"
        chain.write_text(json.dumps({
            "symmetry": "total-order",
            "generators": {"elements": [{"id": "g0", "support": [0, 1]}]},
            "equations": [[{"pi": {"0": 0, "1": 1}, "base": "g0"}, {"pi": {"0": 1, "1": 2}, "base": "g0"}]],
        }))
        e = '{"pi": {"0": 1, "1": 3}, "base": "g0"}'
        assert run_cli(capsys, "quot", "supp", str(chain), e) == (0, "(empty)", "")
        code, out, _ = run_cli(capsys, "--format", "json", "quot", "supp", str(chain), e)
        doc = json.loads(out)
        assert code == 0 and doc["support"] == [] and doc["pool_size"] >= 2

    def test_count_over_an_empty_pool(self, capsys):
        code, out, _ = run_cli(capsys, "quot", "count", PAIRS, "--pool", "0")
        assert (code, out) == (0, "0")

    def test_orbits_over_an_empty_pool(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "quot", "orbits", PAIRS, "--pool", "0")
        assert code == 0
        assert json.loads(out) == {"command": "quot.orbits", "orbits": 0, "pool_size": 0}

    def test_bad_element_json(self, capsys):
        code, _, _ = run_cli(capsys, "quot", "supp", PAIRS, "{nope")
        assert code == 2

    def test_orbits_over_a_large_pool(self, capsys):
        assert run_cli(capsys, "quot", "orbits", PAIRS, "--pool", "20000") == (0, "1", "")


class TestMalformedShapes:
    """A JSON value of the wrong type is an input error naming its source."""

    @pytest.mark.parametrize("command", [("validate",), ("orbits",), ("run", str(DATA / "word_repeat.txt"))])
    def test_automaton(self, capsys, tmp_path, command):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"symmetry": "equality", "locations": {"elements": 5},
                                   "initial": "q0", "final": [], "transitions": []}))
        code, out, _ = run_cli(capsys, "--format", "json", command[0], str(bad), *command[1:])
        assert code == 2
        assert json.loads(out)["errors"][0].startswith(f"{bad}: wrong JSON shape: ")

    def test_presentation(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"symmetry": "equality", "generators": {"elements": [7]}, "equations": []}))
        code, _, err = run_cli(capsys, "quot", "count", str(bad))
        assert code == 2 and err.startswith(f"error: {bad}: wrong JSON shape: ")

    def test_inline_element(self, capsys):
        code, _, err = run_cli(capsys, "quot", "eq", PAIRS, '{"pi": {}, "base": "g"}', "[3]")
        assert code == 2 and err.startswith("error: element [3]: wrong JSON shape: ")

    # A string or an object where an array belongs would be iterated by its
    # characters or keys: "qa" as the final locations q and a, "01" as the
    # support {0, 1}.
    @staticmethod
    def assert_shape_error(capsys, fmt, argv, message):
        code, out, err = run_cli(capsys, "--format", fmt, *argv)
        assert code == 2
        assert json.loads(out)["errors"] == [message] if fmt == "json" else err == f"error: {message}"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("final, typename", [("qa", "str"), ({"q": 0, "a": 1}, "dict")])
    def test_final_must_be_an_array(self, capsys, tmp_path, fmt, final, typename):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"symmetry": "equality", "initial": "q", "final": final, "transitions": [],
                                   "locations": {"elements": [{"id": "q", "support": []},
                                                              {"id": "a", "support": []}]}}))
        self.assert_shape_error(capsys, fmt, ["validate", str(bad)],
                                f"{bad}: wrong JSON shape: final must be a JSON array, not {typename}")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("support, typename", [("01", "str"), ({"0": 1}, "dict")])
    def test_support_must_be_an_array(self, capsys, tmp_path, fmt, support, typename):
        elements = {"elements": [{"id": "g", "support": support}]}
        bad = tmp_path / "bad.json"
        for doc, argv in (
                ({"symmetry": "equality", "generators": elements, "equations": []},
                 ["quot", "count", str(bad), "--pool", "3"]),
                ({"symmetry": "equality", "locations": elements, "initial": "g", "final": [], "transitions": []},
                 ["validate", str(bad)])):
            bad.write_text(json.dumps(doc))
            self.assert_shape_error(capsys, fmt, argv,
                                    f"{bad}: wrong JSON shape: support must be a JSON array, not {typename}")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("source, command, options", [
        (FIRST_REPEAT, ("validate",), ()), (ASCENT, ("validate",), ()),
        (PAIRS, ("quot", "count"), ("--pool", "3"))], ids=["first_repeat", "ascent_after_first", "unordered_pairs"])
    def test_every_array_rejects_an_empty_string_and_object(self, capsys, tmp_path, fmt, source, command, options):
        doc = json.loads(Path(source).read_text())
        bad = tmp_path / "bad.json"
        arrays = [path for path in _paths(doc) if isinstance(reduce(operator.getitem, path, doc), list)]
        assert arrays
        for path in arrays:
            for empty in ("", {}):
                bad.write_text(json.dumps(_replaced(doc, path, empty)))
                code, out, err = run_cli(capsys, "--format", fmt, *command, str(bad), *options)
                assert code == 2, (path, empty)
                assert "Traceback" not in out + err
                assert json.loads(out)["errors"] if fmt == "json" else out or err  # a validation report is on stdout

    def test_key_and_value_errors_keep_their_messages(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"symmetry": "nominal"}))
        assert run_cli(capsys, "validate", str(bad))[::2] == (2, "error: unknown symmetry 'nominal'")
        bad.write_text(json.dumps({"symmetry": "equality"}))
        assert run_cli(capsys, "validate", str(bad))[::2] == (2, "error: 'locations'")


def _paths(doc, prefix=()):
    """Every key path into a JSON document, the root included."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        yield from _paths(v, prefix + (k,))


def _replaced(doc, path, value):
    if not path:
        return value
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    out[path[0]] = _replaced(doc[path[0]], path[1:], value)
    return out


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6)
    | st.sampled_from(["", "g", "q0", "q1", "input", "eq", "1/2", "1/0", "equality", "total-order"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["id", "support", "elements", "reg", "pi", "base", "0", "1"]),
                      inner, max_size=3),
    max_leaves=6,
)
SPEC, ELEM = object(), object()  # placeholders: the mutated file, an inline element
COMMANDS = {
    FIRST_REPEAT: (("validate", SPEC), ("orbits", SPEC, "--depth", "2"),
                   ("run", SPEC, str(DATA / "word_repeat.txt"))),
    PAIRS: (("quot", "count", SPEC), ("quot", "supp", SPEC, ELEM), ("quot", "eq", SPEC, ELEM, ELEM)),
}
PAIR_ELEM = {"pi": {"0": 1, "1": 0}, "base": "g"}


class TestContractFuzz:
    """Mutated copies of the shipped inputs give an answer (0 or 1) or an
    input error (2) with a JSON error list, and never an uncaught exception."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(COMMANDS)), st.data())
    def test_mutated_inputs(self, tmp_path_factory, source, data):
        doc = json.loads(Path(source).read_text())
        for _ in range(data.draw(st.integers(1, 2))):
            path = data.draw(st.sampled_from(list(_paths(doc))))
            doc = _replaced(doc, path, data.draw(json_values))
        spec = tmp_path_factory.getbasetemp() / "fuzz.json"
        spec.write_text(json.dumps(doc))
        argv = ["--format", "json"]
        for arg in data.draw(st.sampled_from(COMMANDS[source])):
            if arg is SPEC:
                arg = str(spec)
            elif arg is ELEM:
                arg = json.dumps(data.draw(st.just(PAIR_ELEM) | json_values))
            argv.append(arg)
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2)
        payload = json.loads(out.getvalue())
        assert code != 2 or payload["errors"]


DEEP_JSON = "[" * 100_000 + "]" * 100_000  # deeper than the JSON parser's recursion allows
ZERO_ELEM = '{"pi": {"0": "1/0", "1": 1}, "base": "g"}'
PAIR_TEXT = json.dumps(PAIR_ELEM)
FILE = object()  # placeholder: the malformed input file
FORMATS = pytest.mark.parametrize("fmt", [(), ("--format", "json")], ids=["text", "json"])


class TestMalformedInputs:
    """JSON nested deeper than the parser allows and an atom with a zero
    denominator are input errors: exit 2, an error list under --format json,
    no traceback."""

    def check(self, capsys, fmt, argv):
        code, out, err = run_cli(capsys, *fmt, *argv)
        assert code == 2 and "Traceback" not in err
        if fmt:
            assert json.loads(out)["errors"]
        else:
            assert err.startswith("error: ")

    @FORMATS
    @pytest.mark.parametrize("argv", [
        ("validate", FILE), ("run", FILE, str(DATA / "word_repeat.txt")), ("orbits", FILE),
        ("quot", "count", FILE), ("quot", "orbits", FILE), ("quot", "supp", FILE, PAIR_TEXT),
        ("quot", "eq", FILE, PAIR_TEXT, PAIR_TEXT),
    ])
    def test_deep_file(self, capsys, tmp_path, fmt, argv):
        deep = tmp_path / "deep.json"
        deep.write_text(DEEP_JSON)
        self.check(capsys, fmt, [str(deep) if a is FILE else a for a in argv])

    @FORMATS
    @pytest.mark.parametrize("argv", [
        ("quot", "supp", PAIRS, DEEP_JSON), ("quot", "eq", PAIRS, PAIR_TEXT, DEEP_JSON),
        ("quot", "supp", PAIRS, ZERO_ELEM), ("quot", "eq", PAIRS, ZERO_ELEM, PAIR_TEXT),
    ])
    def test_inline_element(self, capsys, fmt, argv):
        self.check(capsys, fmt, argv)

    @FORMATS
    def test_zero_denominator_letter(self, capsys, tmp_path, fmt):
        word = tmp_path / "zero.txt"
        word.write_text("1/0\n")
        self.check(capsys, fmt, ["run", ASCENT, str(word)])

    @FORMATS
    @pytest.mark.parametrize("source, argv", [
        ("ascent_after_first.json", ("validate", FILE)), ("ascent_after_first.json", ("orbits", FILE)),
        ("unordered_pairs.json", ("quot", "count", FILE)),
    ])
    def test_zero_denominator_support_entry(self, capsys, tmp_path, fmt, source, argv):
        doc = json.loads((DATA / source).read_text())
        where = doc["locations"] if "locations" in doc else doc["generators"]
        where["elements"][-1]["support"] = ["1/0"]
        bad = tmp_path / "zero.json"
        bad.write_text(json.dumps(doc))
        self.check(capsys, fmt, [str(bad) if a is FILE else a for a in argv])


class TestSizeFlags:
    """Negative or non-integer sizes are input errors: exit 2, no traceback."""

    @pytest.mark.parametrize("argv", [
        ["quot", "count", PAIRS, "--pool", "-3"],
        ["orbits", FIRST_REPEAT, "--depth", "-1"],
        ["selfcheck", "--budget", "-1"],
        ["quot", "orbits", PAIRS, "--pool", "three"],
    ])
    def test_rejected_with_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "non-negative" in err and "Traceback" not in err


class TestUsageErrorsAsJson:
    """Under --format json an argparse error is a JSON error list on stdout."""

    @pytest.mark.parametrize("argv, command", [
        (["--format", "json", "quot", "count", PAIRS, "--pool", "-3"], "quot"),
        (["--format", "json", "quot", "count", PAIRS, "--pool", "x"], "quot"),
        (["quot", "count", PAIRS, "--format=json", "--pool", "x"], "quot"),
        (["--format", "json"], None),
        (["--format", "json", "run", FIRST_REPEAT, str(DATA / "word_repeat.txt"), "--seed", "1"], "run"),
        (["--format", "json", "validate", FIRST_REPEAT, "--pool", "3"], "validate"),
        (["--format", "json", "quot", "count", PAIRS, "extra"], "quot"),
        (["--format", "json", "--seed", "1", "selfcheck"], "selfcheck"),
        (["--format", "json", "--seed", "1"], None),
        (["--format", "json", "orbits", FIRST_REPEAT, "--dep", "2"], "orbits"),
        (["--format", "json", "quot", "--pool", "3", "count", PAIRS], "quot"),
        (["--format", "json", "lambda", "--pool", "3", "to-db", r"\v0. v0"], "lambda"),
    ])
    def test_error_list(self, capsys, argv, command):
        code, out, err = run_cli(capsys, *argv)
        doc = json.loads(out)
        assert code == 2 and err == ""
        assert doc["command"] == command and len(doc["errors"]) == 1

    def test_messages(self, capsys):
        _, out, _ = run_cli(capsys, "--format", "json", "quot", "count", PAIRS, "--pool", "x")
        assert json.loads(out)["errors"] == ["argument --pool: expected a non-negative integer, got 'x'"]
        _, out, _ = run_cli(capsys, "--format", "json")
        assert json.loads(out)["errors"] == ["the following arguments are required: command"]
        _, out, _ = run_cli(capsys, "--format", "json", "--pool=3", "quot", "count", PAIRS)
        assert json.loads(out)["errors"] == ["option --pool before the subcommand: only --format may come first"]

    @pytest.mark.parametrize("argv, command", [
        (["--format", "json", "quot", "--pool", "3", "count", PAIRS], "quot"),
        (["--format", "json", "quot", "--pool=3", "count", PAIRS], "quot"),
        (["--format", "json", "lambda", "--pool", "3", "to-db", r"\v0. v0"], "lambda"),
    ])
    def test_option_before_a_nested_subcommand(self, capsys, argv, command):
        """`quot` and `lambda` set `--pool` aside too, and would read `3` as
        their subcommand: the message names the option, not its value."""
        code, out, _ = run_cli(capsys, *argv)
        assert code == 2 and json.loads(out)["errors"] == [
            f"option --pool before the subcommand: no option may come between {command} and its subcommand"]

    @pytest.mark.parametrize("argv", [
        ["--form", "json", "validate", FIRST_REPEAT],
        ["--form", "json", "validate", FIRST_REPEAT, "--pool", "3"],
        ["validate", FIRST_REPEAT, "--form", "json"],
        ["validate", FIRST_REPEAT, "--form=json", "--pool", "3"],
    ])
    def test_abbreviations_are_refused(self, capsys, argv):
        """An abbreviated option is unknown, so `--form json` never sets JSON
        mode, whether or not another argument is wrong too."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert out.err.startswith("usage: suppsets") and "--form" in out.err

    def test_text_mode_keeps_the_usage_message(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["quot", "count", PAIRS, "--pool", "x"])
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert out.err.startswith("usage: suppsets quot count")


def _leaf_parsers(parser, path=()):
    """`(command path, parser)` for every parser that takes no subcommand."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for a in subs:
        for name, p in a.choices.items():
            yield from _leaf_parsers(p, (*path, name))


LEAVES = dict(_leaf_parsers(build_parser()))
POOLED = {("orbits",), ("quot", "eq"), ("quot", "count"), ("quot", "orbits"), ("quot", "supp")}
LEAF_ARGV = {
    ("validate",): ["validate", FIRST_REPEAT],
    ("run",): ["run", FIRST_REPEAT, str(DATA / "word_repeat.txt")],
    ("orbits",): ["orbits", FIRST_REPEAT],
    ("lambda", "to-db"): ["lambda", "to-db", "v0"],
    ("lambda", "from-db"): ["lambda", "from-db", "#0"],
    ("lambda", "alpha-eq"): ["lambda", "alpha-eq", "v0", "v0"],
    ("quot", "eq"): ["quot", "eq", PAIRS, PAIR_TEXT, PAIR_TEXT],
    ("quot", "count"): ["quot", "count", PAIRS],
    ("quot", "orbits"): ["quot", "orbits", PAIRS],
    ("quot", "supp"): ["quot", "supp", PAIRS, PAIR_TEXT],
    ("selfcheck",): ["selfcheck", "--budget", "0"],
}


class TestOptionScoping:
    """Each command accepts the options it reads and rejects the rest."""

    def test_options_per_parser(self):
        assert set(LEAVES) == set(LEAF_ARGV)
        for path, parser in [((), build_parser()), *LEAVES.items()]:
            flags = {f for a in parser._actions for f in a.option_strings}
            assert "--format" in flags
            assert ("--seed" in flags) == (path == ("selfcheck",))
            assert ("--pool" in flags) == (path in POOLED)

    @FORMATS
    @pytest.mark.parametrize("argv", [
        *[LEAF_ARGV[path] + ["--seed", "1"] for path in LEAF_ARGV if path != ("selfcheck",)],
        *[LEAF_ARGV[path] + ["--pool", "3"] for path in LEAF_ARGV if path not in POOLED],
        ["--seed", "1", "selfcheck", "--budget", "0"],
        ["--pool", "3", "quot", "count", PAIRS],
    ])
    def test_removed_slots_are_usage_errors(self, capsys, fmt, argv):
        if fmt:
            code, out, err = run_cli(capsys, *fmt, *argv)
            doc = json.loads(out)
            assert code == 2 and err == "" and len(doc["errors"]) == 1
            before = argv[0].startswith("--")  # the option comes before the subcommand
            assert doc["command"] == (argv[2] if before else argv[0])
            assert (argv[0] if before else argv[-2]) in doc["errors"][0]
            return
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert out.err.startswith("usage: suppsets") and "Traceback" not in out.err

    @pytest.mark.parametrize("path", sorted(LEAF_ARGV))
    def test_accepted_argv(self, capsys, path):
        """The argv above parse: each removed slot is the only error."""
        code, _, err = run_cli(capsys, *LEAF_ARGV[path])
        assert code == 0 and err == ""


DEEP = 10_000
NESTED = "".join(f"v{i} (" for i in range(DEEP - 1)) + f"v{DEEP - 1} v{DEEP}" + ")" * (DEEP - 1)
NESTED_DB = "".join(f"#{i} (" for i in range(DEEP - 1)) + f"#{DEEP - 1} #{DEEP}" + ")" * (DEEP - 1)
CHAIN = "".join(f"\\v{i}. " for i in range(DEEP)) + f"v0 v{DEEP - 1} v{3 * DEEP}"
CHAIN_DB = "\\ " * DEEP + f"#{DEEP - 1} #0 #{4 * DEEP}"


class TestDeepTerms:
    """lambda takes terms of any depth in text mode."""

    def test_to_db(self, capsys):
        assert run_cli(capsys, "lambda", "to-db", NESTED) == (0, NESTED_DB, "")
        assert run_cli(capsys, "lambda", "to-db", CHAIN) == (0, CHAIN_DB, "")

    def test_from_db(self, capsys):
        assert run_cli(capsys, "lambda", "from-db", NESTED_DB) == (0, NESTED, "")
        names = "\\v0. " + "\\v1. " * (DEEP - 1) + f"v0 v1 v{3 * DEEP}"
        assert run_cli(capsys, "lambda", "from-db", CHAIN_DB) == (0, names, "")

    def test_alpha_eq(self, capsys):
        renamed = "".join(f"\\v{i + DEEP}. " for i in range(DEEP)) + f"v{DEEP} v{2 * DEEP - 1} v{3 * DEEP}"
        assert run_cli(capsys, "lambda", "alpha-eq", CHAIN, renamed) == (0, "alpha-equivalent", "")
        changed = CHAIN.replace(" v0 v", " v1 v")
        assert run_cli(capsys, "lambda", "alpha-eq", CHAIN, changed) == (1, "not alpha-equivalent", "")
        code, out, _ = run_cli(capsys, "--format", "json", "lambda", "alpha-eq", NESTED, NESTED)
        assert code == 0 and json.loads(out)["alpha_equivalent"] is True

    def test_json_too_deep_is_an_input_error(self, capsys):
        code, out, err = run_cli(capsys, "--format", "json", "lambda", "to-db", NESTED)
        if code == 0:  # an interpreter whose encoder takes this depth
            assert out.startswith('{"command": "lambda.to-db", "term": {"app": ')
        else:
            assert (code, err) == (2, "")
            doc = json.loads(out)
            assert doc == {"command": "lambda",
                           "errors": ["the result nests too deep for --format json; use --format text"]}


class TestSelfcheck:
    def test_budget_zero_is_empty_and_ok(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "selfcheck", "--budget", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] and doc["suites"] == []

    def test_seed_determinism(self, capsys):
        code1, out1, _ = run_cli(capsys, "--format", "json", "selfcheck", "--seed", "9")
        code2, out2, _ = run_cli(capsys, "--format", "json", "selfcheck", "--seed", "9")
        assert code1 == code2 == 0
        assert out1 == out2


class TestJsonRoundTrips:
    def test_emitted_json_reparses(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "lambda", "from-db", r"\ #0 #6")
        doc = json.loads(out)
        from suppsets.binding import named_from_json, named_to_json

        t = named_from_json(doc["term"])
        assert named_to_json(t) == doc["term"]
