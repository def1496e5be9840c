"""Command-line interface.

Exit codes follow one convention everywhere: 0 for success / accept /
true, 1 for reject / false / failed checks, 2 for parse or validation
errors (with a machine-readable error list under --format json).
"""

from __future__ import annotations

import argparse
import json
import sys

from .atoms import Support, SymmetryId, atom_from_json, fresh_atoms, support_to_json
from .automata import (
    automaton_from_json,
    reachable_orbits,
    run,
    validate,
)
from .binding import (
    alpha_eq_terms,
    from_debruijn,
    named_to_json,
    parse_debruijn,
    parse_named,
    show_debruijn,
    show_named,
    to_debruijn,
    debruijn_to_json,
    TermSyntaxError,
)
from .checks import pool_atoms, run_all
from .freenom import ext_elem_from_json
from .presentations import (
    AtomPool,
    default_pool,
    element_count,
    orbit_count,
    presentation_from_json,
    quot_eq,
    supp_of,
)


class CliError(Exception):
    def __init__(self, errors):
        self.errors = errors if isinstance(errors, list) else [str(errors)]
        super().__init__("; ".join(self.errors))


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:  # json recurses per nesting level
        raise CliError([f"{path}: {exc}"])


def _from_json(where: str, convert, doc, *rest):
    """`convert(doc, *rest)` on outside JSON: a value of the wrong JSON type
    is an input error naming `where`.  The converters are expected to fail
    only on input shape; load-time validation that names the JSON path can
    narrow this catch."""
    try:
        return convert(doc, *rest)
    except (TypeError, AttributeError) as exc:
        raise CliError([f"{where}: wrong JSON shape: {exc}"])


def _load_automaton(path: str):
    """The automaton at `path`; its validation errors are input errors."""
    ra = _from_json(path, automaton_from_json, _load_json(path))
    report = validate(ra)
    if not report.ok:
        raise CliError(list(report.errors))
    return ra


def _load_elem(text: str, sym: SymmetryId):
    try:
        doc = json.loads(text)
    except RecursionError as exc:
        raise CliError([f"element: {exc}"])
    return _from_json(f"element {text}", ext_elem_from_json, doc, sym)


def _load_word(path: str, sym: SymmetryId) -> list:
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        return [atom_from_json(ln, sym) for ln in lines]
    except (OSError, ValueError) as exc:
        raise CliError([f"{path}: {exc}"])


def _emit(args, text: str, payload: dict):
    try:
        print(json.dumps(payload, sort_keys=True) if args.format == "json" else text)
    except RecursionError:  # json.dumps recurses into a deeply nested payload
        raise CliError(["the result nests too deep for --format json; use --format text"])


def _cmd_validate(args) -> int:
    ra = _from_json(args.automaton, automaton_from_json, _load_json(args.automaton))
    report = validate(ra)
    if report.ok:
        _emit(args, "ok", {"command": "validate", "ok": True, "errors": []})
        return 0
    _emit(
        args,
        "\n".join(report.errors),
        {"command": "validate", "ok": False, "errors": list(report.errors)},
    )
    return 2


def _cmd_run(args) -> int:
    ra = _load_automaton(args.automaton)
    word = _load_word(args.word, ra.sym)
    accepted = run(ra, word)
    _emit(
        args,
        "accept" if accepted else "reject",
        {"command": "run", "accept": accepted, "word": [str(a) for a in word]},
    )
    return 0 if accepted else 1


def _cmd_orbits(args) -> int:
    ra = _load_automaton(args.automaton)
    default_n = max((len(s) for _, s in ra.locations.items), default=0) + 2
    n = max(args.pool or 0, default_n)
    summary = reachable_orbits(ra, pool_atoms(ra.sym, n), args.depth)
    text = ", ".join(f"{loc}: {k}" for loc, k in summary.per_location)
    _emit(
        args,
        f"{text} (total {summary.total}, {summary.configs_seen} configurations)",
        {
            "command": "orbits",
            "per_location": [[loc, k] for loc, k in summary.per_location],
            "total": summary.total,
            "configurations": summary.configs_seen,
            "pool_size": n,
            "depth": args.depth,
        },
    )
    return 0


def _parse_term(src: str, parse):
    try:
        return parse(src)
    except TermSyntaxError as exc:
        raise CliError([f"term {src!r}: {exc}"])


def _cmd_lambda(args) -> int:
    if args.lambda_op == "to-db":
        db = to_debruijn(_parse_term(args.term, parse_named))
        _emit(args, show_debruijn(db), {"command": "lambda.to-db", "term": debruijn_to_json(db)})
        return 0
    if args.lambda_op == "from-db":
        t = from_debruijn(_parse_term(args.term, parse_debruijn))
        _emit(args, show_named(t), {"command": "lambda.from-db", "term": named_to_json(t)})
        return 0
    t1, t2 = _parse_term(args.term, parse_named), _parse_term(args.term2, parse_named)
    equal = alpha_eq_terms(t1, t2)
    _emit(
        args,
        "alpha-equivalent" if equal else "not alpha-equivalent",
        {"command": "lambda.alpha-eq", "alpha_equivalent": equal},
    )
    return 0 if equal else 1


def _quot_pool(P, reps, requested: int) -> AtomPool:
    atoms = default_pool(P, reps).atoms
    missing = (requested or 0) - len(atoms)  # <= 0 when the default pool is large enough
    return AtomPool(atoms.union(Support.of(fresh_atoms(P.sym, atoms, missing))))


def _cmd_quot(args) -> int:
    P = _from_json(args.presentation, presentation_from_json, _load_json(args.presentation))
    if args.quot_op in ("count", "orbits"):
        n = len(default_pool(P)) if args.pool is None else args.pool
        pool = AtomPool(pool_atoms(P.sym, n))
        if args.quot_op == "count":
            value = element_count(P, pool)
            _emit(args, str(value), {"command": "quot.count", "count": value, "pool_size": n})
        else:
            value = orbit_count(P, pool)
            _emit(args, str(value), {"command": "quot.orbits", "orbits": value, "pool_size": n})
        return 0
    if args.quot_op == "supp":
        e = _load_elem(args.elem, P.sym)
        pool = _quot_pool(P, [e], args.pool)
        s = supp_of(P, e, pool)
        _emit(
            args,
            " ".join(str(a) for a in s) if len(s) else "(empty)",
            {"command": "quot.supp", "support": support_to_json(s), "pool_size": len(pool)},
        )
        return 0
    e1, e2 = _load_elem(args.elem, P.sym), _load_elem(args.elem2, P.sym)
    pool = _quot_pool(P, [e1, e2], args.pool)
    equal = quot_eq(P, e1, e2, pool)
    _emit(
        args,
        "equal" if equal else "distinct",
        {"command": "quot.eq", "equal": equal, "pool_size": len(pool)},
    )
    return 0 if equal else 1


def _cmd_selfcheck(args) -> int:
    report = run_all(seed=args.seed, budget=args.budget)
    _emit(args, report.to_text(), report.to_json())
    return 0 if report.ok else 1


def _non_negative(text: str) -> int:
    """Type of the size flags: argparse turns a bad value into exit 2."""
    try:
        n = int(text)
        if n >= 0:
            return n
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")


class _UsageError(Exception):
    """An argparse error as (parser, message), for `main` to report."""


class _Parser(argparse.ArgumentParser):
    """Reports errors to `main`, and takes no abbreviated option, so that
    JSON mode is set by `--format json` exactly as `main` reads it."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise _UsageError(self, message)


def _shared_options(defaults: bool) -> argparse.ArgumentParser:
    # --format may appear before or after the subcommand.  The subcommand
    # copy carries a SUPPRESS default so it never clobbers a value given up
    # front; the real default lives on the top-level copy only.
    p = _Parser(add_help=False)
    p.add_argument("--format", choices=("text", "json"),
                   default="text" if defaults else argparse.SUPPRESS)
    return p


def build_parser() -> argparse.ArgumentParser:
    common = _shared_options(defaults=False)
    pooled = _Parser(add_help=False, parents=[common])
    pooled.add_argument("--pool", type=_non_negative, help="atom pool size override")
    parser = _Parser(
        prog="suppsets",
        description="Supported sets, quotient presentations, binding, and register automata.",
        parents=[_shared_options(defaults=True)],
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p = sub.add_parser("validate", parents=[common],
                       help="check a register automaton's coherence conditions")
    p.add_argument("automaton")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("run", parents=[common], help="run a register automaton on a data word")
    p.add_argument("automaton")
    p.add_argument("word", help="file with one atom per line")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("orbits", parents=[pooled],
                       help="count orbits of reachable configurations")
    p.add_argument("automaton")
    p.add_argument("--depth", type=_non_negative, default=3)
    p.set_defaults(fn=_cmd_orbits)

    p = sub.add_parser("lambda", help="lambda-term conversions and alpha equivalence")
    lam = p.add_subparsers(dest="lambda_op", required=True)
    p.commands = lam.choices
    q = lam.add_parser("to-db", parents=[common], help="named term to de Bruijn form")
    q.add_argument("term")
    q.set_defaults(fn=_cmd_lambda)
    q = lam.add_parser("from-db", parents=[common], help="de Bruijn form to named term")
    q.add_argument("term")
    q.set_defaults(fn=_cmd_lambda)
    q = lam.add_parser("alpha-eq", parents=[common],
                       help="alpha equivalence of two named terms")
    q.add_argument("term")
    q.add_argument("term2")
    q.set_defaults(fn=_cmd_lambda)

    p = sub.add_parser("quot", help="queries on a presented quotient")
    quo = p.add_subparsers(dest="quot_op", required=True)
    p.commands = quo.choices
    q = quo.add_parser("eq", parents=[pooled],
                       help="class equality of two extension elements")
    q.add_argument("presentation")
    q.add_argument("elem", help="extension element as inline JSON")
    q.add_argument("elem2", help="extension element as inline JSON")
    q.set_defaults(fn=_cmd_quot)
    q = quo.add_parser("count", parents=[pooled], help="class count over the pool")
    q.add_argument("presentation")
    q.set_defaults(fn=_cmd_quot)
    q = quo.add_parser("orbits", parents=[pooled], help="orbit count over the pool")
    q.add_argument("presentation")
    q.set_defaults(fn=_cmd_quot)
    q = quo.add_parser("supp", parents=[pooled],
                       help="least support of an extension element")
    q.add_argument("presentation")
    q.add_argument("elem", help="extension element as inline JSON")
    q.set_defaults(fn=_cmd_quot)

    p = sub.add_parser("selfcheck", parents=[common], help="run every property suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=_non_negative, default=1, help="trial multiplier; 0 runs nothing")
    p.set_defaults(fn=_cmd_selfcheck)

    return parser


def _option_before_command(argv: list, parser) -> tuple:
    """The first option before a subcommand that the parser taking that
    subcommand does not read, the parser, and the top-level subcommand
    (None if none follows).  argparse sets such an option aside and reads
    its value as the subcommand.  The top-level parser reads `--format` and
    help; `quot` and `lambda` read help alone."""
    command = None
    while hasattr(parser, "commands"):
        option, sub = None, None
        for i, arg in enumerate(argv):
            if arg in parser.commands:
                sub = arg
                break
            flag = arg.split("=")[0]
            if option is None and flag.startswith("-") and flag not in parser._option_string_actions:
                option = flag
        command = command or sub
        if option or sub is None:
            return option, parser, command
        parser, argv = parser.commands[sub], argv[i + 1:]
    return None, parser, command


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, args = build_parser(), argparse.Namespace()
    try:
        # parsed into `args` so that the subcommand is known when a later argument fails
        parser.parse_args(argv, args)
    except _UsageError as exc:
        failed, message = exc.args
        if hasattr(failed, "commands"):
            option, at, command = _option_before_command(argv, parser)
            if option:
                rule = ("only --format may come first" if at is parser
                        else f"no option may come between {command} and its subcommand")
                message, args.command = f"option {option} before the subcommand: {rule}", command
        if "--format=json" not in argv and ("--format", "json") not in zip(argv, argv[1:]):
            argparse.ArgumentParser.error(failed, message)  # usage on stderr, exit 2
        args.format, errors = "json", [message]
    else:
        try:
            return args.fn(args)
        except CliError as exc:
            errors = exc.errors
        except (ValueError, KeyError) as exc:
            errors = [str(exc)]
    if args.format == "json":
        print(json.dumps({"command": args.command, "errors": errors}, sort_keys=True))
    else:
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
