"""Reference answers that do not come from the code under test.

Every function here is written from the README's definitions, not from
`suppsets`, and none of them recurses: terms are handled in flat preorder
form so that 600-deep inputs check as easily as small ones.

Flat named terms are tuples of tokens ``("V", atom)``, ``("A",)`` and
``("L", binder)``; flat de Bruijn terms use ``("I", index)``, ``("A",)``
and ``("L",)``.  Preorder with fixed arities makes the encoding unique, so
two terms are equal exactly when their flat tuples are.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction

ARITY = {"V": 0, "I": 0, "A": 2, "L": 1}


def _walk(flat, on_token, on_done):
    """Visit preorder tokens, calling `on_done(token)` as each subtree closes."""
    open_nodes = []  # [token, children still to come]
    for tok in flat:
        on_token(tok)
        if ARITY[tok[0]]:
            open_nodes.append([tok, ARITY[tok[0]]])
            continue
        on_done(tok)
        while open_nodes:
            open_nodes[-1][1] -= 1
            if open_nodes[-1][1]:
                break
            on_done(open_nodes.pop()[0])


def to_debruijn(flat) -> tuple:
    """Bound atoms become binder distances; free atom k at depth d becomes k + d."""
    env, out = [], []

    def token(tok):
        if tok[0] == "V":
            a = tok[1]
            for dist, b in enumerate(reversed(env)):
                if b == a:
                    out.append(("I", dist))
                    return
            out.append(("I", a + len(env)))
        elif tok[0] == "L":
            env.append(tok[1])
            out.append(("L",))
        else:
            out.append(("A",))

    def done(tok):
        if tok[0] == "L":
            env.pop()

    _walk(flat, token, done)
    return tuple(out)


def free_atoms(flat) -> frozenset:
    env, free = [], set()

    def token(tok):
        if tok[0] == "V" and tok[1] not in env:
            free.add(tok[1])
        elif tok[0] == "L":
            env.append(tok[1])

    _walk(flat, token, lambda tok: env.pop() if tok[0] == "L" else None)
    return frozenset(free)


def alpha_equal(f1, f2) -> bool:
    return to_debruijn(f1) == to_debruijn(f2)


def rename_binders(flat, base: int) -> tuple:
    """An alpha-equivalent copy: binder i (in preorder) becomes atom base + i."""
    env, out = [], []

    def token(tok):
        if tok[0] == "L":
            new = base + len(out)
            env.append((tok[1], new))
            out.append(("L", new))
        elif tok[0] == "V":
            for old, new in reversed(env):
                if old == tok[1]:
                    out.append(("V", new))
                    return
            out.append(tok)
        else:
            out.append(tok)

    _walk(flat, token, lambda tok: env.pop() if tok[0] == "L" else None)
    return tuple(out)


def show(flat) -> str:
    """The README's concrete syntax: ``\\vN. t``/``\\ t``, ``t u``, ``vN``/``#N``.

    An application's function is parenthesised when it is an abstraction,
    its argument when it is an application or an abstraction.
    """
    out, open_nodes = [], []  # [token, children still to come, parenthesised]

    def close(paren):
        if paren:
            out.append(")")
        while open_nodes:
            node = open_nodes[-1]
            node[1] -= 1
            if node[0][0] == "A" and node[1] == 1:
                out.append(" ")
                return
            open_nodes.pop()
            if node[2]:
                out.append(")")

    for tok in flat:
        kind = tok[0]
        paren = False
        if open_nodes and open_nodes[-1][0][0] == "A":
            in_fn = open_nodes[-1][1] == 2
            paren = kind == "L" if in_fn else kind in ("A", "L")
        if paren:
            out.append("(")
        if kind == "V":
            out.append(f"v{tok[1]}")
            close(paren)
        elif kind == "I":
            out.append(f"#{tok[1]}")
            close(paren)
        elif kind == "L":
            out.append(f"\\v{tok[1]}. " if len(tok) > 1 else "\\ ")
            open_nodes.append([tok, 1, paren])
        else:
            open_nodes.append([tok, 2, paren])
    return "".join(out)


class SyntaxFault(ValueError):
    pass


def parse(src: str, named: bool = True) -> tuple:
    """Iterative parser for the syntax `show` prints; returns flat preorder."""
    var_tok = "V" if named else "I"
    sigil = "v" if named else "#"
    tokens, i = [], 0
    while i < len(src):
        ch = src[i]
        if ch.isspace():
            i += 1
        elif ch in "\\.()":
            tokens.append(ch)
            i += 1
        elif ch == sigil:
            j = i + 1
            while j < len(src) and src[j].isdigit():
                j += 1
            if j == i + 1:
                raise SyntaxFault(f"no digits at {i}")
            tokens.append(int(src[i + 1:j]))
            i = j
        else:
            raise SyntaxFault(f"unexpected {ch!r} at {i}")
    # A frame is a parenthesised group or an abstraction body; each holds
    # the application chain read so far.  Nodes are nested tuples here.
    frames = [["(", None]]

    def push_value(v):
        acc = frames[-1][1]
        frames[-1][1] = v if acc is None else ("A", acc, v)

    def close_lambdas():
        while frames[-1][0] != "(":
            kind, acc = frames.pop()
            if acc is None:
                raise SyntaxFault("empty abstraction body")
            push_value(("L", kind[1], acc) if named else ("L", acc))

    pos = 0
    while pos < len(tokens):
        tok = tokens[pos]
        if tok == "\\":
            if named:
                if pos + 2 >= len(tokens) or not isinstance(tokens[pos + 1], int) or tokens[pos + 2] != ".":
                    raise SyntaxFault("bad binder")
                frames.append([("\\", tokens[pos + 1]), None])
                pos += 3
            else:
                frames.append([("\\", None), None])
                pos += 1
            continue
        if isinstance(tok, int):
            push_value((var_tok, tok))
        elif tok == "(":
            frames.append(["(", None])
        elif tok == ")":
            close_lambdas()
            if len(frames) == 1 or frames[-1][1] is None:
                raise SyntaxFault("unbalanced parenthesis")
            push_value(frames.pop()[1])
        else:
            raise SyntaxFault(f"unexpected {tok!r}")
        pos += 1
    close_lambdas()
    if len(frames) != 1 or frames[0][1] is None:
        raise SyntaxFault("unbalanced input")
    return flatten_nested(frames[0][1])


def flatten_nested(node) -> tuple:
    out, stack = [], [node]
    while stack:
        n = stack.pop()
        if n[0] in ("V", "I"):
            out.append(n)
        elif n[0] == "A":
            out.append(("A",))
            stack.append(n[2])
            stack.append(n[1])
        elif len(n) == 3:
            out.append(("L", n[1]))
            stack.append(n[2])
        else:
            out.append(("L",))
            stack.append(n[1])
    return tuple(out)


def from_json(d, named: bool = True) -> tuple:
    """Flatten the CLI's JSON mirror of a named or de Bruijn term."""
    out, stack = [], [d]
    while stack:
        n = stack.pop()
        if "var" in n:
            out.append(("V", n["var"]))
        elif "idx" in n:
            out.append(("I", n["idx"]))
        elif "app" in n:
            out.append(("A",))
            stack.append(n["app"][1])
            stack.append(n["app"][0])
        elif named:
            out.append(("L", n["lam"][0]))
            stack.append(n["lam"][1])
        else:
            out.append(("L",))
            stack.append(n["lam"])
    return tuple(out)


# --- quotients: closed forms from the presentations' definitions ---

def unordered_pairs_count(n: int) -> int:
    return math.comb(n, 2)


def cycle_count(n: int, k: int) -> int:
    """Injective k-tuples up to rotation: n!/((n-k)! k)."""
    return math.perm(n, k) // k if n >= k else 0


def order_family_count(n: int) -> int:
    """(g, a<b) ~ (g, a<c) leaves one g-class per non-maximal a, plus n h's."""
    return 2 * n - 1


def renaming_pairs_count(n: int) -> int:
    """Maps {0,1} -> pool modulo the swap: unordered pairs with repetition."""
    return n * (n + 1) // 2


def is_rotation(xs: tuple, ys: tuple) -> bool:
    return len(xs) == len(ys) and any(xs[i:] + xs[:i] == ys for i in range(len(xs)))


# --- automata: membership by direct predicates ---

def first_repeats(word) -> bool:
    """Some letter after the first equals the first."""
    return bool(word) and word[0] in set(word[1:])


def ascends_after_first(word) -> bool:
    """Some letter after the first exceeds the first."""
    return any(x > word[0] for x in word[1:])


def has_abab(word) -> bool:
    """Positions i<j<k<l with w_i != w_j, w_k = w_i and w_l = w_j."""
    positions = {}
    for p, a in enumerate(word):
        positions.setdefault(a, []).append(p)

    def next_at(a, after):
        ps = positions[a]
        q = bisect.bisect_right(ps, after)
        return ps[q] if q < len(ps) else None

    for j, b in enumerate(word):
        for a in set(word[:j]):
            if a == b:
                continue
            k = next_at(a, j)
            if k is not None and next_at(b, k) is not None:
                return True
    return False


# --- automata: reachable configurations and their orbits ---

def _ref_value(ref, regs, letter):
    return letter if ref == "input" else regs[ref["reg"]]


def _atom(v, rational):
    return Fraction(v) if rational else int(v)


def reachable(spec: dict, pool, depth: int):
    """Configurations reachable in at most `depth` letters from `pool`.

    `spec` is the automaton's JSON form.  A configuration is (location,
    sorted register items).  Successors whose register values are not
    distinct (equality) or not increasing in register order (total order)
    are dropped, as the README's admissibility rule demands.
    """
    rational = spec["symmetry"] == "total-order"
    trans = {}
    for t in spec["transitions"]:
        assign = sorted((_atom(a, rational), r) for a, r in t.get("assign", {}).items())
        guard = []
        for pol, rel, args in t.get("guard", []):
            refs = [a if a == "input" else {"reg": _atom(a["reg"], rational)} for a in args]
            guard.append((pol, rel, refs))
        trans.setdefault(t["from"], []).append((guard, t["to"], assign))

    def admissible(values):
        if rational:
            return all(x < y for x, y in zip(values, values[1:]))
        return len(set(values)) == len(values)

    start = (spec["initial"], ())
    seen = {start}
    frontier = [start]
    for _ in range(depth):
        nxt = []
        for loc, items in frontier:
            regs = dict(items)
            for letter in pool:
                for guard, tgt, assign in trans.get(loc, ()):
                    ok = True
                    for pol, rel, refs in guard:
                        x, y = (_ref_value(r, regs, letter) for r in refs)
                        ok = ok and ((x == y) if rel == "eq" else (x < y)) == pol
                    if not ok:
                        continue
                    new = tuple((a, _ref_value(r, regs, letter)) for a, r in assign)
                    if not admissible([v for _, v in new]):
                        continue
                    c = (tgt, new)
                    if c not in seen:
                        seen.add(c)
                        nxt.append(c)
        if not nxt:
            break
        frontier = nxt
    return seen


def orbit_summary(spec: dict, configs) -> tuple:
    """Per-location orbit counts: configurations grouped by location and
    the equality or order pattern of their register values."""
    ordered = spec["symmetry"] == "total-order"
    patterns = {}
    for loc, items in configs:
        values = [v for _, v in items]
        shape = sorted(set(values)) if ordered else values
        patterns.setdefault(loc, set()).add(tuple(shape.index(v) for v in values))
    locs = [e["id"] for e in spec["locations"]["elements"]]
    return tuple((q, len(patterns.get(q, ()))) for q in locs)
