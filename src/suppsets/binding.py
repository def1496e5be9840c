"""Name binding: de Bruijn indices and nominal abstraction.

Lambda terms come in two forms.  Named terms use natural-number atoms for
both free and bound variables; de Bruijn terms use indices, where an index
below the current binder depth is bound and an index n at depth d refers
to the ambient atom n - d.  Binding a term shifts its support down by one:
atom k is visible outside a binder exactly when k+1 is visible inside,
and atom 0 is captured.

The two views are connected by an explicit isomorphism.  `phi` turns a
term-under-a-nameless-binder into an abstraction class (a binder atom and
a body, modulo alpha), and `phi_inv` goes back; the translation rotates
indices with the cycle `sigma(m) = (0 1 ... m)` for a sufficiently large m.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
from operator import attrgetter

from .atoms import (
    GlobalMap,
    Support,
    SymmetryId,
    apply,
    compose,
    finite_perm,
    fresh,
    inverse,
    transposition,
)
from .freenom import NominalCarrier

_EQ = SymmetryId.EQUALITY


# --- named terms ---

@dataclass(frozen=True)
class Var:
    atom: int


@dataclass(frozen=True)
class App:
    fn: object
    arg: object


@dataclass(frozen=True)
class Lam:
    binder: int
    body: object


# --- de Bruijn terms ---

@dataclass(frozen=True)
class Idx:
    index: int


@dataclass(frozen=True)
class DbApp:
    fn: object
    arg: object


@dataclass(frozen=True)
class DbLam:
    body: object


# --- one traversal core for both forms ---

@dataclass(frozen=True)
class _Form:
    """What tells the named and the de Bruijn form apart."""

    leaf: type
    app: type
    lam: type
    value: object  # reads a leaf's atom or index
    sigil: str  # the leaf prefix in concrete syntax
    key: str  # the leaf key in the JSON mirror
    name: str  # for error messages
    named: bool  # abstractions carry a binder atom


_NAMED = _Form(Var, App, Lam, attrgetter("atom"), "v", "var", "named", True)
_DB = _Form(Idx, DbApp, DbLam, attrgetter("index"), "#", "idx", "de Bruijn", False)
_POST = object()  # on a walk's stack: the children of the node below it are done


def _index(bound: dict, depth: int, atom: int) -> int:
    """A named leaf's de Bruijn index at binder depth `depth`: the distance
    to its innermost binder in `bound` (atom -> binder depths), or
    `atom + depth` when it is free."""
    outer = bound.get(atom)
    return depth - outer[-1] if outer else atom + depth


def _fold(t, form: _Form, leaf, app, lam, enter=lambda t: None):
    """Post-order fold on an explicit stack: `leaf(value, index, depth)` gets
    a leaf's de Bruijn index and binder depth, `app(fn, arg)` and
    `lam(t, body)` the folded children; `enter(t)` runs before a body."""
    bound = {}  # named: the depths of each atom's binders in scope
    depth = 0
    done = []
    todo = [t]
    while todo:
        t = todo.pop()
        if t is _POST:
            t = todo.pop()
            if isinstance(t, form.lam):
                done[-1] = lam(t, done[-1])
                depth -= 1
                if form.named:
                    bound[t.binder].pop()
            else:
                arg = done.pop()
                done[-1] = app(done[-1], arg)
        elif isinstance(t, form.leaf):
            v = form.value(t)
            done.append(leaf(v, _index(bound, depth, v) if form.named else v, depth))
        elif isinstance(t, form.app):
            todo += (t, _POST, t.arg, t.fn)
        elif isinstance(t, form.lam):
            enter(t)
            depth += 1
            if form.named:
                bound.setdefault(t.binder, []).append(depth)
            todo += (t, _POST, t.body)
        else:
            raise TypeError(f"not a {form.name} term: {t!r}")
    return done[0]


def _free(t, form: _Form) -> Support:
    """The ambient atoms a term refers to: a leaf whose de Bruijn index i is
    at least its binder depth d refers to the atom i - d."""
    free = _fold(t, form, lambda _, i, d: {i - d} if i >= d else set(), _union, lambda _, body: body)
    return Support.of(free)


def free_atoms(t) -> Support:
    """Free variables of a named term, read off its leaves in one fold."""
    return _free(t, _NAMED)


def act_term(g: GlobalMap, t):
    """Rename every atom occurrence, bound and free, along a permutation."""
    if g.sym is not _EQ:
        raise ValueError("terms carry equality-symmetry atoms")
    return _fold(t, _NAMED, lambda a, *_: Var(apply(g, a)), App, lambda t, x: Lam(apply(g, t.binder), x))


def alpha_eq_terms(t1, t2) -> bool:
    """Alpha equivalence: the same shape, and each pair of leaves at the same
    de Bruijn index (de Bruijn 1972).  One pre-order walk over both terms on
    an explicit stack, which stops at the first difference."""
    bound1, bound2 = {}, {}
    depth = 0
    todo = [(t1, t2)]
    while todo:
        a, b = todo.pop()
        if a is _POST:  # the body of the abstraction pair b is done
            a, b = b
            depth -= 1
            bound1[a.binder].pop()
            bound2[b.binder].pop()
        elif isinstance(a, Var) and isinstance(b, Var):
            if _index(bound1, depth, a.atom) != _index(bound2, depth, b.atom):
                return False
        elif isinstance(a, App) and isinstance(b, App):
            todo += ((a.arg, b.arg), (a.fn, b.fn))
        elif isinstance(a, Lam) and isinstance(b, Lam):
            depth += 1
            bound1.setdefault(a.binder, []).append(depth)
            bound2.setdefault(b.binder, []).append(depth)
            todo += ((_POST, (a, b)), (a.body, b.body))
        else:
            for t in (a, b):
                if not isinstance(t, (Var, App, Lam)):
                    raise TypeError(f"not a named term: {t!r}")
            return False
    return True


TERM_CARRIER = NominalCarrier(act=act_term, supp=free_atoms, eq=alpha_eq_terms)


# --- abstraction classes ---

@dataclass(eq=False)
class AbsClass:
    """An atom bound in a carrier value, modulo alpha."""

    binder: int
    body: object
    carrier: NominalCarrier = TERM_CARRIER

    def __eq__(self, other):
        if not isinstance(other, AbsClass) or self.carrier is not other.carrier:
            return NotImplemented
        return alpha_eq(self, other)


def alpha_eq(l: AbsClass, r: AbsClass) -> bool:
    """Compare two abstractions with a single deterministically fresh atom.

    Freshness of the witness makes the existential choice irrelevant; the
    brute-force search in the test suite re-checks this.
    """
    carrier = l.carrier
    avoid = (
        Support.of([l.binder, r.binder])
        .union(carrier.supp(l.body))
        .union(carrier.supp(r.body))
    )
    c = fresh(_EQ, avoid)
    return carrier.eq(
        carrier.act(transposition(_EQ, c, l.binder), l.body),
        carrier.act(transposition(_EQ, c, r.binder), r.body),
    )


def supp_abs(a: AbsClass) -> Support:
    """The binder disappears from the support."""
    return a.carrier.supp(a.body).minus([a.binder])


def act_abs(g: GlobalMap, a: AbsClass) -> AbsClass:
    return AbsClass(apply(g, a.binder), a.carrier.act(g, a.body), a.carrier)


# --- the binder shift and the isomorphism ---

def b_support(s: Support) -> Support:
    """Support of a value under a nameless binder: shift down, dropping 0."""
    return Support.of(a - 1 for a in s if a >= 1)


def maxidx(s: Support) -> int:
    """One past the largest atom; 0 on the empty support."""
    return 1 + max(s, default=-1)


def sigma(m: int) -> GlobalMap:
    """The cycle (0 1 ... m): k maps to k+1 below m, and m wraps to 0."""
    return finite_perm(_EQ, {k: k + 1 for k in range(m)} | {m: 0})


def phi(x, carrier: NominalCarrier = TERM_CARRIER) -> AbsClass:
    """From a value under a nameless binder to its abstraction class.

    Atom 0 is the bound one; every other atom k+1 stands for the ambient
    atom k, so the body is rotated down by sigma(maxidx)⁻¹ before atom 0's
    new name is bound.
    """
    m = maxidx(carrier.supp(x))
    shift_down = inverse(sigma(m))
    return AbsClass(apply(shift_down, 0), carrier.act(shift_down, x), carrier)


def phi_inv(a: AbsClass):
    """Inverse translation: rotate the body up and swap the binder to atom 0."""
    carrier = a.carrier
    m = max(maxidx(carrier.supp(a.body)), a.binder) + 1
    move = compose(transposition(_EQ, 0, a.binder + 1), sigma(m))
    return carrier.act(move, a.body)


# --- de Bruijn conversion ---

def to_debruijn(t):
    """Named to de Bruijn: bound occurrences become binder distances, the
    free atom k at depth d becomes index k + d."""
    return _fold(t, _NAMED, lambda a, i, d: Idx(i), DbApp, lambda _, body: DbLam(body))


def db_free_indices(t) -> Support:
    """Ambient atoms referenced by a de Bruijn term: an index n below its
    binder depth d is bound, and one at least d refers to the atom n - d."""
    return _free(t, _DB)


def _union(a: set, b: set) -> set:
    """Merge the smaller set into the larger."""
    if len(a) < len(b):
        a, b = b, a
    a |= b
    return a


def from_debruijn(t):
    """De Bruijn to named; binder atoms are the smallest that avoid capture.

    A bottom-up pass records the levels (0 for the root binder, -1-k for the
    ambient atom k) each abstraction's body reaches outside it; a top-down
    pass names the binders.  Beyond the term's size, each binder costs the
    number of outer names its body refers to."""
    outside = []  # per abstraction, in pre-order
    open_slots = []  # the slots in `outside` of the abstractions around the node

    def enter(lam):
        open_slots.append(len(outside))
        outside.append(None)

    def close(lam, body):
        body.discard(len(open_slots) - 1)
        outside[open_slots.pop()] = tuple(body)
        return body

    _fold(t, _DB, lambda n, i, d: {d - 1 - n}, _union, close, enter)
    names = []  # names[level]: the atom of the binder at that level on the current path
    pending = iter(outside)

    def bind(lam):
        names.append(fresh(_EQ, {names[k] if k >= 0 else -1 - k for k in next(pending)}))

    return _fold(t, _DB, lambda n, i, d: Var(names[d - 1 - n] if n < d else n - d), App,
                 lambda lam, body: Lam(names.pop(), body), bind)


# --- concrete syntax: named `\\vN. t`, `t u`, `vN`; de Bruijn `\\ t`, `#N` ---

class TermSyntaxError(ValueError):
    pass


def _tokenize(src: str, sigil: str):
    tokens = []
    i = 0
    while i < len(src):
        ch = src[i]
        j = i + 1
        if ch in "\\.()":
            tokens.append(ch)
        elif ch == sigil:
            while j < len(src) and src[j].isdecimal():
                j += 1
            if j == i + 1:
                raise TermSyntaxError(f"expected digits after {ch!r} at {i}")
            tokens.append(int(src[i + 1:j]))
        elif not ch.isspace():
            raise TermSyntaxError(f"unexpected character {ch!r} at {i}")
        i = j
    return tokens


def _parse(src: str, form: _Form):
    """Shift-reduce over a stack of open groups `[opener, operand, ...]`; the
    opener is None at the top, "(", or the maker of an abstraction, whose
    body runs to the end of its enclosing group.  A closed group applies
    its operands left to right."""
    tokens = _tokenize(src, form.sigil) + [None]
    groups = [[None]]
    pos = 0
    while True:
        tok = tokens[pos]
        pos += 1
        if tok == "\\" and form.named:
            if not isinstance(tokens[pos], int):
                raise TermSyntaxError("expected a variable after \\")
            if tokens[pos + 1] != ".":
                raise TermSyntaxError("expected '.' after the binder")
            groups.append([partial(Lam, tokens[pos])])
            pos += 2
        elif tok == "\\":
            groups.append([form.lam])
        elif tok == "(":
            groups.append([tok])
        elif isinstance(tok, int):
            groups[-1].append(form.leaf(tok))
        elif len(groups[-1]) == 1 or tok == ".":
            raise TermSyntaxError(f"unexpected token {tok!r}")
        else:  # ")" or the end closes the abstractions up to the innermost group
            while callable(groups[-1][0]):
                make, *body = groups.pop()
                groups[-1].append(make(reduce(form.app, body)))
            if (tok is None) != (groups[-1][0] is None):
                raise TermSyntaxError("unbalanced parenthesis" if tok is None else "trailing input")
            _, *operands = groups.pop()
            if tok is None:
                return reduce(form.app, operands)
            groups[-1].append(reduce(form.app, operands))


class _Text(str):
    """A piece of output on the printer's stack, told apart from terms."""


_TEXT = {s: _Text(s) for s in ("", ")", " ", ") ", " (", ") (")}


def _show(t, form: _Form) -> str:
    """Print on an explicit stack: a node pushes its pieces, last first."""
    out = []
    todo = [t]
    while todo:
        t = todo.pop()
        if type(t) is _Text:
            out.append(t)
        elif isinstance(t, form.leaf):
            out.append(f"{form.sigil}{form.value(t)}")
        elif isinstance(t, form.app):
            wrap_fn = isinstance(t.fn, form.lam)
            wrap_arg = isinstance(t.arg, (form.app, form.lam))
            out.append("(" * wrap_fn)
            todo += (_TEXT[")" * wrap_arg], t.arg, _TEXT[")" * wrap_fn + " " + "(" * wrap_arg], t.fn)
        elif isinstance(t, form.lam):
            out.append(f"\\v{t.binder}. " if form.named else "\\ ")
            todo.append(t.body)
        else:
            raise TypeError(f"not a {form.name} term: {t!r}")
    return "".join(out)


def parse_named(src: str):
    return _parse(src, _NAMED)


def parse_debruijn(src: str):
    return _parse(src, _DB)


def show_named(t) -> str:
    return _show(t, _NAMED)


def show_debruijn(t) -> str:
    return _show(t, _DB)


# --- JSON mirrors of the trees ---

def _to_json(t, form: _Form):
    lam = (lambda t, body: {"lam": [t.binder, body]}) if form.named else (lambda _, body: {"lam": body})
    return _fold(t, form, lambda v, *_: {form.key: v}, lambda f, x: {"app": [f, x]}, lam)


def _from_json(d, form: _Form):
    """The inverse of `_to_json`; a node's maker waits on the stack below its children."""
    done = []
    todo = [d]
    while todo:
        d = todo.pop()
        if callable(d):
            last = done.pop()
            done.append(d(done.pop(), last) if d is form.app else d(last))
        elif form.key in d:
            done.append(form.leaf(d[form.key]))
        elif "app" in d:
            f, x = d["app"]
            todo += (form.app, x, f)
        elif "lam" in d and form.named:
            a, body = d["lam"]
            todo += (partial(Lam, a), body)
        elif "lam" in d:
            todo += (DbLam, d["lam"])
        else:
            raise ValueError(f"bad {form.name}-term JSON: {d!r}")
    return done[0]


def named_to_json(t):
    return _to_json(t, _NAMED)


def named_from_json(d):
    return _from_json(d, _NAMED)


def debruijn_to_json(t):
    return _to_json(t, _DB)


def debruijn_from_json(d):
    return _from_json(d, _DB)
