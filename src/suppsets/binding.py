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

Each job on terms is its own loop on an explicit stack, with no callback per
node, so terms of any depth work.  The node classes have `__slots__`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from .atoms import (
    GlobalMap,
    NominalCarrier,
    Support,
    SymmetryId,
    apply,
    compose,
    finite_perm,
    fresh,
    inverse,
    transposition,
)

_EQ = SymmetryId.EQUALITY


# --- named terms ---

@dataclass(frozen=True, slots=True)
class Var:
    atom: int


@dataclass(frozen=True, slots=True)
class App:
    fn: object
    arg: object


@dataclass(frozen=True, slots=True)
class Lam:
    binder: int
    body: object


# --- de Bruijn terms ---

@dataclass(frozen=True, slots=True)
class Idx:
    index: int


@dataclass(frozen=True, slots=True)
class DbApp:
    fn: object
    arg: object


@dataclass(frozen=True, slots=True)
class DbLam:
    body: object


# --- what tells the two forms apart, and the walks on explicit stacks ---

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
_APP, _LAM = object(), object()  # on a walk's stack: close an application, an abstraction


def _index(bound: dict, depth: int, atom: int) -> int:
    """A named leaf's de Bruijn index at binder depth `depth`: the distance
    to its innermost binder in `bound` (atom -> binder depths), or
    `atom + depth` when it is free."""
    outer = bound.get(atom)
    return depth - outer[-1] if outer else atom + depth


def free_atoms(t) -> Support:
    """Free variables of a named term: one pre-order walk that counts the
    binders in scope per atom and keeps each leaf whose atom has none."""
    bound, free = {}, set()
    todo = [t]
    while todo:
        t = todo.pop()
        if t is _LAM:
            bound[todo.pop()] -= 1
        elif isinstance(t, Var):
            if not bound.get(t.atom):
                free.add(t.atom)
        elif isinstance(t, App):
            todo += (t.arg, t.fn)
        elif isinstance(t, Lam):
            a = t.binder
            bound[a] = bound.get(a, 0) + 1
            todo += (a, _LAM, t.body)
        else:
            raise TypeError(f"not a named term: {t!r}")
    return Support.of(free)


def act_term(g: GlobalMap, t):
    """Rename every atom occurrence, bound and free, along a permutation: one
    rebuild that reads a plain natural's image off the map's table, and asks
    `apply` only about any other atom, so a bad atom raises what `apply` does."""
    if g.sym is not _EQ:
        raise ValueError("terms carry equality-symmetry atoms")
    table = g._table
    done = []
    todo = [t]
    while todo:
        t = todo.pop()
        if t is _APP:
            arg = done.pop()
            done[-1] = App(done[-1], arg)
        elif t is _LAM:  # the binder is renamed after its body: a bad atom inside it raises first
            a = todo.pop()
            done[-1] = Lam(table.get(a, a) if type(a) is int and a >= 0 else apply(g, a), done[-1])
        elif isinstance(t, Var):
            a = t.atom
            done.append(Var(table.get(a, a) if type(a) is int and a >= 0 else apply(g, a)))
        elif isinstance(t, App):
            todo += (_APP, t.arg, t.fn)
        elif isinstance(t, Lam):
            todo += (t.binder, _LAM, t.body)
        else:
            raise TypeError(f"not a named term: {t!r}")
    return done[0]


def alpha_eq_terms(t1, t2) -> bool:
    """Alpha equivalence: the same shape, and each pair of leaves at the same
    de Bruijn index (de Bruijn 1972).  One pre-order walk over both terms on
    an explicit stack, which stops at the first difference."""
    bound1, bound2 = {}, {}
    depth = 0
    todo = [(t1, t2)]
    while todo:
        a, b = todo.pop()
        if a is _LAM:  # the body of the abstraction pair b is done
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
            todo += ((_LAM, (a, b)), (a.body, b.body))
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


# --- the rotation and the isomorphism ---

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
    bound = {}  # atom -> the depths of its binders in scope
    depth = 0
    done = []
    todo = [t]
    while todo:
        t = todo.pop()
        if t is _APP:
            arg = done.pop()
            done[-1] = DbApp(done[-1], arg)
        elif t is _LAM:
            bound[todo.pop()].pop()
            depth -= 1
            done[-1] = DbLam(done[-1])
        elif isinstance(t, Var):
            outer = bound.get(t.atom)
            done.append(Idx(depth - outer[-1] if outer else t.atom + depth))
        elif isinstance(t, App):
            todo += (_APP, t.arg, t.fn)
        elif isinstance(t, Lam):
            depth += 1
            bound.setdefault(t.binder, []).append(depth)
            todo += (t.binder, _LAM, t.body)
        else:
            raise TypeError(f"not a named term: {t!r}")
    return done[0]


def db_free_indices(t) -> Support:
    """Ambient atoms referenced by a de Bruijn term: the free atoms of its
    named form, since `from_debruijn` names a free index n at depth d as
    the atom n - d."""
    return free_atoms(from_debruijn(t))


def from_debruijn(t):
    """De Bruijn to named; binder atoms are the smallest that avoid capture.

    Two loops.  The first walks the term in pre-order with one set per open
    abstraction of the levels (0 for the root binder, -1-k for the ambient
    atom k) its body reaches; on closing, an abstraction keeps the levels
    outside it and merges the smaller set into its parent's.  The second
    rebuilds the term and names each binder with the least natural that no
    name at those levels takes.  Beyond the term's size, each binder costs
    the number of outer names its body refers to."""
    outside = []  # per abstraction, in pre-order
    reach = [set()]  # per open abstraction, below them the root's: the levels reached so far
    depth = 0
    todo = [t]
    while todo:
        u = todo.pop()
        if u is _LAM:
            depth -= 1
            body = reach.pop()
            body.discard(depth)
            outside[todo.pop()] = tuple(body)
            up = reach[-1]
            if len(body) > len(up):
                reach[-1], up, body = body, body, up
            up |= body
        elif isinstance(u, Idx):
            if type(u.index) is not int or u.index < 0:  # as `_natural` asks of a JSON leaf
                raise ValueError(f"negative de Bruijn index: {u!r}")
            reach[-1].add(depth - 1 - u.index)
        elif isinstance(u, DbApp):
            todo += (u.arg, u.fn)
        elif isinstance(u, DbLam):
            depth += 1
            reach.append(set())
            todo += (len(outside), _LAM, u.body)
            outside.append(None)
        else:
            raise TypeError(f"not a de Bruijn term: {u!r}")
    names = []  # names[level]: the atom of the binder at that level on the current path
    pending = iter(outside)
    done = []
    todo = [t]
    while todo:
        t = todo.pop()
        if t is _APP:
            arg = done.pop()
            done[-1] = App(done[-1], arg)
        elif t is _LAM:
            depth -= 1
            done[-1] = Lam(names.pop(), done[-1])
        elif isinstance(t, Idx):
            n = t.index
            done.append(Var(names[depth - 1 - n] if n < depth else n - depth))
        elif isinstance(t, DbApp):
            todo += (_APP, t.arg, t.fn)
        else:  # an abstraction, as the first loop checked
            taken = {names[k] if k >= 0 else -1 - k for k in next(pending)}
            a = 0
            while a in taken:
                a += 1
            depth += 1
            names.append(a)
            todo += (_LAM, t.body)
    return done[0]


# --- concrete syntax: named `\\vN. t`, `t u`, `vN`; de Bruijn `\\ t`, `#N` ---

class TermSyntaxError(ValueError):
    pass


def _tokenize(src: str, sigil: str):
    tokens = []
    i, end = 0, len(src)
    while i < end:
        ch = src[i]
        j = i + 1
        if ch in "\\.()":
            tokens.append(ch)
        elif ch == sigil:
            while j < end and src[j].isdecimal():
                j += 1
            if j == i + 1:
                raise TermSyntaxError(f"expected digits after {ch!r} at {i}")
            tokens.append(int(src[i + 1:j]))
        elif not ch.isspace():
            raise TermSyntaxError(f"unexpected character {ch!r} at {i}")
        i = j
    return tokens


def _parse(src: str, form: _Form):
    """Shift-reduce over a stack of open groups, each kept as its opener and
    the application of its operands so far (None before the first).  The
    opener is None at the top, "(", or an abstraction's binder ("\\" in de
    Bruijn form), whose body runs to the end of its enclosing group.  Each
    operand is applied to the group's application as it is read."""
    tokens = _tokenize(src, form.sigil)
    tokens.append(None)
    leaf, app, named = form.leaf, form.app, form.named
    groups = []  # the enclosing groups' (opener, application)
    opener = acc = None
    pos = 0
    while True:
        tok = tokens[pos]
        pos += 1
        if type(tok) is int:
            acc = leaf(tok) if acc is None else app(acc, leaf(tok))
        elif tok == "\\" or tok == "(":
            if tok == "\\" and named:
                if type(tokens[pos]) is not int:
                    raise TermSyntaxError("expected a variable after \\")
                if tokens[pos + 1] != ".":
                    raise TermSyntaxError("expected '.' after the binder")
                tok = tokens[pos]
                pos += 2
            groups.append((opener, acc))
            opener, acc = tok, None
        elif acc is None or tok == ".":
            raise TermSyntaxError(f"unexpected token {tok!r}")
        else:  # ")" or the end closes the abstractions up to the innermost group
            while opener is not None and opener != "(":
                term = Lam(opener, acc) if named else DbLam(acc)
                opener, acc = groups.pop()
                acc = term if acc is None else app(acc, term)
            if (tok is None) != (opener is None):
                raise TermSyntaxError("unbalanced parenthesis" if tok is None else "trailing input")
            if tok is None:
                return acc
            term = acc
            opener, acc = groups.pop()
            acc = term if acc is None else app(acc, term)


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
    done = []
    todo = [t]
    while todo:
        t = todo.pop()
        if t is _APP:
            arg = done.pop()
            done[-1] = {"app": [done[-1], arg]}
        elif t is _LAM:  # the abstraction waits below its body's marker
            t = todo.pop()
            done[-1] = {"lam": [t.binder, done[-1]] if form.named else done[-1]}
        elif isinstance(t, form.leaf):
            done.append({form.key: form.value(t)})
        elif isinstance(t, form.app):
            todo += (_APP, t.arg, t.fn)
        elif isinstance(t, form.lam):
            todo += (t, _LAM, t.body)
        else:
            raise TypeError(f"not a {form.name} term: {t!r}")
    return done[0]


def _natural(n, d, form: _Form) -> int:
    """`n`, a leaf's or a binder's number in the JSON object `d`, which must
    be a plain non-negative int: not a bool, a float or a string."""
    if type(n) is int and n >= 0:
        return n
    raise ValueError(f"bad {form.name}-term JSON: {d!r}")


def _pair(v, d, form: _Form) -> list:
    """`v`, the entry of `app` or of a named `lam` in the JSON object `d`,
    which must be an array of two entries."""
    if isinstance(v, list) and len(v) == 2:
        return v
    raise ValueError(f"bad {form.name}-term JSON: {d!r}")


def _from_json(d, form: _Form):
    """The inverse of `_to_json`, in the same post-order."""
    done = []
    todo = [d]
    while todo:
        d = todo.pop()
        if d is _APP:
            arg = done.pop()
            done[-1] = form.app(done[-1], arg)
        elif d is _LAM:
            done[-1] = Lam(todo.pop(), done[-1]) if form.named else DbLam(done[-1])
        elif not isinstance(d, dict):
            raise ValueError(f"bad {form.name}-term JSON: {d!r}")
        elif form.key in d:
            done.append(form.leaf(_natural(d[form.key], d, form)))
        elif "app" in d:
            f, x = _pair(d["app"], d, form)
            todo += (_APP, x, f)
        elif "lam" in d and form.named:
            a, body = _pair(d["lam"], d, form)
            todo += (_natural(a, d, form), _LAM, body)
        elif "lam" in d:
            todo += (_LAM, d["lam"])
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
