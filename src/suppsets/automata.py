"""Register automata and their configuration-space semantics.

A register automaton has finitely many locations, each owning atom-named
registers (its support), and guarded transitions that reassign registers
from the old contents and the current input value.  Inside a transition,
`Input` names the freshly read value and `Reg(a)` the old content of
register a; in the shifted index view the input is atom 0 and the old
register k is atom k+1.

A configuration is an element `ExtElem(pi, base)` of the free extension
of the location set: its base is a location and `pi` an admissible
valuation of that location's registers, and `freenom.act` renames it.
Stepping through all matching transitions yields the (finitely branching)
configuration automaton.  `determinize_generic` exposes the construction
generically: with finite-powerset side effects it is the classical subset
construction, with free-nominal side effects it is the configuration
automaton that `step`/`run` walk.

A step is equivariant, so an automaton runs `step_full` once per orbit
of (location, registers' values, input), keeps the result in its table
`_orbits` for its whole life, and renames it to every other
configuration of the orbit; a successor that keeps its configuration as
it was is the configuration itself, not a renamed copy.  `run`, `step`,
`reachable_configs` and `reachable_orbits` all read that one table.
The orbit is named by the input's position among the register values:
one of k+1 under equality (a register's value, or new) and one of 2k+1
under total order (on a value or in a gap), for k registers.  Renaming,
and an unvalidated equality automaton whose guards use `lt`, name it by
the full order type of the values and the input.

`run` applies the same argument to the whole frontier, a state of the
configuration automaton supported by the values of its configurations:
letters in one position among those values step it alike.  Once a letter
leaves the frontier unchanged, every later letter in its position is
skipped until the frontier changes; `run` says how it locates them.

It applies the argument to each configuration too, which its own values
support: every letter that is none of them (new under equality, in a gap
under total order) steps it alike.  A configuration is inert when those
letters keep it as it is: `run` indexes inert configurations by value and
steps each only on a letter it holds, and steps the others on every letter.
Under renaming no position is off the values, so nothing is inert.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .atoms import (
    Atom,
    FiniteMap,
    Support,
    SymmetryId,
    apply,  # unused here, as `b_support` below: the benchmark's trace wraps both
    atom_from_json,
    atom_to_json,
    check_atom,
    is_admissible,
    order_type,
)
from .freenom import ExtElem, RestrictedMap
from .supported import SuppSet, b_support, json_array, suppset_from_json, suppset_to_json


def relations(sym: SymmetryId) -> tuple:
    """The guard relations the symmetry can observe, each binary: `eq`, and
    `lt` under total order."""
    return ("eq", "lt") if sym is SymmetryId.TOTAL_ORDER else ("eq",)


def holds(name: str, args: tuple) -> bool:
    if name == "eq":
        return args[0] == args[1]
    if name == "lt":
        return args[0] < args[1]
    raise ValueError(f"relation {name!r} has no interpretation")


@dataclass(frozen=True)
class InputRef:
    """The data value read by the transition (atom 0 under the binder)."""


@dataclass(frozen=True)
class Reg:
    """The old content of a register (atom k+1 under the binder)."""

    atom: Atom


INPUT = InputRef()


@dataclass(frozen=True)
class Literal:
    positive: bool
    relation: str
    args: tuple  # of InputRef | Reg


@dataclass(frozen=True)
class Guard:
    """A conjunction of possibly negated literals; empty means true."""

    literals: tuple = ()


TRUE_GUARD = Guard()


@dataclass(frozen=True)
class Transition:
    source: object
    guard: Guard
    target: object
    assign: tuple  # ((target_register_atom, InputRef | Reg), ...) sorted


def make_transition(source, guard: Guard, target, assign) -> Transition:
    pairs = assign.items() if hasattr(assign, "items") else assign
    return Transition(source, guard, target, tuple(sorted(pairs, key=lambda ar: ar[0])))


@dataclass(frozen=True)
class RegisterAutomaton:
    """Frozen, so the tables it fills lazily hold for its whole life:
    `_orbits`, the successor templates per orbit (`_successors`), and
    `_inert`, the inert flag per location and registers (`_inert`)."""

    sym: SymmetryId
    locations: SuppSet
    initial: object
    final: frozenset
    transitions: tuple

    def __post_init__(self):
        by_source = {}
        for t in self.transitions:
            by_source.setdefault(t.source, []).append(t)
        for name, value in (("final", frozenset(self.final)),
                            ("_by_source", {q: tuple(ts) for q, ts in by_source.items()}),
                            ("_locate", _locator(self)), ("_orbits", {}), ("_inert", {})):
            object.__setattr__(self, name, value)

    def outgoing(self, loc) -> tuple:
        return self._by_source.get(loc, ())


def initial_config(ra: RegisterAutomaton) -> ExtElem:
    return ExtElem(RestrictedMap(ra.sym, FiniteMap.of({})), ra.initial)


@dataclass(frozen=True)
class ValidationReport:
    errors: tuple

    @property
    def ok(self) -> bool:
        return not self.errors


def validate(ra: RegisterAutomaton) -> ValidationReport:
    """Check every structural coherence condition of the automaton."""
    errors = []
    if ra.initial not in ra.locations:
        errors.append(f"initial location {ra.initial!r} is not a location")
    elif len(ra.locations.support(ra.initial)):
        errors.append("initial location must have all registers uninitialized")
    for q in ra.final:
        if q not in ra.locations:
            errors.append(f"final location {q!r} is not a location")
    rels = relations(ra.sym)
    for i, t in enumerate(ra.transitions):
        where = f"transition {i} ({t.source!r} -> {t.target!r})"
        if t.source not in ra.locations or t.target not in ra.locations:
            errors.append(f"{where}: unknown endpoint")
            continue
        src_supp = ra.locations.support(t.source)
        tgt_supp = ra.locations.support(t.target)
        for lit in t.guard.literals:
            if lit.relation not in rels:
                errors.append(f"{where}: unknown relation {lit.relation!r}")
            elif len(lit.args) != 2:
                errors.append(f"{where}: relation {lit.relation!r} expects 2 arguments")
            for ref in lit.args:
                if not isinstance(ref, (InputRef, Reg)):
                    errors.append(f"{where}: guard argument {ref!r} is neither INPUT nor a register")
                elif isinstance(ref, Reg) and ref.atom not in src_supp:
                    errors.append(f"{where}: guard uses register {ref.atom!r} outside the source support")
        assigned = [a for a, _ in t.assign]
        if Support.of(assigned) != tgt_supp or len(assigned) != len(tgt_supp):
            errors.append(f"{where}: assignment must cover the target registers exactly")
        refs = [r for _, r in t.assign]
        if any(refs.count(r) > 1 for r in refs):  # by `==`: a bad source need not hash
            errors.append(f"{where}: assignment is not injective")
        for r in refs:
            if not isinstance(r, (InputRef, Reg)):
                errors.append(f"{where}: assignment source {r!r} is neither INPUT nor a register")
            elif isinstance(r, Reg) and r.atom not in src_supp:
                errors.append(f"{where}: assignment reads register {r.atom!r} outside the source support")
    return ValidationReport(tuple(errors))


class UnresolvedRegister(KeyError):
    pass


def eval_guard(g: Guard, val: RestrictedMap, input_atom: Atom) -> bool:
    """Evaluate a guard against a valuation and the current input."""

    def resolve(ref):
        if isinstance(ref, InputRef):
            return input_atom
        got = val.images.get(ref.atom)
        if got is None:
            raise UnresolvedRegister(ref.atom)
        return got

    for lit in g.literals:
        if holds(lit.relation, tuple(resolve(r) for r in lit.args)) != lit.positive:
            return False
    return True


def step_full(ra: RegisterAutomaton, c: ExtElem, input_atom: Atom):
    """Successor configurations, one per enabled transition and in transition
    order, plus the successors dropped as inadmissible.  `RestrictedMap`
    decides admissibility; `is_admissible` runs only when it refuses.
    `_successors` calls this once per automaton and orbit, on a template of
    natural-number values, so the constructor runs once per orbit too."""
    kept, dropped = [], []
    for t in ra.outgoing(c.base):
        if not eval_guard(t.guard, c.pi, input_atom):
            continue
        images = {}
        for reg, ref in t.assign:
            images[reg] = input_atom if isinstance(ref, InputRef) else c.pi(ref.atom)
        fm = FiniteMap.of(images)
        try:
            kept.append(ExtElem(RestrictedMap(ra.sym, fm), t.target))
        except ValueError:
            if is_admissible(ra.sym, fm):  # raises on an out-of-domain atom
                raise
            dropped.append((t, fm))
    return tuple(kept), tuple(dropped)


# --- the frontier loop ---
#
# Inside a walk a configuration is a key `(location, registers, values)`:
# two tuples in register order, so the key is the valuation's entries split.

def _key(c: ExtElem) -> tuple:
    entries = c.pi.images.entries
    return c.base, tuple([r for r, _ in entries]), tuple([v for _, v in entries])


def _own_keys(ra: RegisterAutomaton, configs: Iterable[ExtElem]):
    """The keys of configurations a caller hands in.  One whose valuation
    was built under another symmetry is checked against `ra.sym` first: the
    loop trusts every valuation it steps to be admissible."""
    for c in configs:
        if c.pi.sym is not ra.sym:
            RestrictedMap(ra.sym, c.pi.images)
        yield _key(c)


def _config_key(k: tuple):
    """Sort key only: locations `1` and `"1"` tie here but are distinct configs."""
    return str(k[0]), tuple(zip(k[1], k[2]))


def _configs(ra: RegisterAutomaton, keys) -> tuple:
    """The keys' configurations, sorted by `_config_key` (ties keep the
    keys' order)."""
    return tuple(ExtElem(RestrictedMap(ra.sym, FiniteMap(tuple(zip(regs, vals)))), loc)
                 for loc, regs, vals in sorted(keys, key=_config_key))


def _between(vals: tuple, a) -> tuple:
    """Total order: `vals` increases strictly, so `a` is on the value at
    `p = bisect_left(vals, a)` (code `2p+1`) or in the gap before it (code
    `2p`).  The renaming target is `vals` with `a` inserted; on a value the
    register's value wins, as `2` does over `Fraction(2)`."""
    p = bisect_left(vals, a)
    if p < len(vals) and vals[p] == a:
        return 2 * p + 1, vals
    return 2 * p, (*vals[:p], a, *vals[p:])


def _among(vals: tuple, a) -> tuple:
    """Equality without `lt`: `vals` is injective, so `a` is register `i`'s
    value (code `i`) or none of them (code `k`)."""
    if a in vals:
        return vals.index(a), vals
    return len(vals), (*vals, a)


def _ranked(vals: tuple, a) -> tuple:
    """Any symmetry: the order type of the values and `a`, which is all a
    guard can observe, valuations that repeat a value included."""
    ranks, at_rank = order_type([*vals, a])
    return tuple(ranks), at_rank


def _locator(ra: RegisterAutomaton):
    """How `_successors` names an orbit, as `(code, renaming target)`.
    Equality needs the full order type only when an (unvalidated) guard
    compares with `lt`, which `holds` evaluates; renaming needs it
    because its valuations need not be injective."""
    if ra.sym is SymmetryId.TOTAL_ORDER:
        return _between
    if ra.sym is SymmetryId.EQUALITY and not any(
            lit.relation == "lt" for t in ra.transitions for lit in t.guard.literals):
        return _among
    return _ranked


def _successors(ra: RegisterAutomaton, keys, letters) -> list:
    """Every successor key of `keys` under any of `letters`, without repeats
    and in discovery order.  Each letter is checked against the atom domain
    here, once, whether or not a transition stores it.

    A step observes only `eq`/`lt` between the input and the registers and
    admissibility, and it only copies atoms.  A strictly monotone map keeps
    all of these, and without `lt` under equality an injective one does.
    So its successors are fixed by the location, the registers and the
    input's position among their values (`ra._locate`).  On the first
    hit of a position in the automaton's life, `step_full` runs on the
    ranks of the values and the input in the renaming target (naturals, so
    atoms of every domain), and `ra._orbits` keeps the kept successors as
    `(target, registers, value ranks)` templates; every hit renames them
    back to the atoms.  A template that keeps the location, the registers
    and their values in place is `None`, and appends the key as it is,
    with no renamed tuple.  A position whose step raises is not stored."""
    for a in letters:
        check_atom(ra.sym, a)
    locate, orbits = ra._locate, ra._orbits
    out = []
    for key in keys:
        loc, regs, vals = key
        for a in letters:
            code, ext = locate(vals, a)
            succs = orbits.get((loc, regs, code))
            if succs is None:
                ranks = [ext.index(v) for v in (*vals, a)]
                c = ExtElem(RestrictedMap(ra.sym, FiniteMap(tuple(zip(regs, ranks)))), loc)
                same = _key(c)
                succs = orbits[loc, regs, code] = tuple(
                    None if k == same else k for k in map(_key, step_full(ra, c, ranks[-1])[0]))
            for t in succs:
                out.append(key if t is None else (t[0], t[1], tuple([ext[r] for r in t[2]])))
    return list(dict.fromkeys(out)) if len(out) > 1 else out  # one key needs no hashing


def step(ra: RegisterAutomaton, c: ExtElem, input_atom: Atom) -> tuple:
    return ConfigAutomaton(ra).successor((c,), input_atom)


def _inert(ra: RegisterAutomaton, loc, regs: tuple) -> bool:
    """Whether every letter that is none of a key's values at `(loc, regs)`
    steps the key to itself alone, cached in `ra._inert`.  `_successors`
    answers it on the key with values `1, 3, …, 2k-1`, one letter per
    position off them: `2k` under `_among`, and the gaps `0, 2, …, 2k`
    under `_between`; `_ranked` has no such position, so its keys are never
    inert.  A position whose step raises makes the key active, so that the
    step raises where the letter is read."""
    got = ra._inert.get((loc, regs))
    if got is None:
        k = len(regs)
        key = (loc, regs, tuple(range(1, 2 * k, 2)))
        letters = {_among: (2 * k,), _between: range(0, 2 * k + 1, 2)}.get(ra._locate, ())
        try:
            got = bool(letters) and all(_successors(ra, (key,), (a,)) == [key] for a in letters)
        except Exception:
            got = False
        ra._inert[loc, regs] = got
    return got


def run(ra: RegisterAutomaton, word: Iterable[Atom]) -> bool:
    """Breadth-first subset tracking; accept when a final location is live.

    The frontier is supported by `values`, its configurations' values.  A
    letter's position among them (`ra._locate`) fixes its position among
    each configuration's values, so letters in one position are related by
    a map that fixes `values` and so the frontier, and step it alike.  When
    a step leaves the frontier as it was, `stays` records the position, and
    every later letter there costs its domain check, locating it and one
    set lookup, with no step: `check_atom` runs only on a letter that is
    not a plain natural (or, under total order, a plain `Fraction`).
    Under `_among`, `position` maps each of `values` to its code, and a new
    letter has code `k`.  Under `_between`, `floors`, the integer floors of
    `values`, locates it: a letter whose floor no value shares is in the
    gap before the first value of a higher floor, and only one whose floor
    some value shares calls `_between`.  `_ranked` calls `ra._locate`.  A
    frontier that changes starts new `values`, `floors`, `position` and
    `stays`.

    By the same argument a single key is moved only by a letter among its
    own values when every other position keeps it as it is (`_inert`).
    Such keys sit in `inert`, indexed by value in `holders`; the rest are
    `active`.  A letter steps `active` and the inert keys that hold it, and
    the other inert keys carry over untouched.  `stays`, `position` and
    `holders` live for this call; the step and inert tables are the
    automaton's, and `_inert` fills the latter only on a miss.  When a
    letter raises, it is replayed on the whole frontier's configurations in
    `_config_key` order, so the first of them to raise decides which error
    the caller sees."""
    active, inert, holders = [_key(initial_config(ra))], {}, {}
    # built when the frontier first stays: `floors` under `_between`, `position` under `_among`
    values, floors, position, stays = None, None, None, set()
    sym, locate, inert_flags = ra.sym, ra._locate, ra._inert
    rational = sym is SymmetryId.TOTAL_ORDER
    for a in word:
        t = type(a)
        if not (t is int and a >= 0 or t is Fraction and rational):
            check_atom(sym, a)
        if stays:
            if position is not None:
                code = position.get(a, k)
            elif floors is not None:  # `_between` by floors, unless a value shares `a`'s floor
                n, d = a.as_integer_ratio()
                f = n // d
                p = bisect_left(floors, f)
                code = 2 * p if p == len(floors) or floors[p] != f else locate(values, a)[0]
            else:
                code = locate(values, a)[0]
            if code in stays:
                continue
        touched = list(holders.get(a, ()))
        try:
            succs = _successors(ra, active + touched, (a,))
        except Exception:
            for c in _configs(ra, [*active, *inert]):
                step_full(ra, c, a)
            raise
        next_active, kept, changed = [], set(), False
        for key in succs:
            loc, regs, vals = key
            flag = inert_flags.get((loc, regs))
            if not (_inert(ra, loc, regs) if flag is None else flag):
                next_active.append(key)
            elif key in inert:
                kept.add(key)
            else:
                inert[key], changed = None, True
                for v in vals:
                    holders.setdefault(v, {})[key] = None
        for key in touched:
            if key not in kept:
                del inert[key]
                changed = True
                for v in key[2]:
                    held = holders[v]
                    del held[key]
                    if not held:  # so `holders` keys the inert keys' values
                        del holders[v]
        # both lists are without repeats: same length, then the same keys in any order
        if not changed and len(next_active) == len(active) and (
                next_active == active or set(next_active) == set(active)):
            if values is None:  # distinct and increasing: `_between` needs it, the others accept it
                values = tuple(sorted({*holders, *(v for _, _, vals in active for v in vals)}))
                if locate is _between:
                    floors = [n // d for n, d in (v.as_integer_ratio() for v in values)]
                elif locate is _among:
                    position, k = {v: i for i, v in enumerate(values)}, len(values)
            stays.add(locate(values, a)[0])
        else:
            active, values, floors, position, stays = next_active, None, None, None, set()
    return any(loc in ra.final for loc, _, _ in (*active, *inert))


# --- generalized determinization ---

@dataclass
class Nfa:
    """A classical NFA presented coalgebraically: finality plus successor sets."""

    states: tuple
    alphabet: tuple
    initial: object
    final: frozenset
    delta: dict  # (state, letter) -> frozenset of states

    def coalg(self, q):
        flag = 1 if q in self.final else 0
        return flag, {a: frozenset(self.delta.get((q, a), frozenset())) for a in self.alphabet}


class PfSubsets:
    """Finite-powerset side effects over discrete state sets.

    The lifting to the determinized automaton is the join-semilattice one:
    finality flags join by max, successor sets by union.
    """

    @staticmethod
    def unit(q):
        return frozenset([q])

    @staticmethod
    def join(hs, alphabet):
        flag = max((f for f, _ in hs), default=0)
        delta = {
            a: frozenset().union(*(d[a] for _, d in hs)) if hs else frozenset()
            for a in alphabet
        }
        return flag, delta


class ExtConfigs:
    """Free-nominal side effects: determinization lands on configurations."""


@dataclass
class DetAutomaton:
    """The subset automaton induced by an NFA through the powerset lifting."""

    nfa: Nfa

    def observe(self, subset):
        return PfSubsets.join([self.nfa.coalg(q) for q in sorted(subset, key=repr)],
                              self.nfa.alphabet)

    @property
    def initial(self):
        return PfSubsets.unit(self.nfa.initial)

    def is_final(self, subset) -> bool:
        return self.observe(subset)[0] == 1

    def successor(self, subset, letter):
        return self.observe(subset)[1][letter]

    def accepts(self, word) -> bool:
        state = self.initial
        for a in word:
            state = self.successor(state, a)
        return self.is_final(state)


@dataclass
class ConfigAutomaton:
    """The configuration automaton of a register automaton."""

    ra: RegisterAutomaton

    @property
    def initial(self) -> ExtElem:
        return initial_config(self.ra)

    def successor(self, configs, input_atom):
        return _configs(self.ra, _successors(self.ra, _own_keys(self.ra, configs), (input_atom,)))

    def accepts(self, word) -> bool:
        return run(self.ra, word)


def determinize_generic(monad, coalg):
    """Internalize monadic side effects into the state space.

    With `PfSubsets` and an `Nfa` this is the classical subset
    construction; with `ExtConfigs` and a `RegisterAutomaton` it is the
    configuration automaton, whose transitions `step`/`run` compute once
    per orbit (one `step_full` per position of the input among the register
    values) and rename to the rest.
    """
    if monad is PfSubsets:
        if not isinstance(coalg, Nfa):
            raise ValueError("the pf instance determinizes an Nfa")
        return DetAutomaton(coalg)
    if monad is ExtConfigs:
        if not isinstance(coalg, RegisterAutomaton):
            raise ValueError("the ext instance determinizes a RegisterAutomaton")
        return ConfigAutomaton(coalg)
    raise ValueError(f"unsupported monad instance: {monad!r}")


# --- reachability and orbits ---

@dataclass(frozen=True)
class OrbitSummary:
    per_location: tuple  # ((loc, orbit count), ...) in location order
    configs_seen: int

    @property
    def total(self) -> int:
        return sum(n for _, n in self.per_location)

    def as_dict(self) -> dict:
        return dict(self.per_location)


def reachable_configs(ra: RegisterAutomaton, pool: Support, depth: int) -> tuple:
    """Configurations within `depth` letters of the pool, breadth first.
    Each level is sorted by `_config_key` before it is stepped, so the
    successors, and any error, come in the order of a sorted frontier."""
    frontier = [_key(initial_config(ra))]
    seen = dict.fromkeys(frontier)
    letters = tuple(pool)
    for _ in range(depth):
        frontier = [k for k in sorted(_successors(ra, frontier, letters), key=_config_key)
                    if k not in seen]
        if not frontier:
            break
        seen.update(dict.fromkeys(frontier))
    return _configs(ra, seen)


def _same_orbit(c1: ExtElem, c2: ExtElem) -> bool:
    """Same location and register domain: under a group symmetry, the value
    map one admissible valuation forces onto another of the same registers
    is injective (equality) or monotone (total order), and a global map
    extends it."""
    return c1.base == c2.base and c1.pi.domain == c2.pi.domain


def reachable_orbits(ra: RegisterAutomaton, pool: Support, depth: int) -> OrbitSummary:
    """Orbit counts of the configurations reachable with pool inputs: each
    configuration is kept as a representative unless it shares an orbit
    with one already kept at its location.  A location, its register domain
    and their admissible valuations are one free-extension generator, so one
    orbit."""
    if not ra.sym.is_group:
        raise ValueError("orbit counting needs a group symmetry")
    configs = reachable_configs(ra, pool, depth)
    reps = {}
    for c in configs:
        kept = reps.setdefault(c.base, [])
        if not any(_same_orbit(r, c) for r in kept):
            kept.append(c)
    per_loc = tuple((q, len(reps.get(q, ()))) for q in ra.locations.elements)
    return OrbitSummary(per_loc, len(configs))


# --- JSON forms ---

def _ref_to_json(ref):
    return "input" if isinstance(ref, InputRef) else {"reg": atom_to_json(ref.atom)}


def _ref_from_json(v, sym: SymmetryId):
    if v == "input":
        return INPUT
    return Reg(atom_from_json(v["reg"], sym))


def automaton_to_json(ra: RegisterAutomaton) -> dict:
    return {
        "symmetry": ra.sym.value,
        "locations": suppset_to_json(ra.locations),
        "initial": ra.initial,
        "final": sorted(ra.final, key=str),
        "transitions": [
            {
                "from": t.source,
                "guard": [
                    [lit.positive, lit.relation, [_ref_to_json(r) for r in lit.args]]
                    for lit in t.guard.literals
                ],
                "to": t.target,
                "assign": {
                    str(atom_to_json(a)): _ref_to_json(r) for a, r in t.assign
                },
            }
            for t in ra.transitions
        ],
    }


def automaton_from_json(d: dict) -> RegisterAutomaton:
    sym = SymmetryId.parse(d["symmetry"])
    locations = suppset_from_json(d["locations"], sym)
    transitions = []
    for td in json_array(d["transitions"], "transitions"):
        guard = Guard(
            tuple(
                Literal(bool(pol), rel, tuple(_ref_from_json(r, sym) for r in refs))
                for pol, rel, refs in json_array(td.get("guard", []), "guard")
            )
        )
        assign = {
            atom_from_json(a, sym): _ref_from_json(r, sym)
            for a, r in td.get("assign", {}).items()
        }
        transitions.append(make_transition(td["from"], guard, td["to"], assign))
    return RegisterAutomaton(
        sym=sym,
        locations=locations,
        initial=d["initial"],
        final=json_array(d["final"], "final"),
        transitions=tuple(transitions),
    )
