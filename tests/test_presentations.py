import json
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from suppsets.atoms import (
    FiniteMap,
    Support,
    SymmetryId,
    apply,
    fresh,
    fresh_atoms,
    lock_free_witness,
    pool_atoms,
    transposition,
)
from suppsets.freenom import (
    ExtElem,
    RestrictedMap,
    act,
    act_finite,
    admissible_maps,
    admissible_targets,
    ext_enumerate,
    ext_support,
)
from suppsets.presentations import (
    AtomPool,
    FinPresentation,
    PoolError,
    QuotElem,
    act_quot,
    default_pool,
    element_count,
    orbit_count,
    orbit_count_enum,
    presentation_from_json,
    presentation_to_json,
    quot_classes,
    quot_eq,
    quot_eq_fixpoint,
    supp_of,
)
from suppsets.supported import SuppSet, UnionFind
from suppsets.checks import random_admissible, random_presentation, random_suppset

DATA = Path(__file__).resolve().parent.parent / "data"
EQ = SymmetryId.EQUALITY
ORD = SymmetryId.TOTAL_ORDER


def relem(sym, mapping, base):
    return ExtElem(RestrictedMap(sym, FiniteMap.of(mapping)), base)


@pytest.fixture
def pairs():
    """One generator with a two-atom support, identified with its swap."""
    gens = SuppSet.of({"g": Support.of([0, 1])})
    eq = (relem(EQ, {0: 1, 1: 0}, "g"), relem(EQ, {0: 0, 1: 1}, "g"))
    return FinPresentation(EQ, gens, (eq,))


@pytest.fixture
def chain():
    """Under total order, `(g0, (a, b)) = (g0, (b, c))` for all a < b < c:
    a chain of equations joins every element into one class, so each has
    empty support.  Inside the pool `{0..n-1}`, `(g0, (0, n-1))` stays
    alone, since joining it needs an atom below 0 or above n-1."""
    gens = SuppSet.of({"g0": Support.of([0, 1])})
    eq = (relem(ORD, {0: 0, 1: 1}, "g0"), relem(ORD, {0: 1, 1: 2}, "g0"))
    return FinPresentation(ORD, gens, (eq,))


@pytest.fixture
def free_one_atom():
    return FinPresentation(EQ, SuppSet.of({"g": Support.of([0])}), ())


class TestDefaultPool:
    def test_rep_supports_plus_fresh(self, pairs):
        reps = [relem(EQ, {0: 4, 1: 7}, "g"), relem(EQ, {0: 7, 1: 4}, "g")]
        pool = default_pool(pairs, reps)
        # rep supports {4,7}, equation supports {0,1}, and 3 smallest fresh
        assert pool.atoms == Support.of([0, 1, 4, 7, 2, 3, 5])

    def test_no_equations_empty_rep(self):
        P = FinPresentation(EQ, SuppSet.of({"g": Support()}), ())
        assert len(default_pool(P)) == 1

    def test_monotone_in_reps(self, pairs):
        small = default_pool(pairs, [])
        big = default_pool(pairs, [relem(EQ, {0: 8, 1: 9}, "g")])
        assert small.atoms.issubset(big.atoms)


class TestQuotEq:
    def test_swap_identified(self, pairs):
        pool = AtomPool(Support.of([0, 1, 2, 3, 4]))
        assert quot_eq(pairs, relem(EQ, {0: 0, 1: 1}, "g"), relem(EQ, {0: 1, 1: 0}, "g"), pool)

    def test_no_equations_is_representative_equality(self, free_one_atom):
        pool = AtomPool(Support.of([0, 1, 2]))
        e1, e2 = relem(EQ, {0: 0}, "g"), relem(EQ, {0: 1}, "g")
        assert quot_eq(free_one_atom, e1, e1, pool)
        assert not quot_eq(free_one_atom, e1, e2, pool)

    def test_different_pairs_stay_distinct(self, pairs):
        pool = AtomPool(Support.of([0, 1, 2, 3, 4]))
        assert not quot_eq(pairs, relem(EQ, {0: 0, 1: 1}, "g"), relem(EQ, {0: 0, 1: 2}, "g"), pool)

    def test_pool_must_cover_supports(self, pairs):
        with pytest.raises(PoolError):
            quot_eq(
                pairs,
                relem(EQ, {0: 5, 1: 6}, "g"),
                relem(EQ, {0: 0, 1: 1}, "g"),
                AtomPool(Support.of([0, 1, 2])),
            )


class TestPoolCheck:
    """The pool check reads a set the pool builds once; the pool's equality,
    hash, repr and error message stay those of its `atoms` field."""

    def test_message_for_an_int_pool(self, pairs):
        pool = AtomPool(Support.of([0, 1, 2]))
        with pytest.raises(PoolError) as err:
            quot_eq(pairs, relem(EQ, {0: 0, 1: 1}, "g"), relem(EQ, {0: 6, 1: 5}, "g"), pool)
        assert str(err.value) == "pool (0, 1, 2) does not cover the support (5, 6)"

    def test_message_for_a_fraction_pool(self):
        P = FinPresentation(ORD, SuppSet.of({"g": Support.of([0, 1])}), ())
        pool = AtomPool(Support.of([Fraction(0), Fraction(1, 2), Fraction(1)]))
        e = relem(ORD, {0: Fraction(1, 2), 1: Fraction(7, 3)}, "g")
        with pytest.raises(PoolError) as err:
            supp_of(P, e, pool)
        assert str(err.value) == (
            "pool (Fraction(0, 1), Fraction(1, 2), Fraction(1, 1)) "
            "does not cover the support (Fraction(1, 2), Fraction(7, 3))"
        )

    def test_int_atoms_of_a_fraction_pool(self):
        """`2` and `Fraction(2)` are one atom, as they were to `issubset`."""
        P = FinPresentation(ORD, SuppSet.of({"g": Support.of([0, 1])}), ())
        pool = AtomPool(pool_atoms(ORD, 4))
        assert supp_of(P, relem(ORD, {0: 1, 1: 3}, "g"), pool) == Support.of([1, 3])

    def test_equality_hash_and_repr_after_a_query(self, pairs):
        used, fresh_pool = AtomPool(Support.of([0, 1, 2])), AtomPool(Support.of([0, 1, 2]))
        assert quot_eq(pairs, relem(EQ, {0: 0, 1: 1}, "g"), relem(EQ, {0: 1, 1: 0}, "g"), used)
        assert used == fresh_pool and hash(used) == hash(fresh_pool)
        assert repr(used) == repr(fresh_pool) == "AtomPool(atoms=Support(atoms=(0, 1, 2)))"


def ext_key(e):
    return (e.pi.images.entries, e.base)


def pool_verdict(P, e1, e2, pool):
    """Class equality over the pool, read off the union-find closure."""
    _, labels = quot_classes(P, pool)
    return labels[ext_key(e1)] == labels[ext_key(e2)]


class TestExactQuotEq:
    """Under total order a chain of equations can join two elements only
    through atoms outside any given pool: `quot_eq` says equal, and the
    closure over the pool says distinct."""

    @staticmethod
    def check(P, e1, e2, pool):
        assert quot_eq(P, e1, e2, pool)
        assert quot_eq(P, e2, e1, pool)
        assert not pool_verdict(P, e1, e2, pool)

    def test_selfcheck_seed_51(self):
        gens = SuppSet.of([("g0", Support()), ("g1", Support.of([0, 2]))])
        eqs = (
            (relem(ORD, {0: 1, 2: 2}, "g1"), relem(ORD, {0: 0, 2: 1}, "g1")),
            (relem(ORD, {0: 0, 2: 1}, "g1"), relem(ORD, {0: 0, 2: 1}, "g1")),
        )
        P = FinPresentation(ORD, gens, eqs)
        self.check(P, relem(ORD, {0: 0, 2: 5}, "g1"), relem(ORD, {0: 2, 2: 3}, "g1"),
                   AtomPool(Support.of(range(6))))

    def test_selfcheck_seed_55(self):
        gens = SuppSet.of({"g0": Support.of([1, 2])})
        eqs = ((relem(ORD, {1: 1, 2: 2}, "g0"), relem(ORD, {1: 0, 2: 1}, "g0")),)
        P = FinPresentation(ORD, gens, eqs)
        self.check(P, relem(ORD, {1: 3, 2: 5}, "g0"), relem(ORD, {1: 0, 2: 5}, "g0"),
                   AtomPool(Support.of(range(6))))

    @pytest.mark.parametrize("n", (3, 4, 5, 6))
    def test_chain(self, chain, n):
        self.check(chain, relem(ORD, {0: 0, 1: n - 1}, "g0"), relem(ORD, {0: 1, 1: 2}, "g0"),
                   AtomPool(Support.of(range(n))))

    def test_renaming_stays_on_the_pool(self):
        sym = SymmetryId.RENAMING
        gens = SuppSet.of({"g": Support.of([0, 1])})
        P = FinPresentation(sym, gens, ((relem(sym, {0: 1, 1: 0}, "g"), relem(sym, {0: 0, 1: 1}, "g")),))
        pool = AtomPool(Support.of(range(3)))
        e1, e2 = relem(sym, {0: 2, 1: 1}, "g"), relem(sym, {0: 1, 1: 2}, "g")
        assert quot_eq(P, e1, e2, pool) == pool_verdict(P, e1, e2, pool) is True
        with pytest.raises(ValueError):
            P.pair_orbits


class TestCounts:
    def test_pairs_element_count(self, pairs):
        assert element_count(pairs, AtomPool(Support.of([0, 1, 2]))) == 3

    def test_free_count_is_enumeration_count(self, free_one_atom):
        pool = AtomPool(Support.of([0, 1, 2]))
        n = element_count(free_one_atom, pool)
        assert n == 3 == len(ext_enumerate(EQ, free_one_atom.generators, pool.atoms))

    def test_empty_generators(self):
        P = FinPresentation(EQ, SuppSet(), ())
        pool = AtomPool(Support.of([0]))
        assert element_count(P, pool) == 0
        assert orbit_count(P, pool) == 0

    def test_pairs_orbit_count(self, pairs):
        assert orbit_count(pairs, AtomPool(Support.of([0, 1, 2]))) == 1

    def test_one_orbit_per_generator(self):
        P = FinPresentation(
            EQ, SuppSet.of([("g1", Support.of([0])), ("g2", Support.of([0]))]), ()
        )
        assert orbit_count(P, AtomPool(Support.of([0, 1, 2]))) == 2

    @pytest.mark.parametrize("n", (3, 4, 5, 6))
    def test_chain_counts_pool_bounded_classes(self, chain, n):
        """`element_count` counts the classes of the congruence generated by
        the equation instances that fit in the pool: two, one more than the
        exact quotient has.  `orbit_count` gives the exact one orbit."""
        pool = AtomPool(Support.of(range(n)))
        assert element_count(chain, pool) == 2
        assert orbit_count(chain, pool) == 1 == orbit_count_enum(chain, pool)

    def test_renaming_rejected(self):
        P = FinPresentation(SymmetryId.RENAMING, SuppSet.of({"g": Support()}), ())
        with pytest.raises(ValueError):
            orbit_count(P, AtomPool(Support.of([0])))

    def test_renaming_rejected_by_the_oracle_and_supp_of(self):
        sym = SymmetryId.RENAMING
        P = FinPresentation(sym, SuppSet.of({"g": Support.of([0])}), ())
        pool = AtomPool(Support.of([0]))
        with pytest.raises(ValueError, match="^orbits are defined for the group symmetries only$"):
            orbit_count_enum(P, pool)
        with pytest.raises(ValueError, match="^least supports are computed for the group symmetries only$"):
            supp_of(P, relem(sym, {0: 0}, "g"), pool)


def glue(rng, sym, gens, atoms, max_eqs):
    """0 to `max_eqs` equations over `atoms`, each between two generators
    drawn independently, so some glue different generators."""

    def side():
        x = rng.choice(gens.elements)
        return ExtElem(RestrictedMap(sym, random_admissible(rng, sym, gens.support(x), atoms)), x)

    eqs = tuple((side(), side()) for _ in range(rng.randint(0, max_eqs)))
    return FinPresentation(sym, gens, eqs)


def glued_presentation(rng, sym):
    """1-4 generators of support <= 3 and 0-4 equations."""
    atoms = pool_atoms(sym, 5)
    return glue(rng, sym, random_suppset(rng, sym, atoms, max_elems=4, max_supp=3, prefix="g"), atoms, 4)


class TestOrbitCount:
    """The closed form against the enumerating oracle, and the cases it
    turns on: what fits in the pool and what an equation glues."""

    @pytest.mark.parametrize("sym", (EQ, ORD))
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_enumeration(self, sym, seed):
        rng = Random(seed)
        for _ in range(3):
            P = glued_presentation(rng, sym)
            for n in range(5):
                pool = AtomPool(pool_atoms(sym, n))
                assert orbit_count(P, pool) == orbit_count_enum(P, pool)

    @staticmethod
    def counts(P, n):
        pool = AtomPool(pool_atoms(P.sym, n))
        return orbit_count(P, pool), orbit_count_enum(P, pool)

    @pytest.mark.parametrize("sym", (EQ, ORD))
    def test_generator_too_large_adds_no_orbit(self, sym):
        a = tuple(pool_atoms(sym, 3))
        P = FinPresentation(sym, SuppSet.of([("g", Support.of([a[0]])), ("h", Support.of(a))]), ())
        assert self.counts(P, 2) == (1, 1)
        assert self.counts(P, 3) == (2, 2)

    @pytest.mark.parametrize("sym", (EQ, ORD))
    def test_equation_too_large_merges_nothing(self, sym):
        a = tuple(pool_atoms(sym, 4))
        gens = SuppSet.of([("g", Support.of([a[0]])), ("k", Support.of([a[0]]))])
        # g at a0 equals k at a1: the equation spans two atoms
        P = FinPresentation(sym, gens, ((relem(sym, {a[0]: a[0]}, "g"), relem(sym, {a[0]: a[1]}, "k")),))
        assert self.counts(P, 1) == (2, 2)
        assert self.counts(P, 2) == (1, 1)

    @pytest.mark.parametrize("sym", (EQ, ORD))
    def test_cross_generator_equation_merges_two_orbits(self, sym):
        a = tuple(pool_atoms(sym, 4))
        gens = SuppSet.of([("g", Support.of([a[0]])), ("h", Support.of([a[0], a[1]]))])
        eq = (relem(sym, {a[0]: a[1]}, "g"), relem(sym, {a[0]: a[0], a[1]: a[1]}, "h"))
        free = FinPresentation(sym, gens, ())
        glued = FinPresentation(sym, gens, (eq,))
        assert self.counts(free, 3) == (2, 2)
        assert self.counts(glued, 3) == (1, 1)

    def test_unordered_pairs_at_pool_30(self):
        P = presentation_from_json(json.loads((DATA / "unordered_pairs.json").read_text()))
        assert orbit_count(P, AtomPool(pool_atoms(EQ, 30))) == 1

    def test_four_cycle_at_pool_8(self):
        a = Support.of(range(4))
        gens = SuppSet.of({"g": a})
        cycle = (relem(EQ, {0: 1, 1: 2, 2: 3, 3: 0}, "g"), relem(EQ, {0: 0, 1: 1, 2: 2, 3: 3}, "g"))
        P = FinPresentation(EQ, gens, (cycle,))
        assert orbit_count(P, AtomPool(pool_atoms(EQ, 8))) == 1


class TestOracleAgreement:
    @pytest.mark.parametrize("sym", (EQ, ORD))
    @pytest.mark.parametrize("seed", range(8))
    def test_union_find_matches_fixpoint(self, sym, seed):
        rng = Random(seed)
        P = random_presentation(rng, sym, pool_atoms(sym, 3))
        pool = default_pool(P)
        universe = ext_enumerate(sym, P.generators, pool.atoms)
        for e1 in universe[:6]:
            for e2 in universe[:6]:
                assert pool_verdict(P, e1, e2, pool) == quot_eq_fixpoint(P, e1, e2, pool)

    @pytest.mark.parametrize("seed", range(20))
    def test_exact_matches_fixpoint_under_equality(self, seed):
        """Under equality the closure over the two supports plus 2k fresh
        atoms, k the largest generator support, decides class equality."""
        rng = Random(f"exact:{seed}")
        P = random_presentation(rng, EQ, pool_atoms(EQ, 3))
        pool = default_pool(P)
        universe = ext_enumerate(EQ, P.generators, pool.atoms)
        spare = 2 * P.max_generator_support()
        for e1 in universe[:7]:
            for e2 in universe[:7]:
                base = ext_support(e1).union(ext_support(e2))
                widened = AtomPool(base.union(Support.of(fresh_atoms(EQ, base, spare))))
                assert quot_eq(P, e1, e2, pool) == quot_eq_fixpoint(P, e1, e2, widened)

    @pytest.mark.parametrize("sym", (EQ, ORD))
    @pytest.mark.parametrize("seed", range(20))
    def test_pool_equal_implies_exact_equal(self, sym, seed):
        """One-sided: a pool sees only some of the congruence's instances,
        and under total order no finite pool sees them all."""
        rng = Random(f"one-sided:{seed}")
        P = random_presentation(rng, sym, pool_atoms(sym, 3))
        pool = default_pool(P)
        universe = ext_enumerate(sym, P.generators, pool.atoms)
        _, labels = quot_classes(P, pool)
        for e1 in universe[:8]:
            for e2 in universe[:8]:
                if labels[ext_key(e1)] == labels[ext_key(e2)]:
                    assert quot_eq(P, e1, e2, pool)


RN = SymmetryId.RENAMING
MIXED = Support.of([0, Fraction(1, 2), 1, 2])


def oracle_presentation(rng, sym, atoms):
    """1-3 generators of support <= 2, a generator `z` with empty support,
    and 0-3 equations that may glue `z` to the others."""
    gens = random_suppset(rng, sym, atoms, max_elems=3, max_supp=2, prefix="g")
    return glue(rng, sym, SuppSet(gens.items + (("z", Support()),)), atoms, 3)


class TestPositionClosure:
    """`quot_classes` closes on pool positions; `quot_eq_fixpoint` closes
    on extension elements and is its oracle."""

    @staticmethod
    def check(P, pool, rng):
        universe, labels = quot_classes(P, pool)
        assert len(labels) == len(universe)
        for label in labels.values():
            assert labels[label] == label  # each label is its class's representative's key
        classes = {}
        for e in universe:
            classes.setdefault(labels[ext_key(e)], []).append(e)
        for e1 in rng.sample(universe, min(len(universe), 4)):
            mates = classes[labels[ext_key(e1)]]
            for e2 in (rng.choice(mates), rng.choice(universe)):
                assert quot_eq_fixpoint(P, e1, e2, pool) == (labels[ext_key(e1)] == labels[ext_key(e2)])
        return universe, labels

    @pytest.mark.parametrize("sym", (EQ, ORD, RN))
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_fixpoint(self, sym, seed):
        rng = Random(f"positions:{seed}")
        P = oracle_presentation(rng, sym, pool_atoms(sym, 4))
        for n in range(6):
            universe, _ = self.check(P, AtomPool(pool_atoms(sym, n)), rng)
            assert universe  # `z` fits every pool, the empty one too

    @pytest.mark.parametrize("seed", range(10))
    def test_mixed_int_and_fraction_pool(self, seed):
        rng = Random(f"mixed:{seed}")
        P = oracle_presentation(rng, ORD, MIXED)
        for k in range(len(MIXED) + 1):
            self.check(P, AtomPool(Support.of(rng.sample(tuple(MIXED), k))), rng)

    def test_renaming_quot_eq_runs_on_it(self):
        gens = SuppSet.of({"g": Support.of([0, 1])})
        swap = (relem(RN, {0: 1, 1: 0}, "g"), relem(RN, {0: 0, 1: 1}, "g"))
        P = FinPresentation(RN, gens, (swap,))
        pool = AtomPool(pool_atoms(RN, 5))
        assert element_count(P, pool) == 15  # 5 diagonal maps and 10 unordered pairs
        e1, e2 = relem(RN, {0: 3, 1: 1}, "g"), relem(RN, {0: 1, 1: 3}, "g")
        assert quot_eq(P, e1, e2, pool) and quot_eq_fixpoint(P, e1, e2, pool)

    def test_unordered_pairs_at_pool_40(self):
        P = presentation_from_json(json.loads((DATA / "unordered_pairs.json").read_text()))
        assert element_count(P, AtomPool(pool_atoms(EQ, 40))) == 40 * 39 // 2

    @staticmethod
    def first_atom_family():
        """Under total order `(g, (a, b)) = (g, (a, c))`: a class of `g` is
        fixed by its first atom, so a pool of n atoms has n - 1 classes of
        `g` and n of the free `h`."""
        gens = SuppSet.of([("g", Support.of([0, 1])), ("h", Support.of([0]))])
        eq = (relem(ORD, {0: 0, 1: 1}, "g"), relem(ORD, {0: 0, 1: 2}, "g"))
        return FinPresentation(ORD, gens, (eq,))

    def test_total_order_family_at_pool_30(self):
        assert element_count(self.first_atom_family(), AtomPool(pool_atoms(ORD, 30))) == 59

    @staticmethod
    def count_unions(monkeypatch) -> list:
        calls = []
        union = UnionFind.union

        def spy(uf, a, b):
            calls.append((a, b))
            union(uf, a, b)

        monkeypatch.setattr(UnionFind, "union", spy)
        return calls

    @pytest.mark.parametrize("sym", (EQ, ORD, RN))
    @pytest.mark.parametrize("seed", range(10))
    def test_one_union_per_instance(self, sym, seed, monkeypatch):
        """The closure unions through `UnionFind.union`, once per equation
        instance, so a count kept on that method sees every instance."""
        calls = self.count_unions(monkeypatch)
        P = oracle_presentation(Random(f"unions:{seed}"), sym, pool_atoms(sym, 4))
        for n in range(6):
            calls.clear()
            quot_classes(P, AtomPool(pool_atoms(sym, n)))
            doms = (ext_support(lhs).union(ext_support(rhs)) for lhs, rhs in P.equations)
            instances = sum(len(list(admissible_targets(sym, len(dom), range(n)))) for dom in doms)
            assert len(calls) == instances

    def test_unions_of_the_total_order_family(self, monkeypatch):
        calls = self.count_unions(monkeypatch)
        assert element_count(self.first_atom_family(), AtomPool(pool_atoms(ORD, 12))) == 23
        assert len(calls) == 220  # the monotone triples from 12 atoms

    def test_builds_nothing_per_instance(self, monkeypatch):
        """Timing-free: no `act_finite` call, and no more `RestrictedMap`s
        than the universe's own, where the pool has 220 instances."""
        import suppsets.presentations as presentations

        P, pool = self.first_atom_family(), AtomPool(pool_atoms(ORD, 12))

        def refuse(*args):
            raise AssertionError("act_finite called")

        monkeypatch.setattr(presentations, "act_finite", refuse)
        built = []
        check = RestrictedMap.__post_init__
        monkeypatch.setattr(RestrictedMap, "__post_init__", lambda self: built.append(check(self)))
        assert element_count(P, pool) == 23
        assert len(built) <= len(ext_enumerate(ORD, P.generators, pool.atoms)) == 78


class TestPoolStability:
    @pytest.mark.parametrize("sym", (EQ, ORD))
    @pytest.mark.parametrize("seed", range(6))
    def test_verdicts_and_counts_stable(self, sym, seed):
        rng = Random(seed)
        P = random_presentation(rng, sym, pool_atoms(sym, 3))
        pool = default_pool(P)
        bigger = AtomPool(pool.atoms.union(Support.of([fresh(sym, pool.atoms)])))
        small_universe = ext_enumerate(sym, P.generators, pool.atoms)
        _, labels_small = quot_classes(P, pool)
        _, labels_big = quot_classes(P, bigger)

        def key(e):
            return (e.pi.images.entries, e.base)

        for i, e1 in enumerate(small_universe):
            for e2 in small_universe[i:]:
                assert (labels_small[key(e1)] == labels_small[key(e2)]) == (
                    labels_big[key(e1)] == labels_big[key(e2)]
                )
        # counts restricted to the elements expressible in the smaller pool
        small_classes = {labels_small[key(e)] for e in small_universe}
        big_classes = {labels_big[key(e)] for e in small_universe}
        assert len(small_classes) == len(big_classes)


class TestSuppOf:
    def test_free_case_is_full_support(self, free_one_atom):
        pool = default_pool(free_one_atom)
        e = relem(EQ, {0: 0}, "g")
        assert supp_of(free_one_atom, e, pool) == Support.of([0])

    def test_unordered_pair_keeps_both_atoms(self, pairs):
        e = relem(EQ, {0: 4, 1: 7}, "g")
        pool = default_pool(pairs, [e])
        assert supp_of(pairs, e, pool) == Support.of([4, 7])

    def test_collapsing_equation_shrinks_support(self):
        # the equation identifies every reassignment of g with the identity
        # one, so nothing depends on where the atom goes
        gens = SuppSet.of({"g": Support.of([0])})
        eqs = tuple(
            (relem(EQ, {0: k}, "g"), relem(EQ, {0: 0}, "g")) for k in (1, 2, 3, 4)
        )
        P = FinPresentation(EQ, gens, eqs)
        pool = AtomPool(Support.of([0, 1, 2, 3, 4]))
        e = relem(EQ, {0: 0}, "g")
        assert supp_of(P, e, pool) == Support()

    @pytest.mark.parametrize("sym", (EQ, ORD))
    @pytest.mark.parametrize("seed", range(6))
    def test_always_within_ext_support(self, sym, seed):
        rng = Random(seed)
        P = random_presentation(rng, sym, pool_atoms(sym, 3))
        pool = default_pool(P)
        universe = ext_enumerate(sym, P.generators, pool.atoms)
        if not universe:
            pytest.skip("empty universe")
        e = rng.choice(universe)
        s = supp_of(P, e, pool)
        assert s.issubset(ext_support(e))
        if not P.equations:
            assert s == ext_support(e)

    @pytest.mark.parametrize("n", (6, 8, 12, 24))
    def test_chain_support_is_empty(self, chain, n):
        e = relem(ORD, {0: 1, 1: 3}, "g0")
        assert supp_of(chain, e, AtomPool(Support.of(range(n)))) == Support()

    def test_order_symmetry_interior_atom_is_kept(self):
        P = FinPresentation(ORD, SuppSet.of({"g": Support.of([0, 1, 2])}), ())
        e = relem(ORD, {0: 0, 1: 1, 2: 2}, "g")
        pool = default_pool(P, [e])
        assert supp_of(P, e, pool) == Support.of([0, 1, 2])


def closure_supp(P, e):
    """Per-atom least support read off one closure: an atom is dropped when
    its lock-free witness keeps the class.  The pool is supp(e), the witness
    images and 2k fresh atoms, k the largest generator support.  Returns
    (dropped atoms, pool, labels)."""
    dom = ext_support(e)
    witness = {a: lock_free_witness(P.sym, dom.minus([a]), a) for a in dom}
    base = dom.union(Support.of(apply(w, a) for a, w in witness.items()))
    pool = AtomPool(base.union(Support.of(fresh_atoms(P.sym, base, 2 * P.max_generator_support()))))
    _, labels = quot_classes(P, pool)
    dropped = {a for a, w in witness.items() if labels[ext_key(act(w, e))] == labels[ext_key(e)]}
    return dropped, pool, labels


def supp_deck(sym, seed):
    """A seeded presentation and up to 10 of its elements."""
    rng = Random(f"supp:{seed}")
    P = random_presentation(rng, sym, pool_atoms(sym, 3))
    universe = ext_enumerate(sym, P.generators, default_pool(P).atoms)
    return P, rng.sample(universe, min(len(universe), 10))


class TestSuppOfOracle:
    """The exact least support against the pool closure."""

    @pytest.mark.parametrize("seed", range(40))
    def test_equality_matches_closure_and_is_a_support(self, seed):
        """Two-sided under equality: the per-atom closure answer is the
        exact one, and every admissible map into the pool that fixes the
        answer pointwise keeps the class, which is the definition of a
        support and does not lean on the one-atom lemma."""
        P, elems = supp_deck(EQ, seed)
        for e in elems:
            dropped, pool, labels = closure_supp(P, e)
            s = supp_of(P, e, pool)
            assert s == ext_support(e).minus(dropped)
            for m in admissible_maps(EQ, ext_support(e), pool.atoms):
                if all(m(a) == a for a in s):
                    assert labels[ext_key(act_finite(m, e))] == labels[ext_key(e)]

    @pytest.mark.parametrize("sym", (EQ, ORD))
    @pytest.mark.parametrize("seed", range(40))
    def test_pool_droppable_is_dropped(self, sym, seed):
        """One-sided under both symmetries: a pool closure sees only some of
        the congruence's instances."""
        P, elems = supp_deck(sym, seed)
        for e in elems:
            dropped, pool, _ = closure_supp(P, e)
            assert not dropped.intersection(supp_of(P, e, pool))


def per_atom_supp(P, e, pool):
    """The least support by its definition: an atom of `supp(e)` stays
    when moving it alone, with the others fixed, changes `e`'s class."""
    dom = ext_support(e)
    moved = {a: act(lock_free_witness(P.sym, dom.minus([a]), a), e) for a in dom}
    wide = AtomPool(pool.atoms.union(Support.of(b for m in moved.values() for b in ext_support(m))))
    return Support.of(a for a, m in moved.items() if not quot_eq(P, e, m, wide))


class TestLeastSupportTable:
    """`supp_of` maps its generator's least support along the element's
    reassignment; the table is filled per generator, on first query."""

    ATOMS = {EQ: pool_atoms(EQ, 4), ORD: Support.of([0, Fraction(1, 2), 1, 2, Fraction(7, 3)])}

    @staticmethod
    def check_universe(P, pool):
        universe = ext_enumerate(P.sym, P.generators, pool.atoms)
        for e in universe:
            assert supp_of(P, e, pool) == per_atom_supp(P, e, pool), e
        return universe

    @pytest.mark.parametrize("sym", (EQ, ORD))
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_the_per_atom_definition(self, sym, seed):
        """Seeded presentations with the empty-support `z` and a generator
        `u` that no equation mentions, on every element of the pool-bounded
        universe; under total order the atoms include 1/2 and 7/3."""
        atoms = self.ATOMS[sym]
        rng = Random(f"table:{seed}")
        P = oracle_presentation(rng, sym, atoms)
        u = Support.of(rng.sample(tuple(atoms), 2))
        P = FinPresentation(sym, SuppSet(P.generators.items + (("u", u),)), P.equations)
        universe = self.check_universe(P, AtomPool(atoms))
        assert {e.base for e in universe} >= {"z", "u"}

    def test_unordered_pairs(self):
        P = presentation_from_json(json.loads((DATA / "unordered_pairs.json").read_text()))
        pool = AtomPool(pool_atoms(EQ, 6))
        self.check_universe(P, pool)
        assert P._least_supports == {"g": (0, 1)}

    def test_chain_is_empty(self, chain):
        pool = AtomPool(Support.of([0, Fraction(1, 2), 1, 2, Fraction(7, 3), 4]))
        for e in self.check_universe(chain, pool):
            assert supp_of(chain, e, pool) == Support()

    def test_fraction_images(self):
        """Under total order `(g, (a, b)) = (g, (a, c))`: the class keeps its first atom."""
        gens = SuppSet.of([("g", Support.of([0, 1])), ("h", Support.of([0]))])
        eq = (relem(ORD, {0: 0, 1: 1}, "g"), relem(ORD, {0: 0, 1: 2}, "g"))
        P = FinPresentation(ORD, gens, (eq,))
        pool = AtomPool(Support.of([Fraction(1, 2), Fraction(7, 3)]))
        e = relem(ORD, {0: Fraction(1, 2), 1: Fraction(7, 3)}, "g")
        assert supp_of(P, e, pool) == Support.of([Fraction(1, 2)])
        assert supp_of(P, relem(ORD, {0: Fraction(7, 3)}, "h"), pool) == Support.of([Fraction(7, 3)])

    def test_fills_per_generator(self, monkeypatch):
        import suppsets.presentations as presentations

        calls = []
        witness = presentations.lock_free_witness
        monkeypatch.setattr(presentations, "lock_free_witness", lambda *args: calls.append(args) or witness(*args))
        gens = SuppSet.of([("g", Support.of([0, 1, 2])), ("h", Support.of([0])), ("k", Support())])
        eq = (relem(EQ, {0: 0, 1: 1, 2: 2}, "g"), relem(EQ, {0: 1, 1: 0, 2: 2}, "g"))
        P = FinPresentation(EQ, gens, (eq,))
        pool = AtomPool(pool_atoms(EQ, 6))
        assert supp_of(P, relem(EQ, {0: 3, 1: 4, 2: 5}, "g"), pool) == Support.of([3, 4, 5])
        assert len(calls) == 3
        assert set(P._least_supports) == {"g"}
        assert supp_of(P, relem(EQ, {0: 5, 1: 0, 2: 1}, "g"), pool) == Support.of([0, 1, 5])
        assert len(calls) == 3
        assert set(P._least_supports) == {"g"}
        assert supp_of(P, relem(EQ, {}, "k"), pool) == Support()
        assert len(calls) == 3 and set(P._least_supports) == {"g", "k"}


class TestActQuot:
    def test_identity(self, pairs):
        q = QuotElem(pairs, relem(EQ, {0: 0, 1: 1}, "g"))
        assert act_quot(transposition(EQ, 5, 6), q).same_class(q)

    def test_swap_stays_in_class(self, pairs):
        q = QuotElem(pairs, relem(EQ, {0: 4, 1: 7}, "g"))
        moved = act_quot(transposition(EQ, 4, 7), q)
        assert moved.same_class(q)

    def test_two_presentations_share_no_class(self, free_one_atom):
        e = relem(EQ, {0: 0}, "g")
        glued = FinPresentation(EQ, free_one_atom.generators, ((e, relem(EQ, {0: 1}, "g")),))
        assert QuotElem(glued, e).same_class(QuotElem(glued, e))
        assert not QuotElem(free_one_atom, e).same_class(QuotElem(glued, e))

    def test_fresh_move_changes_class_and_support(self, pairs):
        q = QuotElem(pairs, relem(EQ, {0: 4, 1: 7}, "g"))
        moved = act_quot(transposition(EQ, 7, 9), q)
        assert not moved.same_class(q)
        pool = default_pool(pairs, [q.rep, moved.rep])
        assert supp_of(pairs, moved.rep, pool) == Support.of([4, 9])

    @pytest.mark.parametrize("seed", range(6))
    def test_action_is_a_congruence(self, seed):
        from suppsets.freenom import act_finite

        rng = Random(seed)
        P = random_presentation(rng, EQ, pool_atoms(EQ, 3))
        pool = default_pool(P)
        universe = ext_enumerate(EQ, P.generators, pool.atoms)
        m = random_admissible(rng, EQ, pool.atoms, pool.atoms)
        related = 0
        for e1 in universe[:8]:
            for e2 in universe[:8]:
                if quot_eq(P, e1, e2, pool):
                    related += 1
                    assert quot_eq(P, act_finite(m, e1), act_finite(m, e2), pool)
        assert related >= len(universe[:8])  # at least the diagonal


class TestJson:
    def test_round_trip(self, pairs):
        assert presentation_from_json(presentation_to_json(pairs)) == pairs
