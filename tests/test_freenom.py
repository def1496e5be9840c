from random import Random

import pytest

from suppsets.atoms import (
    FiniteMap,
    Support,
    SymmetryId,
    apply,
    compose,
    extend_to_global,
    identity,
    pool_atoms,
    transposition,
)
from suppsets.freenom import (
    EXT_CARRIER,
    ExtElem,
    ExtendPreconditionError,
    NominalCarrier,
    RestrictedMap,
    act,
    act_finite,
    admissible_maps,
    admissible_targets,
    check_ext_elem,
    ext_elem_from_json,
    ext_elem_to_json,
    ext_enumerate,
    ext_map,
    ext_support,
    extend,
    identity_restriction,
    mult,
    restrict,
    unit,
)
from suppsets.supported import SuppMap, SuppSet
from suppsets.checks import (
    random_admissible,
    random_ext_elem,
    random_global,
    random_suppset,
)

EQ = SymmetryId.EQUALITY
ORD = SymmetryId.TOTAL_ORDER
RN = SymmetryId.RENAMING
SYMS = (EQ, ORD, RN)


def sset(supports):
    return SuppSet.of({k: Support.of(v) for k, v in supports.items()})


def relem(sym, mapping, base):
    return ExtElem(RestrictedMap(sym, FiniteMap.of(mapping)), base)


class TestRestrict:
    def test_identity(self):
        r = restrict(identity(EQ), Support.of([1, 2]))
        assert dict(r.images.items()) == {1: 1, 2: 2}

    def test_swap(self):
        r = restrict(transposition(EQ, 0, 1), Support.of([0, 1]))
        assert dict(r.images.items()) == {0: 1, 1: 0}

    def test_three_cycle(self):
        g = extend_to_global(EQ, FiniteMap.of({0: 2, 2: 1, 1: 0}))
        r = restrict(g, Support.of([0]))
        assert dict(r.images.items()) == {0: 2}


class TestExtSupport:
    def test_image_of_the_map(self):
        e = relem(EQ, {0: 4, 1: 7}, "x")
        assert ext_support(e) == Support.of([4, 7])

    def test_empty(self):
        e = relem(EQ, {}, "x")
        assert ext_support(e) == Support()

    def test_unit_support(self):
        X = sset({"x": [1, 2]})
        assert ext_support(unit(EQ, X, "x")) == Support.of([1, 2])


class TestAct:
    def test_identity(self):
        e = relem(EQ, {0: 1}, "x")
        assert act(identity(EQ), e) == e

    def test_swap(self):
        e = relem(EQ, {0: 0, 1: 1}, "x")
        assert act(transposition(EQ, 0, 1), e) == relem(EQ, {0: 1, 1: 0}, "x")

    def test_pointwise(self):
        e = relem(EQ, {0: 1}, "x")
        assert act(transposition(EQ, 1, 2), e) == relem(EQ, {0: 2}, "x")

    @pytest.mark.parametrize("sym", SYMS)
    @pytest.mark.parametrize("seed", range(5))
    def test_support_image_for_invertible(self, sym, seed):
        from suppsets.atoms import finite_renaming

        rng = Random(seed)
        pool = pool_atoms(sym, 6)
        X = random_suppset(rng, sym, pool)
        e = random_ext_elem(rng, sym, X, pool)
        if sym is RN:
            # an invertible renaming is a finite permutation
            g = finite_renaming(dict(random_global(rng, EQ, pool).entries))
        else:
            g = random_global(rng, sym, pool)
        moved = act(g, e)
        assert ext_support(moved) == Support.of(apply(g, a) for a in ext_support(e))


class TestUnit:
    def test_identity_restriction(self):
        X = sset({"x": [1, 2]})
        assert unit(EQ, X, "x") == relem(EQ, {1: 1, 2: 2}, "x")

    def test_empty_support(self):
        X = sset({"x": []})
        assert unit(EQ, X, "x") == relem(EQ, {}, "x")


class TestExtMap:
    def test_identity(self):
        X = sset({"x": [0, 1]})
        e = relem(EQ, {0: 4, 1: 7}, "x")
        assert ext_map(SuppMap.of(X, X, {"x": "x"}), e) == e

    def test_dropping_an_atom(self):
        X, Y = sset({"x": [0, 1]}), sset({"y": [0]})
        f = SuppMap.of(X, Y, {"x": "y"})
        e = relem(EQ, {0: 4, 1: 7}, "x")
        assert ext_map(f, e) == relem(EQ, {0: 4}, "y")

    @pytest.mark.parametrize("sym", SYMS)
    @pytest.mark.parametrize("seed", range(5))
    def test_naturality_of_unit(self, sym, seed):
        rng = Random(seed)
        pool = pool_atoms(sym, 5)
        X = random_suppset(rng, sym, pool)
        # a support-shrinking endomap: send everything to a least-support element
        smallest = min(X.elements, key=lambda x: (len(X.support(x)), x))
        target = {
            x: (smallest if X.support(smallest).issubset(X.support(x)) else x)
            for x in X.elements
        }
        f = SuppMap.of(X, X, target)
        for x in X.elements:
            assert ext_map(f, unit(sym, X, x)) == unit(sym, X, f(x))

    @pytest.mark.parametrize("seed", range(5))
    def test_functorial_and_equivariant(self, seed):
        rng = Random(seed)
        pool = pool_atoms(EQ, 6)
        X = random_suppset(rng, EQ, pool)
        e = random_ext_elem(rng, EQ, X, pool)
        ident = SuppMap.of(X, X, {x: x for x in X.elements})
        assert ext_map(ident, e) == e
        g = random_global(rng, EQ, pool)
        assert ext_map(ident, act(g, e)) == act(g, ext_map(ident, e))


class TestExtend:
    def test_unit_law(self):
        X = sset({"x": [0, 1]})
        f = {"x": relem(EQ, {0: 0, 1: 1}, "x")}
        assert extend(f, EXT_CARRIER, X, unit(EQ, X, "x")) == f["x"]

    def test_applies_the_reassignment(self):
        X = sset({"x": [0, 1]})
        f = {"x": unit(EQ, X, "x")}
        e = relem(EQ, {0: 4, 1: 7}, "x")
        assert extend(f, EXT_CARRIER, X, e) == relem(EQ, {0: 4, 1: 7}, "x")

    def test_precondition_violation_reported(self):
        X = sset({"x": []})
        f = {"x": relem(EQ, {0: 5}, "y")}  # support {5} not within {}
        with pytest.raises(ExtendPreconditionError) as exc:
            extend(f, EXT_CARRIER, X, unit(EQ, X, "x"))
        assert exc.value.violations[0][0] == "x"

    def test_into_a_quotient_carrier(self):
        # value a generator into the unordered-pairs quotient: the
        # reassignment {0->4, 1->7} must land on the class of the pair {4,7}
        from suppsets.presentations import (
            AtomPool,
            FinPresentation,
            default_pool,
            quot_eq,
            supp_of,
        )

        gens = SuppSet.of({"g": Support.of([0, 1])})
        eq_pair = (relem(EQ, {0: 1, 1: 0}, "g"), relem(EQ, {0: 0, 1: 1}, "g"))
        P = FinPresentation(EQ, gens, (eq_pair,))
        pool = AtomPool(Support.of([0, 1, 2, 3, 4, 5, 6, 7]))
        carrier = NominalCarrier(
            act=act,
            supp=lambda v: supp_of(P, v, pool),
            eq=lambda v, w: quot_eq(P, v, w, pool),
        )
        X = sset({"x": [0, 1]})
        f = {"x": unit(EQ, P.generators, "g")}
        got = extend(f, carrier, X, relem(EQ, {0: 4, 1: 7}, "x"))
        assert quot_eq(P, got, relem(EQ, {0: 4, 1: 7}, "g"), pool)
        assert quot_eq(P, got, relem(EQ, {0: 7, 1: 4}, "g"), pool)

    @pytest.mark.parametrize("sym", SYMS)
    @pytest.mark.parametrize("seed", range(6))
    def test_equivariance(self, sym, seed):
        rng = Random(seed)
        pool = pool_atoms(sym, 6)
        X = random_suppset(rng, sym, pool)
        Y = random_suppset(rng, sym, pool, prefix="t")
        Y = SuppSet.of(tuple(Y.items) + (("t_closed", Support()),))
        f = {}
        for x in X.elements:
            dom = X.support(x)
            fits = [y for y in Y.elements if len(Y.support(y)) <= len(dom)]
            y = rng.choice(fits)
            m = random_admissible(rng, sym, Y.support(y), dom)
            f[x] = ExtElem(RestrictedMap(sym, m), y)
        e = random_ext_elem(rng, sym, X, pool)
        g = random_global(rng, sym, pool)
        lhs = extend(f, EXT_CARRIER, X, act(g, e))
        rhs = act(g, extend(f, EXT_CARRIER, X, e))
        assert lhs == rhs

    @pytest.mark.parametrize("sym", SYMS)
    @pytest.mark.parametrize("seed", range(6))
    def test_unique_factorization_through_units(self, sym, seed):
        # every enumerated element is its reassignment acting on a unit, so
        # an action-compatible map agreeing on units is determined everywhere
        rng = Random(seed)
        pool = pool_atoms(sym, 4)
        X = random_suppset(rng, sym, pool, max_elems=2, max_supp=2)
        f = {x: unit(sym, X, x) for x in X.elements}
        for e in ext_enumerate(sym, X, pool):
            g = extend_to_global(sym, e.pi.images)
            assert act(g, unit(sym, X, e.base)) == e
            assert extend(f, EXT_CARRIER, X, e) == e


class TestMult:
    def test_left_unit(self):
        e = relem(EQ, {0: 4, 1: 7}, "x")
        assert mult(identity_restriction(EQ, ext_support(e)), e) == e

    def test_right_unit(self):
        X = sset({"x": [0, 1]})
        g = transposition(EQ, 0, 1)
        outer = restrict(g, X.support("x"))
        assert mult(outer, unit(EQ, X, "x")) == ExtElem(outer, "x")

    def test_associativity_instance(self):
        e = relem(EQ, {0: 1, 1: 2}, "x")
        o2 = RestrictedMap(EQ, FiniteMap.of({1: 3, 2: 4}))
        o1 = RestrictedMap(EQ, FiniteMap.of({3: 5, 4: 6}))
        composed = RestrictedMap(EQ, FiniteMap.of({1: 5, 2: 6}))
        assert mult(o1, mult(o2, e)) == mult(composed, e)

    def test_domain_mismatch(self):
        e = relem(EQ, {0: 4}, "x")
        with pytest.raises(ValueError):
            mult(RestrictedMap(EQ, FiniteMap.of({0: 0})), e)


class TestPostComposition:
    """`act`, `mult` and `act_finite` share one body; the `RestrictedMap`
    constructor is their only admissibility check."""

    def setup_method(self):
        self.e = relem(EQ, {0: 4, 1: 5}, "x")

    def test_inadmissible_finite_map(self):
        with pytest.raises(ValueError) as exc:
            act_finite(FiniteMap.of({4: 3, 5: 3}), self.e)
        assert str(exc.value) == "((0, 3), (1, 3)) is not admissible for equality"

    def test_out_of_domain_image(self):
        with pytest.raises(ValueError) as exc:
            act_finite(FiniteMap.of({4: -1, 5: 3}), self.e)
        assert str(exc.value) == "-1 is not a natural-number atom (equality)"

    def test_preconditions_keep_their_messages(self):
        with pytest.raises(ValueError) as exc:
            act(identity(SymmetryId.RENAMING), self.e)
        assert str(exc.value) == "mixed symmetries"
        with pytest.raises(ValueError) as exc:
            mult(RestrictedMap(EQ, FiniteMap.of({0: 0})), self.e)
        assert str(exc.value) == "outer domain (0,) != element support (4, 5)"

    def test_public_constructor_rejects(self):
        with pytest.raises(ValueError) as exc:
            RestrictedMap(SymmetryId.TOTAL_ORDER, FiniteMap.of({0: 2, 1: 1}))
        assert str(exc.value) == "((0, 2), (1, 1)) is not admissible for total-order"

    @pytest.mark.parametrize("sym", SYMS)
    @pytest.mark.parametrize("seed", range(6))
    def test_entries_match_a_sorted_rebuild(self, sym, seed):
        rng = Random(seed)
        pool = pool_atoms(sym, 5)
        X = random_suppset(rng, sym, pool)
        e = random_ext_elem(rng, sym, X, pool)
        g = random_global(rng, sym, pool)
        got = act(g, e).pi.images
        assert got == FiniteMap.of({a: apply(g, b) for a, b in e.pi.images.items()})


class TestEnumerate:
    def setup_method(self):
        self.X = sset({"x": [0, 1]})

    def test_equality_counts_injections(self):
        out = ext_enumerate(EQ, self.X, Support.of([0, 1, 2]))
        assert len(out) == 6

    def test_order_counts_monotone_injections(self):
        X = SuppSet.of({"x": Support.of([0, 1])})
        out = ext_enumerate(ORD, X, Support.of([0, 1, 2]))
        assert len(out) == 3

    def test_renaming_counts_all_maps(self):
        out = ext_enumerate(RN, self.X, Support.of([0, 1, 2]))
        assert len(out) == 9

    def test_deterministic_order(self):
        a = ext_enumerate(EQ, self.X, Support.of([0, 1, 2]))
        b = ext_enumerate(EQ, self.X, Support.of([0, 1, 2]))
        assert a == b

    @pytest.mark.parametrize("sym", SYMS)
    @pytest.mark.parametrize("k", range(4))
    def test_targets_on_positions_follow_the_atoms(self, sym, k):
        """Position tuples name the atom tuples in the same order, so an
        index built over `range(p)` matches `admissible_maps` and
        `ext_enumerate` element for element."""
        pool = pool_atoms(sym, 4)
        atoms = tuple(pool)
        dom = Support.of(range(k))
        on_atoms = [tuple(m(a) for a in dom) for m in admissible_maps(sym, dom, pool)]
        on_positions = [tuple(atoms[i] for i in t) for t in admissible_targets(sym, k, range(len(atoms)))]
        assert on_positions == on_atoms
        assert len(on_atoms) == len(ext_enumerate(sym, SuppSet.of({"x": dom}), pool))


class TestSupportsIff:
    @pytest.mark.parametrize("sym", (EQ, ORD))
    def test_set_supports_element_iff_it_covers_ext_support(self, sym):
        # S supports e when every pair of admissible maps agreeing on S
        # acts identically; over the free extension that pins exactly the
        # atoms in the reassignment's image
        pool = pool_atoms(sym, 4)
        X = SuppSet.of({"x": Support.of(tuple(pool)[:2])})
        e = unit(sym, X, "x")
        dom = ext_support(e)
        for S in [Support(), Support.of([tuple(pool)[0]]), dom, pool]:
            agree_all = all(
                act_m(m1, e) == act_m(m2, e)
                for m1 in admissible_maps(sym, dom, pool)
                for m2 in admissible_maps(sym, dom, pool)
                if all(m1.get(a) == m2.get(a) for a in S if m1.get(a) is not None)
            )
            assert agree_all == dom.issubset(S)


def act_m(m, e):
    from suppsets.freenom import act_finite

    return act_finite(m, e)


class TestCarrierContract:
    @pytest.mark.parametrize("sym", SYMS)
    @pytest.mark.parametrize("seed", range(4))
    def test_action_axioms(self, sym, seed):
        rng = Random(seed)
        pool = pool_atoms(sym, 5)
        X = random_suppset(rng, sym, pool)
        e = random_ext_elem(rng, sym, X, pool)
        g, h = random_global(rng, sym, pool), random_global(rng, sym, pool)
        assert act(identity(sym), e) == e
        assert act(g, act(h, e)) == act(compose(g, h), e)
        image = Support.of(apply(g, a) for a in ext_support(e))
        assert ext_support(act(g, e)).issubset(image)


class TestJson:
    def test_round_trip(self):
        e = relem(EQ, {0: 4, 1: 7}, "x")
        assert ext_elem_from_json(ext_elem_to_json(e), EQ) == e

    def test_schema_shape(self):
        e = relem(EQ, {0: 4}, "x")
        assert ext_elem_to_json(e) == {"pi": {"0": 4}, "base": "x"}


class TestCheckExtElem:
    def test_domain_must_match_support(self):
        X = sset({"x": [0, 1]})
        with pytest.raises(ValueError):
            check_ext_elem(X, relem(EQ, {0: 4}, "x"))
        check_ext_elem(X, relem(EQ, {0: 4, 1: 5}, "x"))
