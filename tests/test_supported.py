import itertools
from random import Random

import pytest

from suppsets.atoms import Support, SymmetryId, pool_atoms
from suppsets.supported import (
    SuppMap,
    SuppSet,
    ViolationReport,
    bool_set,
    check_supported_map,
    classify_regular_subobject,
    coequalizer,
    coproduct,
    compose_maps,
    equalizer,
    exponential,
    identity_map,
    image_factorization,
    is_iso,
    pf_support,
    product,
    suppmap_from_json,
    suppmap_to_json,
    suppset_from_json,
    suppset_to_json,
    ufs_support,
    unit_set,
)
from suppsets.checks import random_suppset

EQ = SymmetryId.EQUALITY


def sset(supports):
    return SuppSet.of({k: Support.of(v) for k, v in supports.items()})


def all_suppmaps(X, Y):
    """Every supported map X -> Y, by exhaustion."""
    for choice in itertools.product(Y.elements, repeat=len(X)):
        m = check_supported_map(dict(zip(X.elements, choice)), X, Y)
        if isinstance(m, SuppMap):
            yield m


class TestSuppSet:
    def test_ids_are_compared_as_values(self):
        assert len(SuppSet(((1, Support()), ("1", Support())))) == 2
        with pytest.raises(ValueError):
            SuppSet((("x", Support()), ("x", Support.of([0]))))
        with pytest.raises(ValueError):
            SuppSet(((1, Support()), (True, Support())))

    def test_unhashable_value_is_not_a_member(self):
        assert [1] not in sset({"x": []})

    def test_map_rejects_a_repeated_source_element(self):
        X, Y = sset({"x": []}), sset({"y": [], "z": []})
        with pytest.raises(ValueError):
            SuppMap(X, Y, (("x", "y"), ("x", "z")))


class TestCheckSupportedMap:
    def test_identity_is_valid(self):
        X = sset({"x": [0, 1]})
        assert isinstance(check_supported_map({"x": "x"}, X, X), SuppMap)

    def test_dropping_atoms_is_valid(self):
        X, Y = sset({"x": [0]}), sset({"y": []})
        assert isinstance(check_supported_map({"x": "y"}, X, Y), SuppMap)

    def test_growing_support_is_reported(self):
        X, Y = sset({"x": []}), sset({"y": [0]})
        rep = check_supported_map({"x": "y"}, X, Y)
        assert isinstance(rep, ViolationReport)
        assert [v.element for v in rep.violations] == ["x"]


class TestProduct:
    def test_union_formula(self):
        X, Y = sset({"x": [0]}), sset({"y": [1]})
        P, _, _ = product(X, Y)
        assert P.support(("x", "y")) == Support.of([0, 1])

    def test_unit_is_iso(self):
        X = sset({"x": [0], "y": [1, 2]})
        P, pr1, _ = product(X, unit_set())
        assert is_iso(pr1)

    def test_projections_are_supported(self):
        X, Y = sset({"x": [0], "z": [2]}), sset({"y": [1]})
        P, pr1, pr2 = product(X, Y)
        assert isinstance(check_supported_map(pr1.as_dict(), P, X), SuppMap)
        assert isinstance(check_supported_map(pr2.as_dict(), P, Y), SuppMap)


class TestCoproduct:
    def test_injections_keep_supports(self):
        X, Y = sset({"x": [0]}), sset({"y": [1]})
        C, inl, inr = coproduct(X, Y)
        assert C.support(inl("x")) == Support.of([0])
        assert C.support(inr("y")) == Support.of([1])

    def test_empty_unit(self):
        X = sset({"x": [0]})
        C, _, inr = coproduct(SuppSet(), X)
        assert is_iso(inr)

    def test_injections_are_support_reflecting_monos(self):
        X, Y = sset({"x": [0], "y": [1, 2]}), sset({"z": []})
        _, inl, inr = coproduct(X, Y)
        for m in (inl, inr):
            assert m.is_injective() and m.is_support_reflecting()


class TestCoequalizer:
    def test_equal_maps_change_nothing(self):
        X = sset({"x": [0], "y": [1]})
        R = sset({"r": [0]})
        f = SuppMap.of(R, X, {"r": "x"})
        Q, epi = coequalizer(f, f)
        assert len(Q) == len(X) and is_iso(epi)

    def test_intersection_formula(self):
        X = sset({"x": [0, 1], "y": [1, 2]})
        R = sset({"r": [0, 1, 2]})
        f = SuppMap.of(R, X, {"r": "x"})
        g = SuppMap.of(R, X, {"r": "y"})
        Q, epi = coequalizer(f, g)
        assert len(Q) == 1
        assert Q.support(epi("x")) == Support.of([1])

    def test_chained_intersection(self):
        X = sset({"x": [0, 1], "y": [1, 2], "z": [1, 3]})
        R = sset({"r1": [0, 1, 2], "r2": [1, 2, 3]})
        f = SuppMap.of(R, X, {"r1": "x", "r2": "y"})
        g = SuppMap.of(R, X, {"r1": "y", "r2": "z"})
        Q, epi = coequalizer(f, g)
        assert len(Q) == 1
        assert Q.support(epi("z")) == Support.of([1])


class TestEqualizer:
    def test_equal_maps_keep_everything(self):
        X = sset({"x": [0], "y": [1]})
        two = bool_set()
        f = SuppMap.of(X, two, {"x": 0, "y": 1})
        E, mono = equalizer(f, f)
        assert len(E) == len(X) and is_iso(mono)

    def test_disagreement_removes_element(self):
        X = sset({"x": [0], "y": [1]})
        two = bool_set()
        f = SuppMap.of(X, two, {"x": 0, "y": 1})
        g = SuppMap.of(X, two, {"x": 1, "y": 1})
        E, mono = equalizer(f, g)
        assert E.elements == ("y",)
        assert mono.is_support_reflecting()


class TestExponential:
    def test_support_formula(self):
        E = sset({"e": [0]})
        X = sset({"x1": [0], "x2": [1]})
        XE = exponential(E, X)
        assert XE.support((("e", "x1"),)) == Support()
        assert XE.support((("e", "x2"),)) == Support.of([1])

    def test_empty_exponent(self):
        X = sset({"x": [0]})
        XE = exponential(SuppSet(), X)
        assert len(XE) == 1 and XE.support(()) == Support()

    @pytest.mark.parametrize("seed", range(5))
    def test_carrier_size(self, seed):
        rng = Random(seed)
        pool = pool_atoms(EQ, 4)
        E = random_suppset(rng, EQ, pool, max_elems=2, prefix="a")
        X = random_suppset(rng, EQ, pool, max_elems=3)
        assert len(exponential(E, X)) == len(X) ** len(E)

    @pytest.mark.parametrize("seed", range(5))
    def test_support_recomputation(self, seed):
        rng = Random(seed)
        pool = pool_atoms(EQ, 4)
        E = random_suppset(rng, EQ, pool, max_elems=2, prefix="a")
        X = random_suppset(rng, EQ, pool, max_elems=3)
        for fid, _ in exponential(E, X).items:
            expect = Support()
            for e, x in fid:
                expect = expect.union(X.support(x).minus(E.support(e)))
            assert exponential(E, X).support(fid) == expect


class TestIso:
    def test_identity(self):
        X = sset({"x": [0]})
        assert is_iso(identity_map(X))

    def test_support_dropping_bijection_is_not_iso(self):
        X, Y = sset({"x": [0]}), sset({"y": []})
        assert not is_iso(SuppMap.of(X, Y, {"x": "y"}))

    def test_support_reflecting_bijection_is_iso(self):
        X, Y = sset({"x": [0]}), sset({"y": [0]})
        assert is_iso(SuppMap.of(X, Y, {"x": "y"}))

    def test_one_and_true_are_one_target(self):
        X, Y = sset({"a": [], "b": []}), sset({1: []})
        f = suppmap_from_json({"map": {"a": 1, "b": True}}, X, Y)
        assert not f.is_injective()
        assert not is_iso(f)

    @pytest.mark.parametrize("seed", range(10))
    def test_iso_iff_two_sided_inverse(self, seed):
        rng = Random(seed)
        pool = pool_atoms(EQ, 3)
        X = random_suppset(rng, EQ, pool, max_elems=3)
        Y = random_suppset(rng, EQ, pool, max_elems=3, prefix="f")
        for f in all_suppmaps(X, Y):
            has_inverse = any(
                all(g(f(x)) == x for x in X.elements)
                and all(f(g(y)) == y for y in Y.elements)
                for g in all_suppmaps(Y, X)
            )
            assert is_iso(f) == has_inverse


class TestMonoEpiByCones:
    @pytest.mark.parametrize("seed", range(6))
    def test_mono_iff_injective(self, seed):
        rng = Random(seed)
        pool = pool_atoms(EQ, 3)
        X = random_suppset(rng, EQ, pool, max_elems=3)
        Y = random_suppset(rng, EQ, pool, max_elems=3, prefix="f")
        for m in all_suppmaps(X, Y):
            if m.is_injective():
                # cancellable against every test cone with carrier <= 3
                for nz in (1, 2, 3):
                    Z = SuppSet.of([(f"z{i}", X.atoms()) for i in range(nz)])
                    for u in all_suppmaps(Z, X):
                        for v in all_suppmaps(Z, X):
                            if compose_maps(m, u).mapping == compose_maps(m, v).mapping:
                                assert u.mapping == v.mapping
            else:
                # a singleton cone supported by both merged elements
                # separates two maps that m equalizes
                (x1, x2) = next(
                    (a, b)
                    for a in X.elements
                    for b in X.elements
                    if a != b and m(a) == m(b)
                )
                Z = SuppSet.of([("z", X.support(x1).union(X.support(x2)))])
                u = SuppMap.of(Z, X, {"z": x1})
                v = SuppMap.of(Z, X, {"z": x2})
                assert compose_maps(m, u).mapping == compose_maps(m, v).mapping
                assert u.mapping != v.mapping

    @pytest.mark.parametrize("seed", range(6))
    def test_epi_iff_surjective(self, seed):
        rng = Random(seed)
        pool = pool_atoms(EQ, 3)
        X = random_suppset(rng, EQ, pool, max_elems=3)
        Y = random_suppset(rng, EQ, pool, max_elems=3, prefix="f")
        for e in all_suppmaps(X, Y):
            image = {e(x) for x in X.elements}
            if e.is_surjective():
                # post-composition with any cocone into a carrier <= 3 cancels
                W = bool_set()
                for u in all_suppmaps(Y, W):
                    for v in all_suppmaps(Y, W):
                        if compose_maps(u, e).mapping == compose_maps(v, e).mapping:
                            assert u.mapping == v.mapping
            else:
                # split a missed element between two fresh empty-support points
                missed = next(y for y in Y.elements if y not in image)
                C, incl, pts = coproduct(Y, bool_set())
                u_raw = {y: (pts(0) if y == missed else incl(y)) for y in Y.elements}
                v_raw = {y: (pts(1) if y == missed else incl(y)) for y in Y.elements}
                u = SuppMap.of(Y, C, u_raw)
                v = SuppMap.of(Y, C, v_raw)
                assert compose_maps(u, e).mapping == compose_maps(v, e).mapping
                assert u.mapping != v.mapping


class TestClassifier:
    def test_identity_subobject(self):
        X = sset({"x": [0], "y": [1]})
        chi = classify_regular_subobject(identity_map(X))
        assert all(chi(x) == 1 for x in X.elements)

    def test_empty_subobject(self):
        X = sset({"x": [0]})
        m = SuppMap(SuppSet(), X, ())
        chi = classify_regular_subobject(m)
        assert chi("x") == 0

    def test_non_reflecting_mono_rejected(self):
        S, X = sset({"s": []}), sset({"x": [0]})
        with pytest.raises(ValueError):
            classify_regular_subobject(SuppMap.of(S, X, {"s": "x"}))

    @pytest.mark.parametrize("seed", range(8))
    def test_pullback_property(self, seed):
        rng = Random(seed)
        pool = pool_atoms(EQ, 4)
        X = random_suppset(rng, EQ, pool, max_elems=4)
        chosen = [x for x in X.elements if rng.random() < 0.5]
        S = SuppSet.of([(x, X.support(x)) for x in chosen])
        m = SuppMap.of(S, X, {x: x for x in chosen})
        chi = classify_regular_subobject(m)
        # the pullback of t along chi is the chi-preimage of 1 with
        # supports inherited from X; it must match S support-reflectingly
        pb = SuppSet.of([(x, X.support(x)) for x in X.elements if chi(x) == 1])
        assert is_iso(SuppMap.of(S, pb, {x: x for x in chosen}))
        # every singleton cone with chi(d) = 1 factors uniquely through m
        for x in X.elements:
            if chi(x) != 1:
                continue
            C = unit_set(X.support(x))
            d = SuppMap.of(C, X, {0: x})
            u = check_supported_map({0: x}, C, S)
            assert isinstance(u, SuppMap)
            assert compose_maps(m, u).mapping == d.mapping


class TestImageFactorization:
    def test_both_supports_offered(self):
        X = sset({"x": [0, 1], "y": [1, 2]})
        Y = sset({"z": [1]})
        f = SuppMap.of(X, Y, {"x": "z", "y": "z"})
        epi, im_epi, _ = image_factorization(f, "source")
        assert im_epi.support("z") == Support.of([1])
        _, im_mono, mono = image_factorization(f, "target")
        assert im_mono.support("z") == Support.of([1])
        assert mono.is_support_reflecting()


def _coequalizer_by_member_lists(f, g):
    """The earlier coequalizer: each class gathered into a list of its members."""
    from suppsets.supported import UnionFind, _id_key

    X = f.target
    uf = UnionFind(X.elements)
    for r in f.source.elements:
        uf.union(f(r), g(r))
    classes = {}
    for x in X.elements:
        classes.setdefault(uf.find(x), []).append(x)
    items, rep_of = [], {}
    for members in classes.values():
        rep = min(members, key=_id_key)
        supp = X.support(members[0])
        for m in members[1:]:
            supp = supp.intersect(X.support(m))
        for m in members:
            rep_of[m] = rep
        items.append((rep, supp))
    items.sort(key=lambda it: _id_key(it[0]))
    Q = SuppSet(tuple(items))
    return Q, SuppMap(X, Q, tuple((x, rep_of[x]) for x in X.elements))


def _image_by_fibre_lists(f, support_from):
    """The earlier image factorization: each fibre gathered into a list."""
    X, Y = f.source, f.target
    fibres = {}
    for x in X.elements:
        fibres.setdefault(f(x), []).append(x)
    items = []
    for y in Y.elements:
        members = fibres.get(y)
        if not members:
            continue
        if support_from == "target":
            supp = Y.support(y)
        else:
            supp = X.support(members[0])
            for m in members[1:]:
                supp = supp.intersect(X.support(m))
        items.append((y, supp))
    Im = SuppSet(tuple(items))
    epi = SuppMap(X, Im, tuple((x, f(x)) for x in X.elements))
    return epi, Im, SuppMap(Im, Y, tuple((y, y) for y, _ in items))


def _mixed_ids(rng, n):
    """n distinct ids of three kinds, shuffled, so the least id of a class is
    often not its first member."""
    ids = [f"e{i}" for i in range(n)] + list(range(n)) + [(i, "t") for i in range(n)]
    return rng.sample(ids, n)


class TestMeetsMatchTheMemberLists:
    """coequalizer and image_factorization keep one running meet per class
    instead of a list of members; their results equal the list versions."""

    @pytest.mark.parametrize("seed", range(40))
    def test_coequalizer(self, seed):
        rng = Random(seed)
        n = rng.randint(1, 14)
        ids = _mixed_ids(rng, n)
        X = SuppSet.of([(x, rng.sample(range(6), rng.randint(0, 4))) for x in ids])
        R = SuppSet.of([(("r", j), []) for j in range(rng.randint(0, n))])
        f = SuppMap(R, X, tuple((r, rng.choice(ids)) for r in R.elements))
        g = SuppMap(R, X, tuple((r, rng.choice(ids)) for r in R.elements))
        assert coequalizer(f, g) == _coequalizer_by_member_lists(f, g)

    @pytest.mark.parametrize("support_from", ["source", "target"])
    @pytest.mark.parametrize("seed", range(40))
    def test_image_factorization(self, seed, support_from):
        rng = Random(seed)
        n = rng.randint(0, 14)
        X = SuppSet.of([(x, rng.sample(range(6), rng.randint(0, 4))) for x in _mixed_ids(rng, n)])
        ys = _mixed_ids(rng, rng.randint(1, 8))
        Y = SuppSet.of([(y, rng.sample(range(6), rng.randint(0, 2))) for y in ys])
        f = SuppMap(X, Y, tuple((x, rng.choice(ys)) for x in X.elements))
        assert image_factorization(f, support_from) == _image_by_fibre_lists(f, support_from)


class TestSubsetSupports:
    def test_union(self):
        X = sset({"x": [0], "y": [1, 2]})
        assert pf_support(X, ["x", "y"]) == Support.of([0, 1, 2])

    def test_empty(self):
        assert pf_support(sset({"x": [0]}), []) == Support()

    def test_singleton(self):
        X = sset({"x": [0, 3]})
        assert pf_support(X, ["x"]) == X.support("x")

    def test_ufs_bound(self):
        assert ufs_support([Support.of([0]), Support.of([1])]) == Support.of([0, 1])


class TestJson:
    def test_round_trip(self):
        X = sset({"x": [0, 1], "y": []})
        assert suppset_from_json(suppset_to_json(X), EQ) == X

    def test_map_round_trip(self):
        X, Y = sset({"x": [0, 1]}), sset({"y": [0]})
        f = SuppMap.of(X, Y, {"x": "y"})
        assert suppmap_from_json(suppmap_to_json(f), X, Y) == f
