from random import Random

import pytest
from hypothesis import given, strategies as st

from suppsets.atoms import Support, SymmetryId, apply, finite_perm, transposition
from suppsets.binding import (
    AbsClass,
    App,
    DbApp,
    DbLam,
    Idx,
    Lam,
    TermSyntaxError,
    Var,
    act_abs,
    act_term,
    alpha_eq,
    alpha_eq_terms,
    db_free_indices,
    debruijn_from_json,
    debruijn_to_json,
    free_atoms,
    from_debruijn,
    maxidx,
    named_from_json,
    named_to_json,
    parse_debruijn,
    parse_named,
    phi,
    phi_inv,
    show_debruijn,
    show_named,
    sigma,
    supp_abs,
    to_debruijn,
)
from suppsets.checks import alpha_bruteforce, alpha_fresh_swap, random_term
from suppsets.freenom import EXT_CARRIER, unit
from suppsets.supported import SuppSet, b_support

EQ = SymmetryId.EQUALITY

supports = st.sets(st.integers(min_value=0, max_value=9)).map(Support.of)


class TestBSupport:
    def test_shift(self):
        assert b_support(Support.of([1, 3])) == Support.of([0, 2])

    def test_bound_atom_dropped(self):
        assert b_support(Support.of([0])) == Support()

    def test_empty(self):
        assert b_support(Support()) == Support()

    @given(supports)
    def test_double_shift(self, s):
        assert b_support(b_support(s)) == Support.of(a - 2 for a in s if a >= 2)


class TestMaxidx:
    def test_examples(self):
        assert maxidx(Support.of([0, 1])) == 2
        assert maxidx(Support.of([5])) == 6
        assert maxidx(Support()) == 0


class TestSigma:
    def test_rotation(self):
        s2 = sigma(2)
        assert apply(s2, 1) == 2
        assert apply(s2, 2) == 0
        assert apply(s2, 5) == 5

    def test_sigma_zero_is_identity(self):
        assert sigma(0).is_identity()


class TestAlphaEq:
    def test_identity_abstraction(self):
        assert alpha_eq(AbsClass(0, Var(0)), AbsClass(1, Var(1)))

    def test_shared_free_atom(self):
        l = AbsClass(0, App(Var(0), Var(2)))
        r = AbsClass(1, App(Var(1), Var(2)))
        assert alpha_eq(l, r)

    def test_different_supports(self):
        assert not alpha_eq(AbsClass(0, Var(1)), AbsClass(1, Var(0)))

    def test_dataclass_equality_is_alpha(self):
        assert AbsClass(0, Var(0)) == AbsClass(1, Var(1))

    def test_binder_reuse_under_lambda(self):
        # both bind an unused atom over alpha-equal bodies
        assert alpha_eq(AbsClass(0, Lam(0, Var(0))), AbsClass(1, Lam(2, Var(2))))

    @pytest.mark.parametrize("seed", range(30))
    def test_equivalence_relation_on_samples(self, seed):
        rng = Random(seed)
        ts = [random_term(rng, 3, 4) for _ in range(3)]
        abss = [AbsClass(rng.randrange(4), t) for t in ts]
        for a in abss:
            assert alpha_eq(a, a)
        for a in abss:
            for b in abss:
                assert alpha_eq(a, b) == alpha_eq(b, a)
                for c in abss:
                    if alpha_eq(a, b) and alpha_eq(b, c):
                        assert alpha_eq(a, c)


class TestSuppAbs:
    def test_formula(self):
        assert supp_abs(AbsClass(0, App(Var(0), Var(2)))) == Support.of([2])

    def test_closed(self):
        assert supp_abs(AbsClass(0, Var(0))) == Support()

    def test_binder_not_free(self):
        assert supp_abs(AbsClass(3, Var(1))) == Support.of([1])


class TestPhi:
    def test_worked_example(self):
        x = App(Var(0), Var(1))
        a = phi(x)
        assert alpha_eq(a, AbsClass(2, App(Var(2), Var(0))))
        assert supp_abs(a) == Support.of([0])

    def test_closed_body(self):
        x = Lam(0, Var(0))
        a = phi(x)
        assert supp_abs(a) == Support()
        assert alpha_eq(a, AbsClass(1, Lam(0, Var(0))))

    @pytest.mark.parametrize("seed", range(40))
    def test_support_reflection(self, seed):
        x = random_term(Random(seed), 6, 5)
        assert supp_abs(phi(x)) == b_support(free_atoms(x))

    @pytest.mark.parametrize("seed", range(25))
    def test_injective_on_distinct_bodies(self, seed):
        rng = Random(seed)
        x, y = random_term(rng, 4, 4), random_term(rng, 4, 4)
        if alpha_eq_terms(x, y):
            assert alpha_eq(phi(x), phi(y))
        else:
            assert not alpha_eq(phi(x), phi(y))


class TestPhiInv:
    def test_identity_abstraction(self):
        assert phi_inv(AbsClass(0, Var(0))) == Var(0)

    def test_worked_example(self):
        y = phi_inv(AbsClass(2, App(Var(2), Var(0))))
        assert alpha_eq_terms(y, App(Var(0), Var(1)))

    @pytest.mark.parametrize("seed", range(40))
    def test_round_trips(self, seed):
        rng = Random(seed)
        x = random_term(rng, 5, 5)
        assert alpha_eq_terms(phi_inv(phi(x)), x)
        a = AbsClass(rng.randrange(5), random_term(rng, 5, 5))
        assert alpha_eq(phi(phi_inv(a)), a)


class TestPhiNaturality:
    @pytest.mark.parametrize("seed", range(15))
    def test_naturality_for_equivariant_maps(self, seed):
        rng = Random(seed)
        closed = Lam(0, Var(0))
        maps = [
            lambda t: t,
            lambda t: App(t, t),
            lambda t: App(t, closed),
        ]
        f = maps[seed % len(maps)]
        x = random_term(rng, 4, 4)
        lhs = phi(f(x))
        image = phi(x)
        rhs = AbsClass(image.binder, f(image.body))
        assert alpha_eq(lhs, rhs)


class TestPhiOnExtCarrier:
    def test_free_extension_body(self):
        X = SuppSet.of({"x": Support.of([0, 2])})
        e = unit(EQ, X, "x")
        a = phi(e, EXT_CARRIER)
        assert supp_abs(a) == b_support(Support.of([0, 2]))
        back = phi_inv(a)
        assert back == e


class TestDeBruijn:
    def test_binder_and_free_shift(self):
        t = Lam(0, App(Var(0), Var(5)))
        assert to_debruijn(t) == DbLam(DbApp(Idx(0), Idx(6)))

    def test_depth_zero_variable(self):
        assert to_debruijn(Var(3)) == Idx(3)

    def test_shadowing(self):
        t = Lam(0, Lam(0, Var(0)))
        assert to_debruijn(t) == DbLam(DbLam(Idx(0)))

    @pytest.mark.parametrize("seed", range(40))
    def test_round_trip_alpha_identity(self, seed):
        t = random_term(Random(seed), 6, 5)
        assert alpha_eq_terms(from_debruijn(to_debruijn(t)), t)

    @pytest.mark.parametrize("seed", range(40))
    def test_free_indices_match_alpha_support(self, seed):
        t = random_term(Random(seed), 6, 5)
        assert db_free_indices(to_debruijn(t)) == free_atoms(t)

    def test_from_debruijn_avoids_capture(self):
        # the inner binder must not grab the ambient atom 0
        db = DbLam(DbApp(Idx(0), Idx(1)))
        t = from_debruijn(db)
        assert isinstance(t, Lam)
        assert free_atoms(t) == Support.of([0])
        assert alpha_eq_terms(t, Lam(1, App(Var(1), Var(0))))


def textbook_fv(t) -> set:
    """FV(v a) = {a}, FV(t u) = FV t ∪ FV u, FV(λa. t) = FV t ∖ {a}; recursive."""
    if isinstance(t, Var):
        return {t.atom}
    if isinstance(t, App):
        return textbook_fv(t.fn) | textbook_fv(t.arg)
    return textbook_fv(t.body) - {t.binder}


def textbook_db_fv(t, depth: int = 0) -> set:
    """`#n` at binder depth d refers to the atom n - d when n >= d; recursive."""
    if isinstance(t, Idx):
        return {t.index - depth} if t.index >= depth else set()
    if isinstance(t, DbApp):
        return textbook_db_fv(t.fn, depth) | textbook_db_fv(t.arg, depth)
    return textbook_db_fv(t.body, depth + 1)


# few atoms, so binders shadow one another and bind atoms free elsewhere
few_atoms = st.integers(min_value=0, max_value=3)
named_terms = st.recursive(
    few_atoms.map(Var),
    lambda sub: st.one_of(st.builds(App, sub, sub), st.builds(Lam, few_atoms, sub)),
    max_leaves=12,
)
db_terms = st.recursive(
    st.integers(min_value=0, max_value=6).map(Idx),
    lambda sub: st.one_of(st.builds(DbApp, sub, sub), st.builds(DbLam, sub)),
    max_leaves=12,
)


class TestFreeVariableOracle:
    """`free_atoms` and `db_free_indices` against the textbook definitions."""

    @pytest.mark.parametrize("t, want", [
        (Lam(0, Lam(0, Var(0))), set()),
        (App(Var(0), Lam(0, Var(0))), {0}),
        (Lam(1, App(Lam(1, Var(2)), Var(1))), {2}),
        (Lam(0, App(Var(1), Lam(1, App(Var(0), Var(1))))), {1}),
    ])
    def test_shadowing_examples(self, t, want):
        assert textbook_fv(t) == want
        assert free_atoms(t) == db_free_indices(to_debruijn(t)) == Support.of(want)

    def test_debruijn_examples(self):
        t = DbLam(DbApp(Idx(0), DbLam(DbApp(Idx(1), Idx(4)))))
        assert textbook_db_fv(t) == {2}
        assert db_free_indices(t) == Support.of([2])

    @pytest.mark.parametrize("seed", range(40))
    def test_random_term_deck(self, seed):
        t = random_term(Random(seed), 6, 5)
        want = Support.of(textbook_fv(t))
        assert free_atoms(t) == want
        db = to_debruijn(t)
        assert Support.of(textbook_db_fv(db)) == db_free_indices(db) == want

    @given(named_terms)
    def test_named(self, t):
        assert free_atoms(t) == Support.of(textbook_fv(t)) == Support.of(textbook_db_fv(to_debruijn(t)))

    @given(db_terms)
    def test_debruijn(self, t):
        assert db_free_indices(t) == Support.of(textbook_db_fv(t))


class TestTripleAgreement:
    @pytest.mark.parametrize("seed", range(60))
    def test_three_deciders_agree(self, seed):
        rng = Random(seed)
        t1 = random_term(rng, 5, 4)
        if seed % 2:
            t2 = from_debruijn(to_debruijn(t1))  # alpha-variant
        else:
            t2 = random_term(rng, 5, 4)
        via_db = to_debruijn(t1) == to_debruijn(t2)
        via_fresh = alpha_fresh_swap(t1, t2)
        via_bf = alpha_bruteforce(t1, t2)
        assert via_db == via_fresh == via_bf == alpha_eq_terms(t1, t2)


class TestAlphaWalk:
    """`alpha_eq_terms` walks both named terms at once; each hand case is
    checked against de Bruijn equality too."""

    @pytest.mark.parametrize("src1, src2, want", [
        (r"\v0. v0", r"\v1. v0", False),  # bound against free, same name
        (r"\v0. \v0. v0", r"\v1. \v2. v2", True),  # the inner binder shadows
        (r"\v0. \v0. v0", r"\v1. \v2. v1", False),
        (r"(\v0. v0) v0", r"(\v1. v1) v0", True),  # v0 is free again after the body
        (r"(\v0. v0) v0", r"(\v1. v1) v1", False),
        (r"\v0. v0 v1", r"\v1. v1 v0", False),
        ("v0", "v0 v0", False),  # different node kinds at the root
        (r"\v0. v0", "v0", False),
        (r"\v0. v0", "v0 v0", False),
        (r"\v0. v0 (\v1. v1)", r"\v0. v0 (v1 v1)", False),  # and deep inside
        (r"\v0. v0 (v1 v2)", r"\v3. v3 v1", False),
        (r"\v0. (\v1. v0 v1) v2", r"\v3. (\v0. v3 v0) v2", True),
    ])
    def test_hand_cases(self, src1, src2, want):
        t1, t2 = parse_named(src1), parse_named(src2)
        assert (to_debruijn(t1) == to_debruijn(t2)) == want
        assert alpha_eq_terms(t1, t2) == alpha_eq_terms(t2, t1) == want

    @pytest.mark.parametrize("t1, t2", [
        (Var(0), "v0"),
        ("v0", Var(0)),
        (App(Var(0), None), App(Var(0), None)),
        (Lam(0, App(Var(0), 3)), Lam(1, App(Var(1), Var(2)))),
    ])
    def test_type_error_on_a_reached_node(self, t1, t2):
        with pytest.raises(TypeError, match="not a named term"):
            alpha_eq_terms(t1, t2)

    def test_stops_at_the_first_difference(self):
        # the malformed arguments come after the differing leaves, so are not reached
        assert not alpha_eq_terms(App(Var(0), None), App(Var(1), None))

    @given(named_terms, named_terms)
    def test_agrees_with_the_oracles(self, t1, t2):
        assert alpha_eq_terms(t1, t2) == alpha_fresh_swap(t1, t2) == (to_debruijn(t1) == to_debruijn(t2))

    @given(named_terms, st.permutations(range(6)))
    def test_renaming_outside_the_free_atoms(self, t, image):
        # a permutation that fixes the free atoms moves only binders
        fixed = set(free_atoms(t))
        moved = [a for a in range(6) if a not in fixed]
        targets = [a for a in image if a not in fixed]
        g = finite_perm(EQ, dict(zip(moved, targets)))
        assert alpha_eq_terms(t, act_term(g, t))

    @given(named_terms)
    def test_debruijn_round_trip(self, t):
        assert alpha_eq_terms(t, from_debruijn(to_debruijn(t)))


class TestActTerm:
    def test_identity(self):
        t = Lam(0, Var(1))
        assert act_term(transposition(EQ, 5, 6), t) == t

    def test_renames_binders_too(self):
        assert act_term(transposition(EQ, 0, 1), Lam(0, Var(1))) == Lam(1, Var(0))

    def test_rejects_other_symmetries(self):
        with pytest.raises(ValueError):
            act_term(transposition(SymmetryId.RENAMING, 0, 1), Var(0))

    @pytest.mark.parametrize("seed", range(20))
    def test_preserves_alpha_classes(self, seed):
        rng = Random(seed)
        t = random_term(rng, 5, 4)
        variant = from_debruijn(to_debruijn(t))
        g = transposition(EQ, rng.randrange(5), rng.randrange(5))
        assert alpha_eq_terms(act_term(g, t), act_term(g, variant))

    def test_action_on_abstractions(self):
        a = AbsClass(0, App(Var(0), Var(2)))
        g = transposition(EQ, 2, 3)
        assert alpha_eq(act_abs(g, a), AbsClass(0, App(Var(0), Var(3))))


class TestSyntax:
    def test_parse_named(self):
        assert parse_named(r"\v0. v0 v2") == Lam(0, App(Var(0), Var(2)))

    def test_parse_debruijn(self):
        assert parse_debruijn(r"\ #0 #6") == DbLam(DbApp(Idx(0), Idx(6)))

    def test_application_associates_left(self):
        assert parse_named("v0 v1 v2") == App(App(Var(0), Var(1)), Var(2))

    def test_lambda_extends_right(self):
        t = parse_named(r"\v0. v0 \v1. v1")
        assert t == Lam(0, App(Var(0), Lam(1, Var(1))))

    def test_bad_input(self):
        with pytest.raises(TermSyntaxError):
            parse_named("(v0")
        with pytest.raises(TermSyntaxError):
            parse_named("x0")

    @pytest.mark.parametrize("seed", range(20))
    def test_print_parse_round_trip(self, seed):
        t = random_term(Random(seed), 5, 5)
        assert parse_named(show_named(t)) == t
        db = to_debruijn(t)
        assert parse_debruijn(show_debruijn(db)) == db


class TestJson:
    @pytest.mark.parametrize("seed", range(10))
    def test_round_trips(self, seed):
        t = random_term(Random(seed), 5, 5)
        assert named_from_json(named_to_json(t)) == t
        db = to_debruijn(t)
        assert debruijn_from_json(debruijn_to_json(db)) == db


class TestPinnedSyntaxErrors:
    """The exact messages for malformed input."""

    @pytest.mark.parametrize("src, message", [
        ("(v0", "unbalanced parenthesis"),
        ("v0)", "trailing input"),
        ("\\v0", "expected '.' after the binder"),
        ("\\v0.", "unexpected token None"),
        ("()", "unexpected token ')'"),
        ("v0 . v1", "unexpected token '.'"),
        ("", "unexpected token None"),
        ("\\", "expected a variable after \\"),
        ("\\ .", "expected a variable after \\"),
        ("v", "expected digits after 'v' at 0"),
        ("x0", "unexpected character 'x' at 0"),
        ("v0 #1", "unexpected character '#' at 3"),
        ("(\\v0.)", "unexpected token ')'"),
        ("v0 ((v1)", "unbalanced parenthesis"),
        ("\\v0 v1", "expected '.' after the binder"),
        (")", "unexpected token ')'"),
        ("v0 (v1))", "trailing input"),
        ("v²", "expected digits after 'v' at 0"),  # a digit that int() rejects
    ])
    def test_named(self, src, message):
        with pytest.raises(TermSyntaxError) as exc:
            parse_named(src)
        assert str(exc.value) == message

    @pytest.mark.parametrize("src, message", [
        ("#0)", "trailing input"),
        ("\\", "unexpected token None"),
        ("(#0", "unbalanced parenthesis"),
        ("#", "expected digits after '#' at 0"),
        ("\\ v0", "unexpected character 'v' at 2"),
        ("#0 . #1", "unexpected token '.'"),
        ("()", "unexpected token ')'"),
        ("\\ \\", "unexpected token None"),
        ("#²", "expected digits after '#' at 0"),
    ])
    def test_debruijn(self, src, message):
        with pytest.raises(TermSyntaxError) as exc:
            parse_debruijn(src)
        assert str(exc.value) == message

    def test_decimal_digits_of_any_script(self):
        # "١" is ARABIC-INDIC DIGIT ONE: decimal, and int() reads it as 1
        assert parse_named("v١") == Var(1)
        assert parse_debruijn("#١") == Idx(1)


class TestPinnedNames:
    """`from_debruijn` names each binder with the smallest atom its body
    does not refer to, under shadowing and free indices alike."""

    @pytest.mark.parametrize("src, named", [
        (r"\ \ #1 #2 (\ #0 #3)", r"\v1. \v2. v1 v0 (\v1. v1 v0)"),
        (r"\ #0 #1", r"\v1. v1 v0"),
        (r"\ \ #0", r"\v0. \v0. v0"),
        (r"\ (\ #1) #0 #2", r"\v0. (\v1. v0) v0 v1"),
        ("#3", "v3"),
        (r"\ \ \ #2 #3 #4", r"\v2. \v3. \v3. v2 v0 v1"),
        (r"\ #1 (\ \ #0 #2 #3)", r"\v1. v0 (\v2. \v2. v2 v1 v0)"),
        (r"\ \ #0 (\ #2 #0)", r"\v0. \v1. v1 (\v1. v0 v1)"),
    ])
    def test_names(self, src, named):
        assert show_named(from_debruijn(parse_debruijn(src))) == named


DEEP = 10_000


def nested_apps(n: int):
    """(v0 (v1 (... (v(n-1) vn)))), built bottom-up."""
    t = Var(n)
    for i in reversed(range(n)):
        t = App(Var(i), t)
    return t


def binder_chain(n: int, first: int = 0):
    """\\v(first). ... \\v(first+n-1). v(first) v(first+n-1) v(3n)."""
    t = App(App(Var(first), Var(first + n - 1)), Var(3 * n))
    for i in reversed(range(n)):
        t = Lam(first + i, t)
    return t


def nested_text(sigil: str, n: int) -> str:
    return "".join(f"{sigil}{i} (" for i in range(n - 1)) + f"{sigil}{n - 1} {sigil}{n}" + ")" * (n - 1)


NESTED_TEXT = nested_text("v", DEEP)
CHAIN_TEXT = "".join(f"\\v{i}. " for i in range(DEEP)) + f"v0 v{DEEP - 1} v{3 * DEEP}"


class TestDeepTerms:
    """Terms 10,000 levels deep go through every walk; results are compared
    as printed strings because dataclass ==, hash and repr recurse."""

    @pytest.mark.parametrize("build, text", [(nested_apps, NESTED_TEXT), (binder_chain, CHAIN_TEXT)],
                             ids=["nested", "chain"])
    def test_print_parse(self, build, text):
        assert show_named(build(DEEP)) == text
        assert show_named(parse_named(text)) == text

    def test_debruijn_round_trips(self):
        db = to_debruijn(nested_apps(DEEP))
        text = nested_text("#", DEEP)
        assert show_debruijn(db) == text
        assert show_debruijn(parse_debruijn(text)) == text
        assert show_named(from_debruijn(db)) == NESTED_TEXT
        chain = to_debruijn(binder_chain(DEEP))
        text = "\\ " * DEEP + f"#{DEEP - 1} #0 #{4 * DEEP}"
        assert show_debruijn(chain) == text
        assert show_debruijn(parse_debruijn(text)) == text
        names = "\\v0. " + "\\v1. " * (DEEP - 1) + f"v0 v1 v{3 * DEEP}"
        assert show_named(from_debruijn(chain)) == names

    def test_alpha_eq_terms(self):
        assert alpha_eq_terms(binder_chain(DEEP), binder_chain(DEEP, first=DEEP))
        assert not alpha_eq_terms(binder_chain(DEEP), parse_named(CHAIN_TEXT.replace(" v0 v", " v1 v")))
        assert alpha_eq_terms(nested_apps(DEEP), parse_named(NESTED_TEXT))
        assert not alpha_eq_terms(nested_apps(DEEP), parse_named(NESTED_TEXT.replace("v7 ", "v8 ", 1)))

    def test_free_atoms(self):
        assert free_atoms(nested_apps(DEEP)) == Support.of(range(DEEP + 1))
        assert free_atoms(binder_chain(DEEP)) == Support.of([3 * DEEP])
        assert db_free_indices(to_debruijn(binder_chain(DEEP))) == Support.of([3 * DEEP])

    def test_act_term(self):
        swap = transposition(EQ, 0, 3 * DEEP)
        renamed = CHAIN_TEXT.replace("\\v0. ", f"\\v{3 * DEEP}. ").replace(" v0 ", f" v{3 * DEEP} ")
        renamed = renamed[: renamed.rindex(" v")] + " v0"
        assert show_named(act_term(swap, binder_chain(DEEP))) == renamed

    def test_json_mirrors(self):
        for t, text in ((nested_apps(DEEP), NESTED_TEXT), (binder_chain(DEEP), CHAIN_TEXT)):
            assert show_named(named_from_json(named_to_json(t))) == text
            db = to_debruijn(t)
            assert show_debruijn(debruijn_from_json(debruijn_to_json(db))) == show_debruijn(db)

    def test_phi(self):
        for t in (nested_apps(DEEP), binder_chain(DEEP)):
            a = phi(t)
            assert supp_abs(a) == b_support(free_atoms(t))
            assert alpha_eq_terms(phi_inv(a), t)
            assert alpha_eq(phi(phi_inv(a)), a)
