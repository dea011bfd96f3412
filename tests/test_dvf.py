from __future__ import annotations

import hashlib
from fractions import Fraction
from random import Random

import pytest

from bethe_dvf.algebra import (AlgebraSpec, UnsupportedShape, ZERO_LABEL, bar,
                               index_set, parse_spec, unb)
from bethe_dvf.dvf import (BoxContext, box, build_dvf, cell_shift,
                           column_dvf, crossing_transform, dvf_value,
                           generating_series, isolated_column_term,
                           normalize_b0s, normalized_rect_dvf,
                           normalized_rect_value,
                           rect_dvf, rect_value, row_dvf, signed_box, top_term)
from bethe_dvf.goldens import (golden_t1_b21, golden_t2_b21, golden_t21_b21,
                               parse_term)
from bethe_dvf.relations import tsystem_g
from bethe_dvf.symbolic import (ONE, ONE_TERM, Assignment, PoleHit, SymSum,
                                SymTerm, dumps, evaluate, random_rational,
                                shift_u)
from bethe_dvf.tableaux import SkewDiagram, enumerate_tableaux, iter_fillings

from conftest import partitions_up_to


B21 = parse_spec("B(2|1)")
D21 = parse_spec("D(2|1)")


@pytest.mark.parametrize("name,label,text", [
    ("B(2|1)", unb(1), "+ phi(u-2) phi(u+1) Q1(u+1) / Q1(u-1)"),
    ("B(2|1)", ZERO_LABEL,
     "+ phi(u) phi(u+1) Q3(u+2) Q3(u-1) / Q3(u) Q3(u+1)"),
    ("D(2|1)", bar(3), "+ phi(u) phi(u) Q2(u-2) Q3(u+2) / Q2(u) Q3(u)"),
    # inner and outer barred boxes
    ("D(3|1)", bar(1), "+ phi(u) phi(u+4) Q1(u+1) / Q1(u+3)"),
    ("D(3|1)", bar(2), "+ phi(u) phi(u+2) Q1(u+1) Q2(u+4) / Q1(u+3) Q2(u+2)"),
], ids=["B(2|1)-1", "B(2|1)-0", "D(2|1)-3b", "D(3|1)-1b", "D(3|1)-2b"])
def test_box_expansion(name, label, text):
    assert box(BoxContext(parse_spec(name)), label) == parse_term(text)


# B(r|s) with r <= 4, s <= 4, r + s <= 6 and D(r|s) with 2 <= r <= 5,
# s <= 4, r + s <= 7: 30 algebras
PIN_SPECS = ([AlgebraSpec("B", r, s) for r in range(5) for s in range(1, 5)
              if r + s <= 6]
             + [AlgebraSpec("D", r, s) for r in range(2, 6) for s in range(1, 5)
                if r + s <= 7])
TOP_TERM_SHAPES = [((), mu) for mu in [(), (1,), (2,), (3,), (5,), (1, 1),
                                       (1, 1, 1), (1,) * 4, (2, 1), (2, 2),
                                       (3, 2, 1)]] + [((1,), (3, 1))]


def _boxes_and_top_terms_digest(refusal) -> str:
    """sha256 over PIN_SPECS of every box at shifts -3, 0 and 2, and the top
    terms of TOP_TERM_SHAPES, each refusal written as ``refusal(exc)``, with
    and without the vacuum."""
    h = hashlib.sha256()
    for spec in PIN_SPECS:
        for vacuum in (True, False):
            ctx = BoxContext(spec, vacuum)
            for label in index_set(spec):
                for shift in (-3, 0, 2):
                    h.update(dumps(SymSum.from_term(box(ctx, label, shift)))
                             .encode())
            for lam, mu in TOP_TERM_SHAPES:
                try:
                    got = dumps(SymSum.from_term(
                        top_term(ctx, SkewDiagram.make(lam, mu))))
                except UnsupportedShape as exc:
                    got = refusal(exc)
                h.update(got.encode())
    return h.hexdigest()


def test_boxes_and_top_terms_are_pinned():
    # recorded before the barred boxes were written as crossing images of
    # the unbarred ones, with the refusal texts; re-pinned once when the
    # refusals became those of tableaux._top_filling, which the terms and
    # the refused shapes of the next test did not change
    assert _boxes_and_top_terms_digest(
        lambda exc: f"UnsupportedShape: {exc}") == (
        "bcedba1d98515632438b57b9a56d8dc44abbadce53355c79366b83f496bb6172")


def test_top_terms_and_their_refusals_are_pinned():
    # recorded before top_term read its filling and refusals from
    # tableaux._top_filling: every term, and which shapes are refused
    assert _boxes_and_top_terms_digest(lambda exc: "UnsupportedShape") == (
        "6ffaa8a7f43c552b4ae510560cc5df0d048f4a4042bb9752f8b4f8996fe1e811")


def test_box_dress_mode_strips_phi():
    t = box(BoxContext(B21, include_vacuum=False), unb(1))
    assert t.phis == ()


def test_signed_box_signs():
    assert signed_box(BoxContext(B21), unb(1)).coeff == -1
    assert signed_box(BoxContext(B21), unb(2)).coeff == 1
    assert signed_box(BoxContext(B21), ZERO_LABEL).coeff == 1


def test_tableau_product_is_golden_member():
    # the [1 over 2bar] column tableau appears verbatim in the printed sum
    ctx = BoxContext(B21)
    term = signed_box(ctx, unb(1), 1) * signed_box(ctx, bar(2), -1)
    golden_keys = {(t.qs, t.phis): t.coeff for t in golden_t2_b21().terms}
    assert golden_keys.get((term.qs, term.phis)) == term.coeff


GOLDEN_CASES = [
    ((1,), golden_t1_b21, 7),
    ((1, 1), golden_t2_b21, 24),
    ((2,), golden_t21_b21, 25),
]


@pytest.mark.parametrize("mu,make,n_terms", GOLDEN_CASES)
def test_golden_expansions(mu, make, n_terms):
    built = build_dvf(BoxContext(B21), SkewDiagram.straight(mu))
    want = make()
    assert len(built) == n_terms
    assert built == want


@pytest.mark.parametrize("name,lam,mu", [
    ("B(2|1)", (), (2, 1)), ("B(1|1)", (1,), (3, 2)),
    ("D(3|1)", (), (1, 1, 1)), ("D(2|2)", (), (3,)),
])
@pytest.mark.parametrize("vacuum", [True, False])
def test_build_dvf_is_the_sum_of_tableau_products(name, lam, mu, vacuum):
    # the per-tableau product, against the prefix products of the walker
    ctx = BoxContext(parse_spec(name), vacuum)
    shape = SkewDiagram.make(lam, mu)
    terms = []
    for tab in enumerate_tableaux(ctx.spec, shape):
        t = ONE_TERM
        for i, j, lab in tab.entries:
            t = t * signed_box(ctx, lab, cell_shift(shape, i, j))
        terms.append(t)
    assert build_dvf(ctx, shape) == SymSum.make(terms)


def _tableau_products(ctx: BoxContext, shape: SkewDiagram) -> SymSum:
    # the same reference, one SymTerm product of signed boxes per tableau,
    # with each cell's boxes built once so that large sweeps stay cheap
    boxes = [[signed_box(ctx, lab, cell_shift(shape, i, j))
              for lab in index_set(ctx.spec)] for i, j in shape.cells()]
    terms = []
    for fill in iter_fillings(ctx.spec, shape):
        t = ONE_TERM
        for k, v in enumerate(fill):
            t = t * boxes[k][v]
        terms.append(t)
    return SymSum.make(terms)


# every B(r|s) with r + s <= 3
SMALL_B_SPECS = [AlgebraSpec("B", r, s) for s in (1, 2, 3) for r in range(4 - s)]


@pytest.mark.parametrize("spec", SMALL_B_SPECS, ids=str)
def test_build_dvf_matches_tableau_products_b(spec):
    # straight shapes up to 5 cells and one skew shape, both vacuum modes
    shapes = [SkewDiagram.straight(mu) for mu in partitions_up_to(5)]
    shapes.append(SkewDiagram.make((2, 1), (3, 3, 2)))
    for vacuum in (True, False):
        ctx = BoxContext(spec, vacuum)
        for shape in shapes:
            assert build_dvf(ctx, shape) == _tableau_products(ctx, shape), (
                shape, vacuum)


@pytest.mark.parametrize("name", ["D(2|1)", "D(3|1)", "D(2|2)"])
def test_build_dvf_matches_tableau_products_d(name):
    # columns and rows up to 4 cells, where equal monomials merge
    for vacuum in (True, False):
        ctx = BoxContext(parse_spec(name), vacuum)
        for n in range(1, 5):
            for mu in ((1,) * n, (n,)):
                shape = SkewDiagram.straight(mu)
                assert build_dvf(ctx, shape) == _tableau_products(ctx, shape), (
                    mu, vacuum)


def test_build_dvf_edge_shapes():
    # the empty shape gives 1 and an inadmissible rectangle gives 0, as the
    # reference does, in both vacuum modes
    for vacuum in (True, False):
        ctx = BoxContext(parse_spec("B(1|1)"), vacuum)
        for mu, want in (((), ONE), ((4, 4, 4), SymSum())):
            shape = SkewDiagram.straight(mu)
            assert build_dvf(ctx, shape) == _tableau_products(ctx, shape) == want


def test_empty_shape_is_one():
    assert build_dvf(BoxContext(B21), SkewDiagram.straight(())) == ONE


def test_rect_conventions():
    ctx = BoxContext(B21)
    assert rect_dvf(ctx, 0, 3) == ONE
    assert rect_dvf(ctx, 3, 0) == ONE
    assert rect_dvf(ctx, -1, 2).is_zero()


def _point(rng: Random, spec) -> Assignment:
    """A random exact point with N_a and N drawn from 0..4 per color."""
    roots = {c: [random_rational(rng) for _ in range(rng.randint(0, 4))]
             for c in range(1, spec.rank + 1)}
    inhoms = [random_rational(rng) for _ in range(rng.randint(0, 4))]
    return Assignment.exact_point(random_rational(rng), roots, inhoms)


TRANSFER_CASES = [
    (name, SkewDiagram.straight(mu))
    for name in ("B(1|1)", "B(2|1)", "B(0|2)") for mu in partitions_up_to(5)
] + [
    (name, SkewDiagram.make(lam, mu))
    for name in ("B(1|1)", "B(2|1)", "B(0|2)")
    for lam, mu in (((1,), (3, 2)), ((2, 1), (3, 3, 1)))
] + [
    (name, SkewDiagram.straight(mu))
    for name in ("D(2|1)", "D(3|1)", "D(2|2)")
    for n in range(1, 6) for mu in ((1,) * n, (n,))
] + [
    # (m, a): the normalized B(0|s) rectangle T_m^a, rows past 2s+1 are 0
    ("B(0|1)", (m, a)) for m in range(0, 5) for a in (0, 1, 2)
] + [
    ("B(0|2)", (m, a)) for m, a in ((0, 1), (0, 2), (1, 1), (2, 1), (3, 2),
                                     (5, 1), (6, 1), (7, 1))
]


def _case_id(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, SkewDiagram):
        return f"{x.mu.parts}/{x.lam.parts}"
    return "normalized m={} a={}".format(*x)


@pytest.mark.parametrize("name,shape", TRANSFER_CASES, ids=_case_id)
def test_transfer_value_matches_expanded_sum(name, shape):
    # the transfer matrix against the plain path: build, shift, evaluate
    spec = parse_spec(name)
    if isinstance(shape, SkewDiagram):
        ctx = BoxContext(spec)
        direct = build_dvf(ctx, shape)
        value = lambda asg, shift: dvf_value(ctx, shape, asg, {}, shift)
    else:
        direct = normalized_rect_dvf(spec, *shape)
        value = lambda asg, shift: normalized_rect_value(spec, *shape, asg,
                                                         {}, shift)
    rng = Random(f"{name} {shape}")
    for _ in range(2):
        asg, shift = _point(rng, spec), rng.randint(-3, 3)
        want = evaluate(shift_u(direct, shift), asg)
        assert value(asg, shift) == want


def test_transfer_value_edge_cases():
    ctx11 = BoxContext(parse_spec("B(1|1)"))
    asg = _point(Random(0), ctx11.spec)
    assert dvf_value(ctx11, SkewDiagram.straight(()), asg, {}) == 1
    assert dvf_value(ctx11, SkewDiagram.straight((4, 4, 4)), asg, {}) == 0
    assert rect_value(ctx11, 4, 3, asg, {}) == 0
    assert rect_value(ctx11, 0, 3, asg, {}) == rect_value(ctx11, 2, 0, asg, {}) == 1
    assert rect_value(ctx11, -1, 2, asg, {}) == rect_value(ctx11, 2, -1, asg, {}) == 0
    with pytest.raises(UnsupportedShape):
        dvf_value(BoxContext(D21), SkewDiagram.make((1,), (2, 2)), asg, {})
    # [1]_u of B(1|1) has the denominator Q_1(u - 1): a root at u - 1 is a pole
    pole = Assignment.exact_point(5, {1: (4, 9), 2: (7,)}, (3,))
    with pytest.raises(PoleHit):
        dvf_value(ctx11, SkewDiagram.straight((1,)), pole, {})


def test_normalize_f1_is_identity():
    spec = parse_spec("B(0|2)")
    shape = SkewDiagram.straight((1, 1))
    x = build_dvf(BoxContext(spec), shape)
    assert normalize_b0s(spec, x, shape) == x


def test_normalized_empty_row_value():
    # normalized T_0 = phi(u+1) phi(u-2s-2)
    spec = parse_spec("B(0|2)")
    got = normalized_rect_dvf(spec, 0, 1)
    assert got == SymSum.from_term(
        SymTerm.make(1, (), [(1, 1), (-6, 1)]))
    assert tsystem_g(2, 1, 1) == got


def test_normalize_rejects_wrong_family():
    from bethe_dvf.algebra import WrongAlgebra
    with pytest.raises(WrongAlgebra):
        normalize_b0s(B21, ONE, SkewDiagram.straight((1,)))
    # the refusal comes before the m < 0 shortcut to zero
    for spec in (B21, parse_spec("D(2|1)")):
        for m in (-1, 1):
            with pytest.raises(WrongAlgebra):
                normalized_rect_dvf(spec, m, 1)
            with pytest.raises(WrongAlgebra):
                normalized_rect_value(spec, m, 1, None, {})


def test_normalize_f2_explicit():
    # two-cell row divisor for s = 1: F_2(u) = phi(u+1) phi(u-4)
    from bethe_dvf.dvf import _f_term
    assert _f_term(1, 2, 0) == SymTerm.make(1, (), [(1, 1), (-4, 1)])
    # and generally the m = 1 divisor is trivial
    assert _f_term(3, 1, 0) == SymTerm.make(1)


def test_top_term_d_column():
    # (-1)^a Q1(u+a)/Q1(u-a), dress part
    ctx = BoxContext(D21, include_vacuum=False)
    for a in (1, 2, 3, 4, 5):
        t = top_term(ctx, SkewDiagram.straight((1,) * a))
        want = SymTerm.make((-1) ** a, [(1, a, 1), (1, -a, -1)])
        assert t == want


def test_top_term_d_row_short():
    # (-1)^m Q_m(u+1)/Q_m(u-1) while the row fits in the delta block
    spec = parse_spec("D(2|2)")
    ctx = BoxContext(spec, include_vacuum=False)
    for m in (1, 2):
        t = top_term(ctx, SkewDiagram.straight((m,)))
        assert t == SymTerm.make((-1) ** m, [(m, 1, 1), (m, -1, -1)])


def test_top_term_d_row_long_r2():
    # r = 2 spreads the tail over both fork colors
    spec = D21
    s = 1
    ctx = BoxContext(spec, include_vacuum=False)
    for m in (2, 3, 4):
        t = top_term(ctx, SkewDiagram.straight((m,)))
        want = SymTerm.make(
            (-1) ** s,
            [(s, m - s + 1, 1), (s, -m + s - 1, -1),
             (s + 1, -m + s, 1), (s + 1, m - s, -1),
             (s + 2, -m + s, 1), (s + 2, m - s, -1)])
        assert t == want


def test_top_term_d_row_long_r3():
    spec = parse_spec("D(3|1)")
    s = 1
    ctx = BoxContext(spec, include_vacuum=False)
    for m in (2, 3):
        t = top_term(ctx, SkewDiagram.straight((m,)))
        want = SymTerm.make(
            (-1) ** s,
            [(s, m - s + 1, 1), (s, -m + s - 1, -1),
             (s + 1, -m + s, 1), (s + 1, m - s, -1)])
        assert t == want


def test_top_term_b0s_row():
    spec = parse_spec("B(0|2)")
    ctx = BoxContext(spec, include_vacuum=False)
    for m in (1, 2):
        t = top_term(ctx, SkewDiagram.straight((m,)))
        assert t == SymTerm.make((-1) ** m, [(m, 1, 1), (m, -1, -1)])


def test_top_term_empty():
    assert top_term(BoxContext(B21), SkewDiagram.straight(())) == \
        SymTerm.make(1)


@pytest.mark.parametrize("name,shapes", [
    ("B(2|1)", [(1,), (2,), (1, 1), (2, 1), (3, 2), (2, 2, 1)]),
    ("B(1|1)", [(1,), (2, 1), (2, 2)]),
    ("B(0|2)", [(1,), (2, 2), (2, 1, 1)]),
    ("D(2|1)", [(1,), (1, 1), (1, 1, 1), (1, 1, 1, 1)]),
    ("D(3|1)", [(2,), (3,), (4,)]),
])
def test_top_term_membership(name, shapes):
    spec = parse_spec(name)
    ctx = BoxContext(spec, include_vacuum=False)
    for mu in shapes:
        shape = SkewDiagram.straight(mu)
        try:
            t = top_term(ctx, shape)
        except UnsupportedShape:
            continue
        dvf = build_dvf(ctx, shape)
        members = {(term.qs, term.phis): term.coeff for term in dvf.terms}
        assert members.get((t.qs, t.phis)) == t.coeff, (name, mu)


def test_crossing_box_image():
    # [1]_u maps onto [1bar]_u
    got = crossing_transform(B21, SymSum.from_term(box(BoxContext(B21), unb(1))))
    want = SymSum.from_term(box(BoxContext(B21), bar(1)))
    assert got == want


def test_crossing_empty():
    from bethe_dvf.symbolic import ZERO
    assert crossing_transform(B21, ZERO).is_zero()


@pytest.mark.parametrize("name", [
    f"B({r}|{s})" for r in range(4) for s in range(1, 5) if r + s <= 4] + [
    f"D({r}|{s})" for r in range(2, 5) for s in range(1, 4) if r + s <= 5])
def test_crossing_invariance(name):
    # the barred boxes are crossing images of the unbarred ones, so this
    # checks that the admissible tableaux map onto each other
    spec = parse_spec(name)
    for vacuum in (True, False):
        ctx = BoxContext(spec, vacuum)
        for k in (1, 2, 3):
            for mu in [(1,) * k, (k,)]:
                t = build_dvf(ctx, SkewDiagram.straight(mu))
                assert crossing_transform(spec, t) == t, (mu, vacuum)


def test_crossing_rejects_unbalanced():
    x = SymSum.from_term(SymTerm.make(1, [(1, 0, 1)]))
    with pytest.raises(ValueError):
        crossing_transform(B21, x)


def test_series_order_zero_is_one():
    for name in ("B(1|1)", "D(2|1)"):
        ctx = BoxContext(parse_spec(name))
        assert generating_series(ctx, "column", 3)[0] == ONE
        assert generating_series(ctx, "row", 3)[0] == ONE


# r = 0, r + s = 4 and s = 3 in B; r = 4 and s = 3 in D
SERIES_SPECS = ["B(0|1)", "B(0|3)", "B(3|1)", "B(1|3)", "D(4|1)", "D(2|3)"]


@pytest.mark.parametrize("name", ["B(1|1)", "B(0|2)", "D(2|1)"] + SERIES_SPECS)
def test_series_matches_direct(name):
    spec = parse_spec(name)
    for vacuum in (True, False):
        ctx = BoxContext(spec, include_vacuum=vacuum)
        cols = generating_series(ctx, "column", 4)
        rows = generating_series(ctx, "row", 4)
        for n in range(0, 4):
            assert cols[n] == shift_u(column_dvf(ctx, n), n - 1), (n, vacuum)
            assert rows[n] == shift_u(row_dvf(ctx, n), n - 1), (n, vacuum)


def test_series_coefficients_are_pinned():
    # recorded before the geometric-series builders were folded into one:
    # B(r|s) with r <= 2, s <= 2 and D(2..3|1..2), column and row, n = 0..5,
    # with and without the vacuum
    specs = ([AlgebraSpec("B", r, s) for r in range(3) for s in (1, 2)]
             + [AlgebraSpec("D", r, s) for r in (2, 3) for s in (1, 2)])
    h = hashlib.sha256()
    for spec in specs:
        for vacuum in (True, False):
            ctx = BoxContext(spec, include_vacuum=vacuum)
            for kind in ("column", "row"):
                for n in range(6):
                    h.update(dumps(generating_series(ctx, kind, n)[n]).encode())
    assert h.hexdigest() == (
        "7bfa92c4538f989faff8ce4b716a214007382291be48fb1fdb49149f43c27ebe")


def test_series_beyond_the_small_ranks_is_pinned():
    # recorded before the series was written as one ordered product over
    # the labels: larger r and s than the pin above, column and row,
    # n = 0..4 truncated at n + 1, with and without the vacuum
    h = hashlib.sha256()
    for name in SERIES_SPECS:
        for vacuum in (True, False):
            ctx = BoxContext(parse_spec(name), include_vacuum=vacuum)
            for kind in ("column", "row"):
                for n in range(5):
                    h.update(dumps(generating_series(ctx, kind, n + 1)[n])
                             .encode())
    assert h.hexdigest() == (
        "06bb46af5828a476a2c36cda3d30a465021c60edb8e4ed7e04d879ae65d43f69")


def test_isolated_term_d31():
    # T^2 for D(3|1) minus its isolated piece drops exactly one term,
    # the all-phi square
    spec = parse_spec("D(3|1)")
    ctx = BoxContext(spec)
    t2 = build_dvf(ctx, SkewDiagram.straight((1, 1)))
    h2 = isolated_column_term(spec, 2)
    assert h2 == SymTerm.make(1, (), [(-1, 2), (3, 2)])
    remaining = t2 - SymSum.from_term(h2)
    assert len(remaining) == len(t2) - 1
    # and the dropped term is the [1 over 1bar] tableau
    tab = signed_box(ctx, unb(1), 1) * signed_box(ctx, bar(1), -1)
    assert tab == h2


def test_d22_has_no_isolated_term():
    spec = parse_spec("D(2|2)")
    t2 = build_dvf(BoxContext(spec), SkewDiagram.straight((1, 1)))
    pure_phi = [t for t in t2.terms if not t.qs]
    assert not pure_phi


def test_b01_fundamental_against_per_box_oracle():
    # brute-force oracle: assemble the three box values of the B(0|1)
    # fundamental sum from raw products, bypassing the symbolic layer
    from bethe_dvf.symbolic import Assignment, evaluate

    spec = parse_spec("B(0|1)")
    t1 = build_dvf(BoxContext(spec), SkewDiagram.straight((1,)))
    u = Fraction(7, 3)
    roots = (Fraction(1, 2), Fraction(-5, 4))
    inhoms = (Fraction(2), Fraction(-1, 3))

    def q1(v):
        out = Fraction(1)
        for r in roots:
            out *= v - r
        return out

    def phi(v):
        out = Fraction(1)
        for w in inhoms:
            out *= v - w
        return out

    # boxes for s = 1, r = 0 with their psi prefactors and grading signs
    box1 = phi(u - 2) * phi(u - 3) * q1(u + 1) / q1(u - 1)
    box0 = phi(u) * phi(u - 3) * q1(u) * q1(u - 3) / (q1(u - 2) * q1(u - 1))
    box1bar = phi(u) * phi(u - 1) * q1(u - 4) / q1(u - 2)
    oracle = -box1 + box0 - box1bar

    asg = Assignment.exact_point(u, {1: roots}, inhoms)
    assert evaluate(t1, asg) == oracle
