from __future__ import annotations

import hashlib
import json
import pickle
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, strategies as st

from bethe_dvf.algebra import index_set, parse_spec
from bethe_dvf.dvf import (BoxContext, build_dvf, cell_shift, column_dvf,
                           dvf_value, generating_series_coeff,
                           normalized_rect_value, row_dvf, signed_box)
from bethe_dvf import symbolic
from bethe_dvf.relations import det_formula, tsystem_block, tsystem_g
from bethe_dvf.symbolic import (Assignment, PoleHit, SymSum, SymTerm, ZERO,
                                _factor_value, _group_sum_at, colors_of,
                                equal_as_rational_functions, evaluate,
                                evaluate_term, exact_det, loads, dumps,
                                poly_at, random_assignment, residue_breakdown,
                                shift_u, sum_from_json, sum_to_json,
                                sum_to_latex, sum_to_text, term_from_json)
from bethe_dvf.tableaux import SkewDiagram


def q1_ratio(up: int, down: int) -> SymTerm:
    return SymTerm.make(1, [(1, up, 1), (1, down, -1)])


def test_mul_cancels_shared_keys():
    a = q1_ratio(1, -1)                       # Q1(u+1)/Q1(u-1)
    b = SymTerm.make(1, [(1, -1, 1), (1, 0, -1)])   # Q1(u-1)/Q1(u)
    prod = a * b
    assert prod == SymTerm.make(1, [(1, 1, 1), (1, 0, -1)])


def test_mul_identity():
    t = SymTerm.make(-1, [(1, 1, 1), (1, -1, -1)], [(-2, 1), (1, 1)])
    assert t * SymTerm.make(1) == t


def test_add_cancels_to_zero():
    x = SymSum.from_term(q1_ratio(1, -1))
    assert (x + (-x)).is_zero()


def test_add_merges_coefficients():
    t = q1_ratio(2, 0)
    two = SymSum.from_term(SymTerm.make(2, t.qs))
    three = SymSum.from_term(SymTerm.make(3, t.qs))
    merged = two + three
    assert len(merged) == 1
    assert merged.terms[0].coeff == 5


def test_zero_exponent_dropped():
    t = SymTerm.make(1, [(1, 0, 1), (1, 0, -1)])
    assert t.qs == ()


def test_shift_examples():
    x = SymSum.from_term(SymTerm.make(1, [(1, 0, 1), (1, -2, -1)]))
    shifted = shift_u(x, 2)
    assert shifted == SymSum.from_term(SymTerm.make(1, [(1, 2, 1), (1, 0, -1)]))
    assert shift_u(x, 0) == x
    with pytest.raises(ValueError):
        shift_u(x, Fraction(3, 2))


@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-3, 3))
def test_shift_is_multiplicative(c1, c2, d):
    a = SymSum.from_term(SymTerm.make(2, [(1, c1, 1)]))
    b = SymSum.from_term(SymTerm.make(3, [(2, c2, -1)], [(0, 1)]))
    assert shift_u(a * b, d) == shift_u(a, d) * shift_u(b, d)


def test_evaluate_empty_sum_is_zero():
    asg = Assignment.exact_point(0, {1: (1,)})
    assert evaluate(ZERO, asg) == 0


def test_evaluate_simple_ratio():
    # Q1(u+1)/Q1(u-1) with one root at 0, u = 3 -> 4/2
    x = SymSum.from_term(q1_ratio(1, -1))
    asg = Assignment.exact_point(3, {1: (0,)})
    assert evaluate(x, asg) == 2


def test_evaluate_pole_hit():
    x = SymSum.from_term(q1_ratio(1, -1))
    asg = Assignment.exact_point(1, {1: (0,)})
    with pytest.raises(PoleHit):
        evaluate(x, asg)


@pytest.mark.parametrize("point", [Assignment.exact_point,
                                   Assignment.float_point])
def test_evaluate_zero_over_zero_is_a_pole_hit(point):
    # Q1(u) / Q1(u+2) at u = 5 with roots 5 and 7: the numerator factor
    # vanishes first in canonical order, the denominator factor vanishes too
    x = SymSum.from_term(SymTerm.make(1, [(1, 0, 1), (1, 2, -1)]))
    with pytest.raises(PoleHit):
        evaluate(x, point(5, {1: (5, 7)}))


def test_evaluate_float_mode():
    x = SymSum.from_term(q1_ratio(1, -1))
    asg = Assignment.float_point(3 + 0j, {1: (0j,)})
    assert abs(evaluate(x, asg) - 2) < 1e-12


@given(st.integers(-40, 40), st.integers(-40, 40), st.integers(-40, 40))
def test_ring_laws_under_evaluation(r1, r2, uval):
    a = SymSum.make([SymTerm.make(2, [(1, 1, 1)]),
                     SymTerm.make(-1, [(1, 0, -1)])])
    b = SymSum.make([SymTerm.make(1, [(1, -1, 1), (1, 2, 1)]),
                     SymTerm.make(Fraction(1, 3))])
    asg = Assignment.exact_point(uval, {1: (r1, Fraction(r2, 7) + Fraction(1, 3))})
    try:
        va, vb = evaluate(a, asg), evaluate(b, asg)
        assert evaluate(a * b, asg) == va * vb
        assert evaluate(a + b, asg) == va + vb
    except PoleHit:
        pass


terms_strategy = st.lists(
    st.tuples(st.integers(-4, 4).filter(bool),
              st.lists(st.tuples(st.integers(1, 3), st.integers(-4, 4),
                                 st.integers(-2, 2).filter(bool)),
                       max_size=3),
              st.lists(st.tuples(st.integers(-4, 4),
                                 st.integers(-2, 2).filter(bool)),
                       max_size=2)),
    max_size=5)


@given(terms_strategy)
def test_json_round_trip(raw):
    x = SymSum.make([SymTerm.make(c, qs, phis) for c, qs, phis in raw])
    assert sum_from_json(sum_to_json(x)) == x
    assert loads(dumps(x)) == x


@given(terms_strategy)
def test_canonicalization_idempotent(raw):
    x = SymSum.make([SymTerm.make(c, qs, phis) for c, qs, phis in raw])
    assert SymSum.make(x.terms) == x


def test_equal_as_rational_functions_structural():
    a = SymSum.from_term(q1_ratio(1, -1))
    rep = equal_as_rational_functions(a, a, trials=3)
    assert rep.passed and rep.mode == "exact-symbolic"


def test_equal_commutativity():
    t1 = SymTerm.make(1, [(1, 0, 1)])
    t2 = SymTerm.make(1, [(1, 2, 1)])
    a = SymSum.from_term(t1 * t2)
    b = SymSum.from_term(t2 * t1)
    rep = equal_as_rational_functions(a, b, trials=3)
    assert rep.passed


def test_equal_detects_difference():
    a = SymSum.from_term(q1_ratio(1, -1))
    b = SymSum.from_term(q1_ratio(2, -1))
    rep = equal_as_rational_functions(a, b, trials=3, seed=1)
    assert not rep.passed


def test_residue_no_pole_is_zero():
    x = SymSum.from_term(SymTerm.make(1, [(1, 1, 1)]))
    asg = Assignment.float_point(0, {1: (0.3,), 2: (1.1,)})
    assert sum(residue_breakdown(x, 2, 0, 0, asg)) == 0


def test_residue_single_factor():
    # Q1(u+1)/Q1(u), one root at 0: residue at u = 0 is Q1(1) = 1
    x = SymSum.from_term(SymTerm.make(1, [(1, 1, 1), (1, 0, -1)]))
    asg = Assignment.float_point(0, {1: (0j,)})
    assert abs(sum(residue_breakdown(x, 1, 0, 0, asg)) - 1) < 1e-12


def test_residue_matches_numeric_limit():
    x = SymSum.make([SymTerm.make(2, [(1, 1, 1), (1, 0, -1)], [(2, 1)]),
                     SymTerm.make(-1, [(1, -1, 1), (1, 0, -1)])])
    roots = {1: (0.37 + 0.11j, -1.42j)}
    inhoms = (0.9, -0.8)
    asg = Assignment.float_point(0, roots, inhoms)
    for k in (0, 1):
        res = sum(residue_breakdown(x, 1, k, 0, asg))
        p = roots[1][k]
        near = Assignment.float_point(p + 1e-6, roots, inhoms)
        limit = evaluate(x, near) * 1e-6
        assert abs(limit - res) / abs(res) < 1e-4


def test_exact_det_small():
    m = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    assert exact_det(m) == -2
    assert exact_det([[Fraction(0)]]) == 0


def test_residue_higher_order_pole_raises():
    from bethe_dvf.symbolic import HigherOrderPole
    x = SymSum.from_term(SymTerm.make(1, [(1, 0, -2)]))
    asg = Assignment.float_point(0, {1: (0.4,)})
    with pytest.raises(HigherOrderPole):
        sum(residue_breakdown(x, 1, 0, 0, asg))


def test_residue_coincident_roots_raise():
    from bethe_dvf.symbolic import GenericityViolation
    x = SymSum.from_term(SymTerm.make(1, [(1, 0, -1)]))
    asg = Assignment.float_point(0, {1: (0.4, 0.4)})
    with pytest.raises(GenericityViolation):
        sum(residue_breakdown(x, 1, 0, 0, asg))


# ---------------------------------------------------------------------------
# argument shifts are integers


NON_INTEGER_SHIFTS = [Fraction(3, 2), "1/2"]


@pytest.mark.parametrize("bad", NON_INTEGER_SHIFTS, ids=str)
def test_make_refuses_non_integer_shift(bad):
    with pytest.raises(ValueError):
        SymTerm.make(1, [(1, bad, 1)])
    with pytest.raises(ValueError):
        SymTerm.make(1, (), [(bad, 1)])


@pytest.mark.parametrize("bad", NON_INTEGER_SHIFTS, ids=str)
def test_shift_u_refuses_non_integer_shift(bad):
    x = SymSum.from_term(q1_ratio(1, -1))
    for target in (x, x.terms[0], ZERO):
        with pytest.raises(ValueError):
            shift_u(target, bad)


@pytest.mark.parametrize("bad", NON_INTEGER_SHIFTS, ids=str)
def test_json_refuses_non_integer_shift(bad):
    with pytest.raises(ValueError):
        term_from_json({"coeff": "1", "Q": [], "phi": [[str(bad), 1]]})
    text = json.dumps({"schema": 1, "terms": [
        {"coeff": "1", "Q": [[1, str(bad), -1]], "phi": []}]})
    with pytest.raises(ValueError):
        loads(text)


@pytest.mark.parametrize("bad", NON_INTEGER_SHIFTS, ids=str)
def test_residue_refuses_non_integer_shift(bad):
    x = SymSum.from_term(SymTerm.make(1, [(1, 1, 1), (1, 0, -1)]))
    asg = Assignment.float_point(0, {1: (0.3j,)})
    with pytest.raises(ValueError):
        sum(residue_breakdown(x, 1, 0, bad, asg))


def test_integral_shifts_are_stored_as_ints():
    t = SymTerm.make(1, [(1, Fraction(4, 2), 1), (2, "-3", -1)], [("0", 1)])
    assert t == SymTerm.make(1, [(1, 2, 1), (2, -3, -1)], [(0, 1)])
    assert t.shifted(Fraction(-2)) == t.shifted(-2)
    assert [type(s) for _, s, _ in t.shifted("5").qs] == [int, int]


def _shift_types(x: SymSum) -> set:
    return ({type(s) for t in x.terms for _, s, _ in t.qs}
            | {type(s) for t in x.terms for s, _ in t.phis})


def test_built_sums_carry_int_shifts():
    b21, d21 = parse_spec("B(2|1)"), parse_spec("D(2|1)")
    sums = [build_dvf(BoxContext(b21), SkewDiagram.straight((2, 1))),
            build_dvf(BoxContext(parse_spec("B(1|1)"), False),
                      SkewDiagram.make((1,), (3, 2))),
            build_dvf(BoxContext(d21), SkewDiagram.straight((3,))),
            det_formula(parse_spec("B(1|1)"), SkewDiagram.straight((2, 1)),
                        "column"),
            det_formula(d21, SkewDiagram.straight((2,)), "d_row"),
            tsystem_block(2, 1, 2),
            tsystem_block(2, 2, 1),
            generating_series_coeff(BoxContext(b21), "row", 2),
            generating_series_coeff(BoxContext(d21), "column", 2)]
    for x in sums:
        assert not x.is_zero()
        assert _shift_types(x) == {int}


# ---------------------------------------------------------------------------
# colors and exponents are plain ints


NON_INT_EXPONENTS = [Fraction(1, 2), 2.0, 2.5, True]


@pytest.mark.parametrize("bad", NON_INT_EXPONENTS, ids=repr)
def test_make_refuses_non_int_exponent(bad):
    with pytest.raises(ValueError):
        SymTerm.make(1, [(1, 0, bad)])
    with pytest.raises(ValueError):
        SymTerm.make(1, (), [(0, bad)])


@pytest.mark.parametrize("bad", [True, 1.0, Fraction(1), "1"], ids=repr)
def test_make_refuses_non_int_color(bad):
    with pytest.raises(ValueError):
        SymTerm.make(1, [(bad, 0, 1)])


@pytest.mark.parametrize("term", [{"Q": [[1, "0", 2.5]]}, {"Q": [[1, "0", 2.0]]},
                                  {"Q": [[True, "0", 2]]}, {"phi": [["0", 0.5]]}],
                         ids=str)
def test_json_refuses_non_int_exponent_and_color(term):
    text = json.dumps({"schema": 1, "terms": [dict(term, coeff="1")]})
    with pytest.raises(ValueError):
        loads(text)


def test_bool_shift_is_refused():
    x = SymSum.from_term(q1_ratio(1, -1))
    for target in (x, x.terms[0], ZERO):
        with pytest.raises(ValueError):
            shift_u(target, True)
    with pytest.raises(ValueError):
        SymTerm.make(1, [(1, True, 1)])
    with pytest.raises(ValueError):
        SymTerm.make(1, (), [(False, 1)])


# ---------------------------------------------------------------------------
# a product merges the canonical factor tuples of its operands


def _is_canonical(t: SymTerm) -> bool:
    """Factors sorted with unique keys, no zero exponent, int entries."""
    for factors in (t.qs, t.phis):
        keys = [f[:-1] for f in factors]
        if keys != sorted(set(keys)):
            return False
        if any(f[-1] == 0 or {type(v) for v in f} != {int} for f in factors):
            return False
    return type(t.coeff) is Fraction


# a small grid of keys, so that factors collide and exponents cancel
canonical_terms = st.builds(
    SymTerm.make,
    st.sampled_from([0, 1, -1, Fraction(2, 3), Fraction(-5, 7), 4]),
    st.lists(st.tuples(st.integers(1, 2), st.integers(-2, 2),
                       st.integers(-2, 2)), max_size=6),
    st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), max_size=4))

_A = SymTerm.make(1, [(1, 0, 1), (1, 2, -1), (2, -1, 2)], [(0, 1), (3, -1)])


@given(canonical_terms, canonical_terms)
@example(_A, _A.inverse())                                  # cancels to ()
@example(_A, SymTerm.make(-1, [(1, 2, 1), (2, -1, -2)], [(3, 1)]))  # to phi-only
@example(SymTerm.make(1), _A)                               # one side empty
@example(_A, SymTerm.make(-1))
@example(SymTerm.make(Fraction(2, 3), (), [(1, 2)]),        # phi-only, Q-only
         SymTerm.make(-1, [(2, 0, -1)]))
@example(SymTerm.make(0, [(1, 0, 1)]), _A)                  # coefficient 0
@example(SymTerm.make(Fraction(-3, 4), [(2, 1, 1)]), SymTerm.make(Fraction(2, 3)))
def test_product_equals_canonicalising_the_joined_factors(a, b):
    prod = a * b
    assert prod == SymTerm.make(a.coeff * b.coeff, a.qs + b.qs, a.phis + b.phis)
    assert prod == b * a
    assert _is_canonical(prod)


def test_product_cancels_to_the_empty_term():
    prod = _A * _A.inverse()
    assert (prod.qs, prod.phis, prod.coeff) == ((), (), 1)


# sha256 of the JSON (sorted keys), LaTeX and text renderings; recorded
# before shifts became ints, so the stored type does not show in the output
RENDERING_SHA256 = {
    ("B(2|1)", (2, 1), (), True): (
        "ca540df046b55cb023f0f1722282a6a3590ddc976294681f23cdc22b172df2e1",
        "72843fa409982b853556391de076dcc99d847519b94f6824f6b3796ee4dd7687",
        "2d2c4d64a74e2af60a98c9d9b076c50a37d15b57c082359ba73bce0dea051afc"),
    ("D(3|1)", (1, 1, 1), (), True): (
        "287eac12629da20da327b3c446d361231b3348730894382062997c69cacf1136",
        "8da1ec9059fd7b6cbc9c754111fb5a285931050a9ebe7c10fd28d0215cad2803",
        "d126abb0a71bc88a8d480e05e1e335ff027ca8b974e318e1d0d2a72bb7037bba"),
    ("B(0|2)", (3, 1), (1,), False): (
        "86016182abc94bd68e50cff69cb79a6134b21901b20c153101c32da7bd5168a8",
        "60140e98f31399c8435a80dd7fd549c5b72cc67279bbb8ab4ffe6520bad9d769",
        "9e591fe8ad380c06a81b25936cf093115e096c6ba8d21ebc70f174a1cd92e27a"),
    ("det B(1|1)", (2, 1), (), True): (
        "8befc67f766a2abe5e6372216ebabe880f2ec49f6d113bcc2518194948185ef5",
        "6049ab75c4ed9efb801f76522f4499ac9422c6c1ff381b51fd46b1282335dc46",
        "496a44a2d6d903fdddbfb995ae4ae55091bf924b6a67d5677ac624dd37a93f42"),
}


@pytest.mark.parametrize("case", list(RENDERING_SHA256), ids=str)
def test_renderings_are_byte_stable(case):
    name, mu, lam, vacuum = case
    shape = SkewDiagram.make(lam, mu)
    if name.startswith("det "):
        x = det_formula(parse_spec(name[4:]), shape, "row")
    else:
        x = build_dvf(BoxContext(parse_spec(name), vacuum), shape)
    got = tuple(hashlib.sha256(text.encode()).hexdigest()
                for text in (json.dumps(sum_to_json(x), sort_keys=True),
                             sum_to_latex(x), sum_to_text(x)))
    assert got == RENDERING_SHA256[case]


# ---------------------------------------------------------------------------
# the exact evaluator against a plain-Fraction reference


def _ref_base(asg: Assignment, color, shift: int) -> Fraction:
    zeros = asg.inhoms if color is None else asg.roots.get(color, ())
    base = Fraction(1)
    for z in zeros:
        base *= asg.u + shift - z
    return base


def _ref_factors(t: SymTerm):
    """(color, shift, exp) of every factor of t in canonical order, phi
    factors with color None after the Q factors."""
    return list(t.qs) + [(None, s, e) for s, e in t.phis]


def _ref_first_pole(terms, asg: Assignment):
    for t in terms:
        for color, shift, exp in _ref_factors(t):
            if exp < 0 and _ref_base(asg, color, shift) == 0:
                return color, shift
    return None


def _ref_value(terms, asg: Assignment) -> Fraction:
    total = Fraction(0)
    for t in terms:
        val = t.coeff
        for color, shift, exp in _ref_factors(t):
            val *= _ref_base(asg, color, shift) ** exp
        total += val
    return total


def _random_sum(rng) -> SymSum:
    terms = []
    for _ in range(rng.randint(1, 6)):
        coeff = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                         rng.randint(1, 5))
        qs = [(rng.randint(1, 3), rng.randint(-3, 3),
               rng.choice([-3, -2, -1, 1, 2, 3]))
              for _ in range(rng.randint(0, 4))]
        phis = [(rng.randint(-3, 3), rng.choice([-3, -2, -1, 1, 2, 3]))
                for _ in range(rng.randint(0, 3))]
        terms.append(SymTerm.make(coeff, qs, phis))
    return SymSum.make(terms)


def _small_rational(rng) -> Fraction:
    # small values, so that factors vanish by chance too
    return Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))


def _random_point(rng, x: SymSum) -> Assignment:
    """N_a and N in 0..4; color 3, when present, may get no entry at all.
    Every other point is moved so that one denominator factor of x vanishes
    there, when x has a denominator factor with a zero."""
    roots = {c: [_small_rational(rng) for _ in range(rng.randint(0, 4))]
             for c in (1, 2, 3)}
    if rng.random() < 0.3:
        del roots[3]
    inhoms = [_small_rational(rng) for _ in range(rng.randint(0, 4))]
    u = _small_rational(rng)
    dens = [(c, s) for t in x.terms for c, s, e in _ref_factors(t)
            if e < 0 and (inhoms if c is None else roots.get(c))]
    if dens and rng.random() < 0.5:
        color, shift = rng.choice(dens)
        u = rng.choice(inhoms if color is None else roots[color]) - shift
    return Assignment.exact_point(u, roots, inhoms)


# explicit cases: nonzero net exponents per color, in Q and in phi, a color
# absent from the point (Q_3 = 1), and zeros that share the denominator 3 of
# u, so that the unreduced n_s and D_c share factors (D_c // bd > 1)
NET_CASES = [
    SymTerm.make(Fraction(3, 2), [(1, 1, 2), (1, -1, -1), (2, 0, 1)],
                 [(1, -3)]),
    SymTerm.make(Fraction(-5, 7), [(1, 0, -2)], [(0, 2), (2, 1)]),
    SymTerm.make(-1, [(1, 1, 1), (1, -1, -1), (2, 2, 1), (2, 0, -1)],
                 [(0, 1), (-1, 1)]),
    SymTerm.make(4, [(3, 5, -2), (2, 3, 1)], [(-2, -1)]),
]
NET_POINT = Assignment.exact_point(
    Fraction(1, 3), {1: (Fraction(7, 3), Fraction(-5, 3)),
                     2: (Fraction(7, 3), Fraction(1, 2), 5)},
    (Fraction(-4, 3), Fraction(1, 6), Fraction(2, 9)))


def test_exact_evaluation_matches_reference():
    # the explicit cases, alone, summed and as sums of products
    asg = NET_POINT
    # (u - 7/3)(u + 5/3) = -4 is an integer, D_1 = 3^2 * 3 * 3
    assert _factor_value(asg, 1, 0, {}) == (-4, 1)
    sums = [SymSum.make([t]) for t in NET_CASES] + [SymSum.make(NET_CASES)]
    for x in sums:
        assert evaluate(x, asg) == _ref_value(x.terms, asg)
    for t in NET_CASES:
        assert evaluate_term(t, asg) == _ref_value((t,), asg)
    groups = [[sums[0], sums[1]], [sums[4]], [sums[2], sums[3], sums[0]]]
    assert _group_sum_at(groups, asg, {}) == sum(
        prod_ref(g, asg) for g in groups)
    rng = Random(2024)
    poles = values = 0
    for _ in range(400):
        x = _random_sum(rng)
        asg = _random_point(rng, x)
        pole = _ref_first_pole(x.terms, asg)
        cache: dict = {}
        for _ in range(2):      # the second pass reads the filled cache
            if pole is None:
                assert evaluate(x, asg, cache) == _ref_value(x.terms, asg)
            else:
                with pytest.raises(PoleHit) as hit:
                    evaluate(x, asg, cache)
                assert (hit.value.color, hit.value.shift) == pole
            for t in x.terms:
                term_pole = _ref_first_pole((t,), asg)
                if term_pole is None:
                    want = _ref_value((t,), asg)
                    assert evaluate_term(t, asg, cache) == want
                else:
                    with pytest.raises(PoleHit) as hit:
                        evaluate_term(t, asg, cache)
                    assert (hit.value.color, hit.value.shift) == term_pole
        poles += pole is not None
        values += pole is None
    # both outcomes are well represented
    assert poles > 100 and values > 100


def prod_ref(group, asg: Assignment) -> Fraction:
    val = Fraction(1)
    for x in group:
        val *= _ref_value(x.terms, asg)
    return val


def test_a_wide_plan_falls_back_to_tuple_runs():
    # 300 distinct bases are more slots than a bytes run can index
    terms = [SymTerm.make(k - 150, [(1, k, 1), (2, -k, -1)], [(k % 7, 2)])
             for k in range(300)]
    x = SymSum.make(terms)
    runs = x._plan[4]
    assert len(x._plan[0]) // 2 > 256 and type(runs[0]) is tuple
    rng = Random(5)
    for _ in range(3):
        asg = random_assignment(rng, {1, 2}, 3, 2)
        assert evaluate(x, asg) == _ref_value(x.terms, asg)
    # Q_2(u - 200) = 0: the first vanishing denominator in scan order
    asg = Assignment.exact_point(
        Fraction(201), {1: (Fraction(1, 2),), 2: (1, Fraction(-3, 2))}, (7,))
    with pytest.raises(PoleHit) as hit:
        evaluate(x, asg)
    assert (hit.value.color, hit.value.shift) == _ref_first_pole(x.terms, asg)


def test_plans_leave_equality_hash_dumps_and_pickle_alone():
    x = build_dvf(BoxContext(parse_spec("B(1|1)")), SkewDiagram.straight((2, 1)))
    t = x.terms[0]
    fresh_x, fresh_t = loads(dumps(x)), SymTerm(t.coeff, t.qs, t.phis)
    asg = random_assignment(Random(3), colors_of(x))
    want = evaluate(x, asg), evaluate_term(t, asg)
    assert "_plan" in vars(x) and "_plan" in vars(t)
    assert "_plan" not in vars(fresh_x) and "_plan" not in vars(fresh_t)
    for got, fresh in ((x, fresh_x), (t, fresh_t)):
        assert got == fresh and hash(got) == hash(fresh)
        assert repr(got) == repr(fresh)
    assert dumps(x) == dumps(fresh_x)
    for y in (x, fresh_x):
        back = pickle.loads(pickle.dumps(y))
        assert back == x and dumps(back) == dumps(x)
        assert evaluate(back, asg) == want[0]
    back = pickle.loads(pickle.dumps(t))
    assert back == t and evaluate_term(back, asg) == want[1]


def test_plans_compile_once_and_lazily(monkeypatch):
    # deterministic work counts: a sum valued at 5 points compiles one plan,
    # building sums compiles none
    compiled = []
    compile_ = symbolic._compile
    monkeypatch.setattr(symbolic, "_compile",
                        lambda terms: compiled.append(len(terms))
                        or compile_(terms))
    column_dvf.cache_clear()
    row_dvf.cache_clear()
    spec, sd = parse_spec("B(2|1)"), SkewDiagram.straight((3, 2, 1))
    direct = build_dvf(BoxContext(spec), sd)
    assert det_formula(spec, sd, "column") == direct
    assert compiled == []
    x = build_dvf(BoxContext(spec), SkewDiagram.straight((2, 1)))
    rng = Random(8)
    for _ in range(5):
        evaluate(x, random_assignment(rng, colors_of(x)))
    assert compiled == [len(x)]


def test_a_point_values_each_base_once(monkeypatch):
    calls = []
    value = symbolic._factor_value
    monkeypatch.setattr(symbolic, "_factor_value",
                        lambda asg, c, s, cache: calls.append((c, s))
                        or value(asg, c, s, cache))
    x = build_dvf(BoxContext(parse_spec("B(2|1)")), SkewDiagram.straight((2, 1)))
    bases = {(c, s) for t in x.terms for c, s, _ in _ref_factors(t)}
    asg = random_assignment(Random(9), colors_of(x))
    cache: dict = {}
    evaluate(x, asg, cache)
    assert len(calls) == len(set(calls)) == len(bases) == 34
    evaluate(x, asg, cache)
    assert len(calls) == len(bases)
    # dvf_value runs one plan per row of boxes: a base shared by two boxes
    # or two cells is valued once per point too
    ctx, shape = BoxContext(parse_spec("B(2|1)")), SkewDiagram.straight((2, 1))
    boxes = {(c, s) for i, j in shape.cells() for lab in index_set(ctx.spec)
             for c, s, _ in _ref_factors(signed_box(ctx, lab,
                                                     cell_shift(shape, i, j)))}
    calls.clear()
    assert dvf_value(ctx, shape, asg, {}) == evaluate(x, asg, cache)
    assert len(calls) == len(set(calls)) == len(boxes) == 34


def _wide_rational(rng) -> Fraction:
    # either sign, numerators up to 10^30
    return Fraction(rng.choice([-1, 1]) * rng.randint(0, 10 ** rng.randint(1, 30)),
                    rng.randint(1, 10 ** rng.randint(0, 6)))


def test_integer_factor_values_match_poly_at():
    # the exact Q_a(u + s) and phi(u + s) on integers against prod (v - z)
    # on Fractions, for N_a and N = 0..4, shifts of both signs, and points
    # with u + s on a root, where the value is 0
    shifts = (-40, -7, -1, 0, 1, 2, 9, 40)
    rng = Random(17)
    zeros_seen = 0
    for _ in range(300):
        roots = {c: tuple(_wide_rational(rng) for _ in range(rng.randint(0, 4)))
                 for c in (1, 2)}
        inhoms = tuple(_wide_rational(rng) for _ in range(rng.randint(0, 4)))
        u = _wide_rational(rng)
        on = [z for zs in (*roots.values(), inhoms) for z in zs]
        if on and rng.random() < 0.3:
            u = rng.choice(on) - rng.choice(shifts)
        asg = Assignment.exact_point(u, roots, inhoms)
        cache: dict = {}
        for color in (1, 2, 3, None):
            zeros = inhoms if color is None else roots.get(color, ())
            for shift in shifts:
                want = poly_at(zeros, asg.u + shift, Fraction(1))
                got = _factor_value(asg, color, shift, cache)
                assert got == (want.numerator, want.denominator)
                zeros_seen += want == 0
    assert zeros_seen > 20


@pytest.mark.parametrize("name,mu", [("B(1|1)", (2, 1)), ("B(0|2)", (2, 2)),
                                     ("D(2|1)", (1, 1, 1)), ("D(2|1)", (3,))])
def test_pole_hits_on_the_integer_path_name_the_first_factor(name, mu):
    # points where a box denominator vanishes: evaluate and evaluate_term
    # name the first vanishing denominator factor in term and factor order,
    # and dvf_value the first in cell, label and factor order, as the
    # Fraction reference finds them
    ctx, shape = BoxContext(parse_spec(name)), SkewDiagram.straight(mu)
    boxes = [signed_box(ctx, lab, cell_shift(shape, i, j))
             for i, j in shape.cells() for lab in index_set(ctx.spec)]
    x = build_dvf(ctx, shape)
    dens = sorted({(c, sh) for t in boxes for c, sh, e in _ref_factors(t)
                   if e < 0})
    rng = Random(name)
    poles = 0
    for _ in range(40):
        roots = {c: tuple(_wide_rational(rng) for _ in range(rng.randint(1, 4)))
                 for c in range(1, ctx.spec.rank + 1)}
        inhoms = tuple(_wide_rational(rng) for _ in range(rng.randint(1, 4)))
        color, shift = rng.choice(dens)
        u = rng.choice(inhoms if color is None else roots[color]) - shift
        asg = Assignment.exact_point(u, roots, inhoms)
        pole = _ref_first_pole(boxes, asg)
        poles += pole is not None
        if pole is None:
            assert dvf_value(ctx, shape, asg, {}) == _ref_value(x.terms, asg)
        else:
            with pytest.raises(PoleHit) as hit:
                dvf_value(ctx, shape, asg, {})
            assert (hit.value.color, hit.value.shift) == pole
        for terms, value in ((x.terms, lambda c: evaluate(x, asg, c)),
                             (x.terms[:1],
                              lambda c: evaluate_term(x.terms[0], asg, c))):
            pole = _ref_first_pole(terms, asg)
            if pole is None:
                assert value({}) == _ref_value(terms, asg)
            else:
                with pytest.raises(PoleHit) as hit:
                    value({})
                assert (hit.value.color, hit.value.shift) == pole
    assert poles > 20


def test_one_cache_serves_every_exact_evaluator():
    # phi(u+1)^2 has the factor tuple (1, 2), which is also the base key of
    # Q_1(u+2); Q_2(u+1)^-1 has the tuple (2, 1, -1)
    b02 = parse_spec("B(0|2)")
    ctx = BoxContext(b02)
    x = SymSum.make([SymTerm.make(Fraction(3, 2), [(1, 2, 1), (2, 1, -1)],
                                  [(1, 2), (2, -1)]),
                     SymTerm.make(-1, [(1, 1, 2)], [(1, -1)])])
    y = column_dvf(ctx, 2)
    t = x.terms[0]
    shape = SkewDiagram.straight((2, 1))
    roots = {1: (Fraction(1, 2), -3), 2: (Fraction(5, 4),)}
    asg = Assignment.exact_point(Fraction(7, 3), roots, (Fraction(-2, 3), 4))
    calls = [lambda c: evaluate(x, asg, c),
             lambda c: evaluate(y, asg, c),
             lambda c: evaluate_term(t, asg, c),
             lambda c: dvf_value(ctx, shape, asg, c, 1),
             lambda c: normalized_rect_value(b02, 2, 1, asg, c)]
    fresh = [call({}) for call in calls]
    for order in (calls, calls[::-1]):
        cache: dict = {}
        got = [call(cache) for call in order]
        assert got == (fresh if order is calls else fresh[::-1])
    # the evaluator keeps at most one entry besides the base values
    for z in (x, y):
        cache = {}
        evaluate(z, asg, cache)
        bases = {(c, s) for term in z.terms
                 for c, s, _ in _ref_factors(term)}
        assert len(cache) <= len(bases) + 1


def _value_digest(x: SymSum) -> str:
    rng = Random(11)
    vals = [str(evaluate(x, random_assignment(rng, colors_of(x) or {1}, i,
                                              4 - i)))
            for i in range(5)]
    return hashlib.sha256("\n".join(vals).encode()).hexdigest()


# sha256 of the str of exact values at five seeded points (N_a = 0..4,
# N = 4..0), and the repr of one float value; recorded before the exact
# evaluator became one integer kernel
VALUE_SHA256 = {
    "B(2|1) (2,1)":
        "179bfab508ad7c794ba710c77e01ef7cb8c607797731e486215737b0a49a36d0",
    "B(1|1) T^3 at u-2":
        "8fab67e5282d36be6ece51f96bf70900dbcadaaf5cd3877e69d29312e4be70bf",
    "tsystem_g(2,1,2)":
        "0703404ab66834c8d79890a1b02a184dc758aa9e656f542f9ce89b3b704f56e0",
    "det B(1|1) (2,1) row":
        "6de49a483fe9f9fe7a6db3bbaa253de181bf748c6dde4e91a6b7a85b38594c91",
}
FLOAT_REPR = "(30488.10157390853-13724.151411874778j)"


def test_evaluate_is_byte_stable():
    b11 = parse_spec("B(1|1)")
    sums = {
        "B(2|1) (2,1)": build_dvf(BoxContext(parse_spec("B(2|1)")),
                                  SkewDiagram.straight((2, 1))),
        "B(1|1) T^3 at u-2": shift_u(column_dvf(BoxContext(b11), 3), -2),
        "tsystem_g(2,1,2)": tsystem_g(2, 1, 2),
        "det B(1|1) (2,1) row": det_formula(b11, SkewDiagram.straight((2, 1)),
                                            "row"),
    }
    assert {k: _value_digest(x) for k, x in sums.items()} == VALUE_SHA256
    y = column_dvf(BoxContext(parse_spec("B(0|2)")), 2)
    asg = Assignment.float_point(0.3 + 0.7j, {1: (0.25 - 1.5j, -2.1 + 0.4j),
                                              2: (1.3 + 0.2j,)},
                                 (0.6 - 0.9j, -1.2 + 0.1j))
    assert repr(evaluate(y, asg)) == FLOAT_REPR
