from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bethe_dvf.symbolic import (Assignment, PoleHit, SymSum, SymTerm, ZERO,
                                equal_as_rational_functions, evaluate,
                                exact_det, loads, dumps,
                                residue_at, shift_u, sum_from_json,
                                sum_to_json)


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
    assert shift_u(shift_u(x, Fraction(3, 2)), Fraction(-3, 2)) == x


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
    assert residue_at(x, 2, 0, 0, asg) == 0


def test_residue_single_factor():
    # Q1(u+1)/Q1(u), one root at 0: residue at u = 0 is Q1(1) = 1
    x = SymSum.from_term(SymTerm.make(1, [(1, 1, 1), (1, 0, -1)]))
    asg = Assignment.float_point(0, {1: (0j,)})
    assert abs(residue_at(x, 1, 0, 0, asg) - 1) < 1e-12


def test_residue_matches_numeric_limit():
    x = SymSum.make([SymTerm.make(2, [(1, 1, 1), (1, 0, -1)], [(2, 1)]),
                     SymTerm.make(-1, [(1, -1, 1), (1, 0, -1)])])
    roots = {1: (0.37 + 0.11j, -1.42j)}
    inhoms = (0.9, -0.8)
    asg = Assignment.float_point(0, roots, inhoms)
    for k in (0, 1):
        res = residue_at(x, 1, k, 0, asg)
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
        residue_at(x, 1, 0, 0, asg)


def test_residue_coincident_roots_raise():
    from bethe_dvf.symbolic import GenericityViolation
    x = SymSum.from_term(SymTerm.make(1, [(1, 0, -1)]))
    asg = Assignment.float_point(0, {1: (0.4, 0.4)})
    with pytest.raises(GenericityViolation):
        residue_at(x, 1, 0, 0, asg)
