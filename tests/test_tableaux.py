from __future__ import annotations

import hashlib
from fractions import Fraction
from itertools import islice, product
from math import prod
from random import Random

import pytest
from hypothesis import given, strategies as st

from bethe_dvf.algebra import (AlgebraSpec, UnsupportedShape, ZERO_LABEL, bar,
                               index_set, kac_dynkin_from_diagram, parse_spec,
                               unb)
from bethe_dvf.tableaux import (Partition, SkewDiagram, Tableau, _row_ok,
                                _successors, _transfer_plan, conjugate,
                                count_tableaux, enumerate_tableaux,
                                is_admissible, iter_fillings, transfer_sum)


def test_conjugate_examples():
    assert conjugate(Partition.make((3, 1))).parts == (2, 1, 1)
    assert conjugate(Partition.make(())).parts == ()


@given(st.lists(st.integers(0, 6), max_size=6))
def test_conjugate_involution(parts):
    p = Partition.make(tuple(sorted(parts, reverse=True)))
    assert conjugate(conjugate(p)) == p


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition.make((1, 2))
    with pytest.raises(ValueError):
        Partition.make((2, -1))
    assert Partition.make((3, 2, 0, 0)).parts == (3, 2)


def test_partition_rejects_non_integral_parts():
    for part in (2.7, Fraction(5, 2)):
        with pytest.raises(ValueError):
            Partition.make((part, 1))
    # an integral part of another type keeps its value, as int parts do
    assert Partition.make((2.0, Fraction(1))).parts == (2, 1)
    with pytest.raises(ValueError):
        kac_dynkin_from_diagram(parse_spec("B(2|1)"), (1.9,))


def test_partition_iterates_its_parts():
    p = Partition.make((2, 1))
    # islice first: an endless iterator fails here instead of hanging below
    assert list(islice(iter(p), len(p) + 2)) == list(p.parts)
    assert Partition.make(p) == p
    spec = parse_spec("B(2|1)")
    assert kac_dynkin_from_diagram(spec, p) == kac_dynkin_from_diagram(spec, p.parts)


def test_skew_containment():
    with pytest.raises(ValueError):
        SkewDiagram.make((2,), (1,))
    sd = SkewDiagram.make((1,), (3, 1))
    assert sd.cells() == [(1, 2), (1, 3), (2, 1)]


def _tab(spec, mu, labels, lam=()):
    shape = SkewDiagram.make(lam, mu)
    return Tableau(shape, tuple((i, j, lab)
                                for (i, j), lab in zip(shape.cells(), labels)))


def test_b_column_weak_repeat_allowed():
    # inner labels repeat down a column (strictness binds J_+ \ {0} only)
    spec = parse_spec("B(0|2)")
    assert is_admissible(spec, _tab(spec, (1, 1), [unb(1), unb(1)]))


def test_b_row_strict_for_inner_and_zero():
    spec = parse_spec("B(0|2)")
    assert not is_admissible(spec, _tab(spec, (2,), [ZERO_LABEL, ZERO_LABEL]))
    assert not is_admissible(spec, _tab(spec, (2,), [unb(1), unb(1)]))
    assert is_admissible(spec, _tab(spec, (2,), [unb(1), unb(2)]))


def test_b_zero_repeats_down_columns():
    spec = parse_spec("B(2|1)")
    assert is_admissible(spec, _tab(spec, (1, 1), [ZERO_LABEL, ZERO_LABEL]))
    assert not is_admissible(spec, _tab(spec, (1, 1), [unb(2), unb(2)]))


def test_d_column_incomparable_pair_allowed():
    spec = parse_spec("D(2|1)")
    assert is_admissible(spec, _tab(spec, (1, 1), [bar(3), unb(3)]))
    assert is_admissible(spec, _tab(spec, (1, 1), [unb(3), bar(3)]))
    assert not is_admissible(spec, _tab(spec, (1, 1), [unb(3), unb(3)]))
    # unbounded alternation
    alt = [unb(3), bar(3), unb(3), bar(3)]
    assert is_admissible(spec, _tab(spec, (1, 1, 1, 1), alt))


def test_d_row_excludes_extreme_pair():
    spec = parse_spec("D(2|1)")
    assert not is_admissible(spec, _tab(spec, (2,), [unb(3), bar(3)]))
    assert is_admissible(spec, _tab(spec, (2,), [unb(3), unb(3)]))
    assert is_admissible(spec, _tab(spec, (2,), [unb(2), bar(3)]))
    # non-adjacent co-occurrence is equally banned
    assert not is_admissible(spec, _tab(spec, (3,), [unb(3), unb(3), bar(3)]))


def test_a_cell_filled_twice_is_refused():
    # cell (1, 2) holds two labels; a dict of cells would check only the last
    t = Tableau.from_json({"shape": {"lambda": [], "mu": [2]},
                           "cells": [[1, 1, "1"], [1, 2, "2"], [1, 2, "1b"]]})
    with pytest.raises(ValueError, match="exactly once"):
        is_admissible(parse_spec("B(1|1)"), t)


def test_d_general_skew_refused():
    spec = parse_spec("D(2|1)")
    with pytest.raises(UnsupportedShape):
        count_tableaux(spec, SkewDiagram.straight((2, 1)))
    with pytest.raises(UnsupportedShape):
        list(enumerate_tableaux(spec, SkewDiagram.straight((2, 2))))


def brute_force_count(spec, shape) -> int:
    labels = list(__import__("bethe_dvf.algebra", fromlist=["x"]).index_set(spec))
    cells = shape.cells()
    count = 0
    for combo in product(labels, repeat=len(cells)):
        t = Tableau(shape, tuple((i, j, lab)
                                 for (i, j), lab in zip(cells, combo)))
        if is_admissible(spec, t):
            count += 1
    return count


@pytest.mark.parametrize("name,mu,lam", [
    ("B(1|1)", (2, 1), ()), ("B(1|1)", (2, 2), ()), ("B(1|1)", (3, 1), (1,)),
    ("B(0|2)", (2, 2), ()), ("B(2|1)", (2, 1), ()), ("B(2|1)", (2, 2), (1,)),
    ("D(2|1)", (1, 1, 1), ()), ("D(2|2)", (3,), ()),
    ("D(3|2)", (1, 1), ()), ("D(3|2)", (2,), ()),
    ("D(4|1)", (1, 1, 1), ()), ("D(4|1)", (3,), ()),
])
def test_enumeration_matches_brute_force(name, mu, lam):
    spec = parse_spec(name)
    shape = SkewDiagram.make(lam, mu)
    tabs = list(enumerate_tableaux(spec, shape))
    assert all(is_admissible(spec, t) for t in tabs)
    assert len(set(t.entries for t in tabs)) == len(tabs)
    assert len(tabs) == brute_force_count(spec, shape)
    assert count_tableaux(spec, shape) == len(tabs)


def test_table_counts_b02():
    spec = parse_spec("B(0|2)")
    for m, want in zip((1, 2, 3, 4), (5, 15, 35, 70)):
        assert count_tableaux(spec, SkewDiagram.straight((1,) * m)) == want
    for m, want in zip((1, 2, 3, 4), (10, 50, 175, 490)):
        assert count_tableaux(spec, SkewDiagram.straight((2,) * m)) == want


def test_remark_counts():
    assert count_tableaux(parse_spec("B(2|1)"),
                          SkewDiagram.straight((1,))) == 7
    assert count_tableaux(parse_spec("D(3|1)"),
                          SkewDiagram.straight((1, 1))) == 31
    assert count_tableaux(parse_spec("D(2|2)"),
                          SkewDiagram.straight((1, 1))) == 33


def test_vanishing_rectangles():
    # any diagram holding a (2r+1) x (2s+2) rectangle has no fillings
    b11 = parse_spec("B(1|1)")
    for mu in [(4, 4, 4), (5, 4, 4), (4, 4, 4, 1)]:
        assert count_tableaux(b11, SkewDiagram.straight(mu)) == 0
    assert count_tableaux(b11, SkewDiagram.straight((4, 4))) > 0
    assert count_tableaux(b11, SkewDiagram.straight((3, 3, 3))) > 0


def test_tableau_json_round_trip():
    spec = parse_spec("B(2|1)")
    shape = SkewDiagram.straight((2, 1))
    for t in enumerate_tableaux(spec, shape):
        assert Tableau.from_json(t.to_json()) == t
        break


def test_enumeration_deterministic():
    spec = parse_spec("D(2|1)")
    shape = SkewDiagram.straight((1, 1))
    a = [t.entries for t in enumerate_tableaux(spec, shape)]
    b = [t.entries for t in enumerate_tableaux(spec, shape)]
    assert a == b


STRAIGHT_UP_TO_5 = [(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1), (4,), (3, 1),
                    (2, 2), (2, 1, 1), (1, 1, 1, 1), (5,), (4, 1), (3, 2),
                    (3, 1, 1), (2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)]
B_SHAPES = ([((), mu) for mu in STRAIGHT_UP_TO_5]
            + [((1,), (3, 2)), ((2, 1), (3, 3, 1))])
D_SHAPES = ([((), (1,) * n) for n in range(1, 5)]
            + [((), (n,)) for n in range(2, 5)])


# sha256 of the fillings of every shape, in enumeration order (demo 01 prints
# tableaux in this order), recorded before B and D shared one walker
ORDER_SHA = {
    "B(1|1)": "b376a01d71d2ce00ad77685b102c783a053c0a39296c555ba63a53ae82d1a294",
    "B(2|1)": "41a0aaf903d6f4fa88a6fbe1b3913461ed9b4f88b8ce55534538f5e39507cc69",
    "D(2|1)": "8cf1da343544c9cfd8a02027f2e98fe5b9224f989af44bb7b4b653ea0c290bee",
    "D(3|1)": "ac1321d5628dac7b355e906454b80e3aa5e97a1ac87e63699fb0483913ebc936",
    "D(2|2)": "24906f595f239c5c761c131872bc6a6d5b3e05b44e67cc9e6adbf4ac0ba17827",
}


@pytest.mark.parametrize("name", list(ORDER_SHA))
def test_enumeration_order_is_pinned(name):
    spec = parse_spec(name)
    shapes = B_SHAPES if spec.family == "B" else D_SHAPES
    fills = [list(iter_fillings(spec, SkewDiagram.make(lam, mu)))
             for lam, mu in shapes]
    assert hashlib.sha256(repr(fills).encode()).hexdigest() == ORDER_SHA[name]


# sha256 of the successor tables of 63 algebras: B(r|s) with s <= 7 and
# r + s <= 8, then D(r|s) with s <= 7 and r + s <= 9, each grouped by s then
# r; recorded while B and D still had separate rule predicates
SUCCESSORS_SHA = "f0100fe3c5c5266b8cd982cc085f2998a1712c0ca04f29d136f896304ba30b6c"


def test_successor_tables_are_pinned():
    specs = ([AlgebraSpec("B", r, s) for s in range(1, 8) for r in range(9 - s)]
             + [AlgebraSpec("D", r, s) for s in range(1, 8)
                for r in range(2, 10 - s)])
    assert len(specs) == 63
    tables = repr([_successors(spec) for spec in specs])
    assert hashlib.sha256(tables.encode()).hexdigest() == SUCCESSORS_SHA


@pytest.mark.parametrize("name", list(ORDER_SHA))
def test_count_is_the_number_of_fillings(name):
    # count_tableaux sums unit weights by transfer matrix; the pinned
    # enumeration visits every filling
    spec = parse_spec(name)
    for lam, mu in B_SHAPES if spec.family == "B" else D_SHAPES:
        shape = SkewDiagram.make(lam, mu)
        assert count_tableaux(spec, shape) == sum(
            1 for _ in iter_fillings(spec, shape))


@pytest.mark.parametrize("name", ["D(2|1)", "D(3|1)", "D(2|2)"])
def test_d_row_local_rule_implies_non_local(name):
    # rows whose neighbours all pass _row_ok never hold s+r and bar(s+r)
    spec = parse_spec(name)
    extreme = {unb(spec.rank), bar(spec.rank)}
    rows = [[lab] for lab in index_set(spec)]
    for _ in range(4):
        rows = [row + [lab] for row in rows for lab in index_set(spec)
                if _row_ok(spec, row[-1], lab)]
        assert rows and not any(extreme <= set(row) for row in rows)


@pytest.mark.parametrize("name,lam,mu", [
    ("B(1|1)", (), (3, 2, 1)), ("B(1|1)", (), (4, 4, 4)),
    ("B(2|1)", (), (2, 2, 2)), ("B(2|1)", (2, 1), (3, 3, 1)),
    ("B(0|2)", (1,), (3, 2)), ("B(0|2)", (), ()),
    ("D(2|1)", (), (1,) * 5), ("D(3|1)", (), (4,)), ("D(2|2)", (), (5,)),
])
def test_transfer_sum_is_the_sum_over_fillings(name, lam, mu):
    spec = parse_spec(name)
    shape = SkewDiagram.make(lam, mu)
    rng = Random(name)
    weights = [[rng.randint(-9, 9) for _ in index_set(spec)]
               for _ in shape.cells()]
    want = sum(prod(weights[k][v] for k, v in enumerate(fill))
               for fill in iter_fillings(spec, shape))
    assert transfer_sum(spec, shape, weights) == want


@pytest.mark.parametrize("kind", ["sparse", "fraction"])
@pytest.mark.parametrize("name,lam,mu", [
    ("B(1|1)", (), (3, 2, 1)), ("B(2|1)", (), (2, 2, 2)),
    ("B(2|1)", (2, 1), (3, 3, 1)), ("B(0|2)", (1,), (3, 2)),
    ("D(2|1)", (), (1,) * 5), ("D(3|1)", (), (4,)),
])
def test_transfer_sum_weight_kinds(kind, name, lam, mu):
    # mostly-zero weights: the plan keeps the states that zero weights would
    # prune, at value 0; Fraction weights give the exact Fraction sum
    spec = parse_spec(name)
    shape = SkewDiagram.make(lam, mu)
    rng = Random(f"{kind} {name}")
    if kind == "sparse":
        draw = lambda: rng.randint(-9, 9) if rng.random() < 0.2 else 0
    else:
        draw = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    for _ in range(4):
        weights = [[draw() for _ in index_set(spec)] for _ in shape.cells()]
        want = sum(prod(weights[k][v] for k, v in enumerate(fill))
                   for fill in iter_fillings(spec, shape))
        assert transfer_sum(spec, shape, weights) == want
    zeros = [[0] * len(index_set(spec)) for _ in shape.cells()]
    assert transfer_sum(spec, shape, zeros) == 0


def test_transfer_sum_of_the_empty_shape_is_one():
    for name in ("B(1|1)", "D(2|1)"):
        empty = SkewDiagram.straight(())
        assert transfer_sum(parse_spec(name), empty, []) == 1
        assert count_tableaux(parse_spec(name), empty) == 1


def test_transfer_sum_refuses_d_skew_shapes():
    spec, shape = parse_spec("D(2|1)"), SkewDiagram.straight((2, 1))
    before = _transfer_plan.cache_info().currsize
    with pytest.raises(UnsupportedShape):
        transfer_sum(spec, shape, [[1] * len(index_set(spec))] * 3)
    # the refusal leaves no plan behind
    assert _transfer_plan.cache_info().currsize == before
