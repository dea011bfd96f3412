from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest

from bethe_dvf.algebra import (AlgebraSpec, KacDynkinLabel,
                               NotFiniteDimensional, UnsupportedShape,
                               ZERO_LABEL, _level, _simple_root, bar,
                               bilinear_form, dimension_b0s, grading,
                               index_set, kac_dynkin_from_diagram,
                               parse_spec, root_degree, unb)
from bethe_dvf.dvf import BoxContext, box, crossing_transform
from bethe_dvf.symbolic import SymSum

from conftest import partitions_of


def order_relation(spec, x, y):
    # the label order as the tableau rules read it: a chain of levels, on
    # which only the D pair s+r, bar(s+r) shares a level
    lx, ly = _level(spec, x), _level(spec, y)
    if x == y:
        return "equal"
    if lx == ly:
        return "incomparable"
    return "less" if lx < ly else "greater"


def test_parse_spec_round_trip():
    for text in ("B(2|1)", "D(3|1)", "B(0|2)"):
        assert str(parse_spec(text)) == text


def test_parse_spec_rejects_invalid():
    with pytest.raises(ValueError):
        parse_spec("B(-1|0)")
    with pytest.raises(ValueError):
        parse_spec("D(1|1)")  # D needs r >= 2
    with pytest.raises(ValueError):
        parse_spec("E(1|1)")


def test_bilinear_odd_root_values():
    assert bilinear_form(parse_spec("B(2|1)"), 1, 1) == 0   # a_s, r,s >= 1
    assert bilinear_form(parse_spec("D(2|1)"), 1, 1) == 0
    assert bilinear_form(parse_spec("B(0|2)"), 2, 2) == -1  # a_s = delta_s
    assert bilinear_form(parse_spec("B(0|2)"), 1, 2) == 1


def test_bilinear_d_fork():
    spec = parse_spec("D(3|1)")
    # fork nodes both couple to eps_{r-1}
    assert bilinear_form(spec, 3, 3) == 2
    assert bilinear_form(spec, 4, 4) == 2
    assert bilinear_form(spec, 3, 4) == 0
    assert bilinear_form(spec, 2, 3) == -1
    assert bilinear_form(spec, 2, 4) == -1


def test_bilinear_symmetry():
    for family, r, s in [("B", 2, 1), ("B", 0, 3), ("B", 3, 5), ("D", 2, 2),
                         ("D", 4, 4), ("B", 4, 4), ("D", 5, 3)]:
        spec = AlgebraSpec(family, r, s)
        n = spec.rank
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                assert bilinear_form(spec, a, b) == bilinear_form(spec, b, a)


# the 128 algebras B(r|s) with s, r <= 8 and D(r|s) with 2 <= r <= 8
ROOT_DATA_SPECS = ([AlgebraSpec("B", r, s) for s in range(1, 9) for r in range(9)]
                   + [AlgebraSpec("D", r, s) for s in range(1, 9)
                      for r in range(2, 9)])


def test_root_data_is_pinned():
    # recorded before the simple roots and the grading were read off the
    # label weights: over ROOT_DATA_SPECS, the bilinear form, both
    # coefficient dicts of every simple root and the grading of every
    # label, in index-set order
    h = hashlib.sha256()
    for spec in ROOT_DATA_SPECS:
        nodes = range(1, spec.rank + 1)
        h.update(repr((str(spec),
                       [[bilinear_form(spec, a, b) for b in nodes]
                        for a in nodes],
                       [[sorted(d.items()) for d in _simple_root(spec, a)]
                        for a in nodes],
                       [grading(spec, x) for x in index_set(spec)])).encode())
    assert h.hexdigest() == (
        "aab13fe990b14a82e23c3ae70da96d04ed1d1f87aad7c9777f289b4852634eb4")


def test_root_degree_is_the_parity_of_the_delta_part():
    # the parity of the simple root's delta coefficients, which in the
    # distinguished root system marks alpha_s alone as odd
    for spec in ROOT_DATA_SPECS:
        nodes = range(1, spec.rank + 1)
        assert ([root_degree(spec, a) for a in nodes]
                == [sum(_simple_root(spec, a)[0].values()) % 2 for a in nodes]
                == [int(a == spec.s) for a in nodes])
        for a in (0, spec.rank + 1):
            with pytest.raises(ValueError):
                root_degree(spec, a)


def test_the_non_isotropic_odd_roots_are_pinned():
    # the odd simple roots with (alpha|alpha) != 0, whose Bethe equations
    # are of osp(1|2) type: alpha_s = delta_s of B(0|s), and no other
    found = [(str(spec), a, bilinear_form(spec, a, a))
             for spec in ROOT_DATA_SPECS for a in range(1, spec.rank + 1)
             if root_degree(spec, a) and bilinear_form(spec, a, a)]
    assert found == [(f"B(0|{s})", s, -1) for s in range(1, 9)]


def test_order_examples():
    b21 = parse_spec("B(2|1)")
    assert order_relation(b21, ZERO_LABEL, bar(3)) == "less"
    assert order_relation(b21, unb(3), ZERO_LABEL) == "less"
    d21 = parse_spec("D(2|1)")
    assert order_relation(d21, unb(3), bar(3)) == "incomparable"
    assert order_relation(d21, bar(3), unb(3)) == "incomparable"
    assert order_relation(d21, unb(2), bar(3)) == "less"
    for spec in (b21, d21):
        for lab in index_set(spec):
            assert order_relation(spec, lab, lab) == "equal"


def test_order_is_partial_order():
    for family, r, s in [("B", 2, 1), ("B", 0, 3), ("B", 2, 3), ("D", 2, 1),
                         ("D", 2, 4), ("D", 3, 3)]:
        spec = AlgebraSpec(family, r, s)
        labels = index_set(spec)
        rel = {(x, y): order_relation(spec, x, y)
               for x in labels for y in labels}
        for x in labels:
            for y in labels:
                r_xy, r_yx = rel[(x, y)], rel[(y, x)]
                if r_xy == "less":
                    assert r_yx == "greater"
                if r_xy == "equal":
                    assert x == y
                for z in labels:
                    if r_xy == "less" and rel[(y, z)] == "less":
                        assert rel[(x, z)] == "less"


def test_b_order_is_total():
    spec = parse_spec("B(2|2)")
    labels = index_set(spec)
    assert all(order_relation(spec, x, y) != "incomparable"
               for x in labels for y in labels)


def test_grading():
    b21 = parse_spec("B(2|1)")
    assert grading(b21, unb(1)) == 1
    assert grading(b21, ZERO_LABEL) == 0
    assert grading(b21, unb(2)) == 0
    assert grading(parse_spec("D(2|1)"), bar(2)) == 0
    assert grading(parse_spec("D(2|2)"), bar(2)) == 1


def test_grading_bar_invariant():
    for name in ("B(2|1)", "B(0|3)", "D(3|2)"):
        spec = parse_spec(name)
        for v in range(1, spec.rank + 1):
            assert grading(spec, unb(v)) == grading(spec, bar(v))


def test_bar_image():
    # the bar involution as the boxes carry it: the crossing maps [a] to
    # [bar a] and back, and fixes [0]
    for name, labels in (("B(2|1)", (unb(2), bar(2), ZERO_LABEL)),
                         ("D(2|1)", (unb(3), bar(3), unb(1)))):
        spec = parse_spec(name)
        ctx = BoxContext(spec)
        for lab in labels:
            if lab == ZERO_LABEL:
                image = lab
            elif lab.kind == "unbarred":
                image = bar(lab.value)
            else:
                image = unb(lab.value)
            crossed = crossing_transform(spec, SymSum.from_term(box(ctx, lab)))
            assert crossed == SymSum.from_term(box(ctx, image))


def test_kac_dynkin_b_fundamental():
    label = kac_dynkin_from_diagram(parse_spec("B(2|1)"), (1,))
    assert label.b == (1, 0, 0)


def test_kac_dynkin_b0s_square():
    label = kac_dynkin_from_diagram(parse_spec("B(0|2)"), (2, 2))
    assert label.b == (0, 4)


def test_kac_dynkin_d_row_r2():
    # single row longer than s for r = 2 spreads over the fork
    spec = parse_spec("D(2|1)")
    label = kac_dynkin_from_diagram(spec, (4,))
    m, s = 4, 1
    assert label.b == (m - s + 1, m - s, m - s)


def test_kac_dynkin_d_row_r3():
    spec = parse_spec("D(3|1)")
    label = kac_dynkin_from_diagram(spec, (3,))
    assert label.b == (3, 2, 0, 0)


def test_kac_dynkin_d_column():
    spec = parse_spec("D(2|1)")
    label = kac_dynkin_from_diagram(spec, (1, 1, 1))
    assert label.b == (3, 0, 0)


def test_kac_dynkin_d_general_shape_refused():
    with pytest.raises(UnsupportedShape):
        kac_dynkin_from_diagram(parse_spec("D(2|1)"), (2, 1))


def test_kac_dynkin_b_overdeep_refused():
    # B(1|1): mu_2 must stay <= s = 1
    with pytest.raises(UnsupportedShape):
        kac_dynkin_from_diagram(parse_spec("B(1|1)"), (2, 2))


@pytest.mark.parametrize("mu", [(2, -1), (1, 0, 1)],
                         ids=["negative-part", "zero-row"])
def test_kac_dynkin_malformed_diagram_refused(mu):
    # a negative part or a zero row inside the diagram is not a partition
    with pytest.raises(ValueError):
        kac_dynkin_from_diagram(parse_spec("B(0|2)"), mu)


def test_kac_dynkin_labels_are_pinned():
    # every label and refusal text over 36 algebras and the 67 partitions
    # with at most 8 cells, pinned before the per-family formulas became one
    # rule on the top weight (1,408 labels, 1,004 refusals)
    specs = ([AlgebraSpec("B", r, s) for s in range(1, 5) for r in range(5)]
             + [AlgebraSpec("D", r, s) for s in range(1, 5)
                for r in range(2, 6)])
    entries = []
    for spec in specs:
        for mu in (mu for n in range(9) for mu in partitions_of(n)):
            try:
                entries.append((str(spec), mu,
                                kac_dynkin_from_diagram(spec, mu).b))
            except UnsupportedShape as exc:
                entries.append((str(spec), mu, f"UnsupportedShape: {exc}"))
    assert hashlib.sha256(repr(entries).encode()).hexdigest() == (
        "a4c62f8e1beed230bc3a0f76a9f155d0d30e5994317fa214ebe5c7482964a63f")


TABLE_DIMS = {(0, 0): 1, (1, 0): 5, (2, 0): 14, (3, 0): 30,
              (0, 2): 10, (0, 4): 35, (0, 6): 84, (2, 2): 81}


def test_dimension_table():
    for label, want in TABLE_DIMS.items():
        got = dimension_b0s(2, KacDynkinLabel(tuple(Fraction(x) for x in label)))
        assert got == want, label


def test_dimension_rejects_bad_labels():
    with pytest.raises(NotFiniteDimensional):
        dimension_b0s(2, KacDynkinLabel((Fraction(1), Fraction(1))))  # odd tail
    with pytest.raises(NotFiniteDimensional):
        dimension_b0s(2, KacDynkinLabel((Fraction(-1), Fraction(0))))
    with pytest.raises(NotFiniteDimensional):
        dimension_b0s(2, KacDynkinLabel((Fraction(5, 2), Fraction(0))))


def test_dimension_fundamental_is_2s_plus_1():
    # the vector module: label [1,0,...,0] for s >= 2, [2] for s = 1
    assert dimension_b0s(1, KacDynkinLabel((Fraction(2),))) == 3
    for s in (2, 3, 4):
        label = KacDynkinLabel(tuple(Fraction(1 if j == 0 else 0)
                                     for j in range(s)))
        assert dimension_b0s(s, label) == 2 * s + 1
