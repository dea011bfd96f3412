from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from random import Random

import pytest

from bethe_dvf.algebra import AlgebraSpec, UnsupportedShape, parse_spec
from bethe_dvf.dvf import (BoxContext, build_dvf, column_dvf, dvf_value,
                           normalized_rect_dvf, rect_value, row_dvf)
from bethe_dvf import relations, symbolic
from bethe_dvf.relations import (_block_matrix, check_det_vs_tableaux, check_duality,
                                 check_duality_suite, check_hirota,
                                 check_t_system, check_term_count_conjecture,
                                 det_formula, term_count_prediction,
                                 tsystem_block, verify_const, verify_modi,
                                 verify_modi1)
from bethe_dvf.symbolic import (ONE, ONE_TERM, ZERO, SymSum, SymTerm,
                                equal_group_sums, exact_det,
                                sample_max_deviation, shift_u, sum_to_json)
from bethe_dvf.tableaux import SkewDiagram, _transfer_plan

from conftest import partitions_up_to


def test_det_1x1_is_direct():
    spec = parse_spec("B(1|1)")
    sd = SkewDiagram.straight((1,))
    assert det_formula(spec, sd, "column") == column_dvf(BoxContext(spec), 1)
    assert det_formula(spec, sd, "row") == row_dvf(BoxContext(spec), 1)


def test_det_symbolic_equals_tableaux_small():
    # full cancellation reproduces the tableaux sum termwise
    for name in ("B(1|1)", "B(2|1)"):
        spec = parse_spec(name)
        for mu in [(2,), (1, 1), (2, 1), (2, 2)]:
            sd = SkewDiagram.straight(mu)
            direct = build_dvf(BoxContext(spec), sd)
            assert det_formula(spec, sd, "column") == direct, (name, mu, "col")
            assert det_formula(spec, sd, "row") == direct, (name, mu, "row")


def test_det_skew_shapes():
    spec = parse_spec("B(1|1)")
    for lam, mu in [((1,), (2, 1)), ((1,), (3, 2)), ((2, 1), (3, 2))]:
        sd = SkewDiagram.make(lam, mu)
        for variant in ("column", "row"):
            rep = check_det_vs_tableaux(spec, sd, variant, trials=8, seed=3)
            assert rep.passed, (lam, mu, variant)


def test_det_check_compiles_each_shape_once():
    # a deterministic work count: the 20 sample points of the check value
    # 7 shapes, (3,2,1) and the columns of heights 0..5 that its entries
    # T^n hold, and each transfer matrix is compiled once, not per point
    _transfer_plan.cache_clear()
    rep = check_det_vs_tableaux(parse_spec("B(2|1)"),
                                SkewDiagram.straight((3, 2, 1)), "column",
                                trials=20, seed=0)
    assert rep.passed
    assert _transfer_plan.cache_info().misses == 7


def test_canonicalisations_scale_with_the_boxes(monkeypatch):
    # a deterministic work count: from cold block caches, building B(2|1)
    # (3,2,1) canonicalises each label's box once, at shift 0 (7 labels, a
    # Q and a phi tuple each), and its column det_formula adds the boxes of
    # the columns T^1..T^5, 7 per column; shifts, term products and packed
    # cofactor products canonicalise nothing, so the count grows neither with
    # the cells, nor with the 2352 tableaux, nor with the cofactor products
    calls = []
    canon = symbolic._canon
    monkeypatch.setattr(symbolic, "_canon",
                        lambda *args: calls.append(args[1]) or canon(*args))
    column_dvf.cache_clear()
    row_dvf.cache_clear()
    spec, sd = parse_spec("B(2|1)"), SkewDiagram.straight((3, 2, 1))
    direct = build_dvf(BoxContext(spec), sd)
    assert len(direct) == 2352
    assert len(calls) == 2 * 7
    assert det_formula(spec, sd, "column") == direct
    assert len(calls) == 2 * 42
    assert calls.count(3) == calls.count(2) == 42


def test_determinants_multiply_no_terms(monkeypatch):
    # a work-count gate: with its blocks built, a determinant expansion adds
    # packed codes and never reaches the term product or the factor merge
    cases = [(parse_spec("B(1|1)"), SkewDiagram.straight((3, 2, 2)), variant)
             for variant in ("column", "row")]
    cases.append((parse_spec("D(2|1)"), SkewDiagram.straight((3,)), "column"))
    for case in cases:
        det_formula(*case)          # builds the cached blocks
    calls = []
    for owner, name in ((symbolic.SymTerm, "__mul__"), (symbolic, "_merge")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, _real=real, _name=name:
                            calls.append(_name) or _real(*args))
    for case in cases:
        det_formula(*case)
    assert calls == []
    symbolic.ONE_TERM * symbolic.ONE_TERM     # the spies are live
    assert calls == ["__mul__", "_merge", "_merge"]


def test_t_system_builds_each_block_matrix_once(monkeypatch):
    # 8 blocks (a, m): (1, 0..4) and (0, 1..3) over 3 levels and 8 points
    built = []
    det = relations.det_matrix
    monkeypatch.setattr(relations, "det_matrix",
                        lambda *args: built.append(args) or det(*args))
    _block_matrix.cache_clear()
    assert check_t_system(1, 3, trials=8, seed=0).passed
    assert len(built) == _block_matrix.cache_info().misses == 8
    matrix = _block_matrix(1, 1, 2)
    assert matrix == (((1, 1), (0, 0)), ((2, 0), (1, -1)))
    assert isinstance(matrix, tuple) and all(type(r) is tuple for r in matrix)


def test_det_constrained_rectangle_vanishes_exactly():
    spec = parse_spec("B(1|1)")
    sd = SkewDiagram.straight((4, 4, 4))
    assert det_formula(spec, sd, "row").is_zero()


@pytest.mark.parametrize("name,mu,variant,error", [
    ("B(1|1)", (2,), "d_row", ValueError),
    ("D(2|1)", (2, 1), "column", UnsupportedShape),
    ("D(2|1)", (2, 1), "row", UnsupportedShape),
    ("D(2|1)", (1, 1), "d_row", ValueError),
    ("B(1|1)", (2,), "diagonal", ValueError),
])
def test_det_refusals(name, mu, variant, error):
    spec, sd = parse_spec(name), SkewDiagram.straight(mu)
    with pytest.raises(error):
        det_formula(spec, sd, variant)
    with pytest.raises(error):
        check_det_vs_tableaux(spec, sd, variant, trials=1)


B11 = parse_spec("B(1|1)")


@pytest.mark.parametrize("check", [
    lambda: check_det_vs_tableaux(B11, SkewDiagram.straight((2, 1)), "column",
                                  trials=0),
    lambda: equal_group_sums([[ONE]], [[ZERO]], trials=0),
    lambda: check_hirota(B11, 1, 1, trials=0),
    lambda: check_t_system(1, 1, trials=0),
    lambda: check_t_system(1, 0),
], ids=["determinant", "group-sums", "hirota", "tsystem", "tsystem-depth-0"])
def test_zero_trials_refused(check):
    # a randomized-exact check with no sample point must not pass
    with pytest.raises(ValueError):
        check()


# sha256 of json.dumps(report.to_json(), sort_keys=True) for small sampled
# checks: the sampled points and deviations are reproducible byte for byte
@pytest.mark.parametrize("check,digest", [
    (lambda: check_det_vs_tableaux(B11, SkewDiagram.straight((2, 1)), "row",
                                   trials=3, seed=42),
     "fcd7578179107c89c539e20868e62628c51b8be62ebe8c0b36b472af28df78e5"),
    (lambda: check_det_vs_tableaux(parse_spec("B(2|1)"),
                                   SkewDiagram.make((1,), (2, 2)), "column",
                                   trials=3, seed=42),
     "c07518e9d60d090ef9186dbcac41c5772da675e1032a71e05f53a79595444a0d"),
    (lambda: check_hirota(B11, 1, 2, trials=3, seed=42),
     "1a5e59e9fbd7beacadd9eec2da5405dada2d14cb2d949455aadb066805d12262"),
    (lambda: check_t_system(1, 1, trials=2, seed=42),
     "1e3038871e0f4cc3cc66665200f4f02691f2f6455d9487ba1458cb3d5d9203cb"),
], ids=["determinant-row", "determinant-skew-column", "hirota", "tsystem"])
def test_sampled_report_is_byte_stable(check, digest):
    text = json.dumps(check().to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_d_row_determinant_m2():
    spec = parse_spec("D(2|1)")
    ctx = BoxContext(spec)
    sd = SkewDiagram.straight((2,))
    det = det_formula(spec, sd, "column")
    assert det == build_dvf(ctx, sd)


D_UP_TO_5 = ["D(2|1)", "D(3|1)", "D(4|1)", "D(2|2)", "D(3|2)", "D(2|3)"]


@pytest.mark.parametrize("name", D_UP_TO_5)
def test_d_lines_through_the_shared_matrices(name):
    # a D row (m) over the T^n and a D column (1^a) over the T_n
    spec = parse_spec(name)
    for n in range(1, 7):
        for mu, variant in (((n,), "column"), ((1,) * n, "row")):
            rep = check_det_vs_tableaux(spec, SkewDiagram.straight(mu),
                                        variant, trials=3, seed=n)
            assert rep.passed and rep.samples == 3, (mu, variant)


@pytest.mark.parametrize("name", D_UP_TO_5)
def test_a_swapped_entry_breaks_the_d_column(name):
    # negative control: the first entry T_k with k >= 2 of the row matrix of
    # (1^a) becomes T^k; the top-left T_1 = T^1 would control nothing
    spec = parse_spec(name)
    ctx = BoxContext(spec)
    for a in range(2, 7):
        shape = SkewDiagram.straight((1,) * a)
        matrix = relations.det_matrix(spec, shape, "row")
        swap = next((i, j) for i, row in enumerate(matrix)
                    for j, (n, _) in enumerate(row) if n >= 2)

        def swapped_minus_direct(asg):
            det = exact_det([[rect_value(ctx, *((1, n) if (i, j) == swap
                                                else (n, 1)), asg, sh)
                              for j, (n, sh) in enumerate(row)]
                             for i, row in enumerate(matrix)])
            return det - dvf_value(ctx, shape, asg)

        worst, _ = sample_max_deviation(
            swapped_minus_direct, set(range(1, spec.rank + 1)), 3, a)
        assert worst != 0, a


def test_hirota_b01_base():
    rep = check_hirota(parse_spec("B(0|1)"), 1, 1, trials=6, seed=2)
    assert rep.passed


@pytest.mark.parametrize("a,m", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)])
def test_hirota_b11(a, m):
    rep = check_hirota(parse_spec("B(1|1)"), a, m, trials=6, seed=2)
    assert rep.passed


def test_hirota_constrained_case_vanishes():
    # both sides collapse once the rectangles hit the vanishing constraint
    spec = parse_spec("B(1|1)")
    ctx = BoxContext(spec)
    from bethe_dvf.dvf import rect_dvf
    assert rect_dvf(ctx, 4, 3).is_zero()
    assert rect_dvf(ctx, 5, 3).is_zero()
    rep = check_hirota(spec, 3, 4, trials=4, seed=2)
    assert rep.passed


def test_duality_helpers_exact():
    for s in (1, 2, 3):
        assert verify_const(s)
        for a in range(1, s + 2):
            assert verify_modi1(s, a)
            assert verify_modi(s, a)


def test_short_constant_row_is_not_one(monkeypatch):
    # negative control: the constant row without its last label (1bar)
    # multiplies out to something other than 1, for s <= 6; a shifted start
    # would be no control, as the full row is 1 at every shift
    assert all(verify_const(s) for s in range(1, 7))
    line = relations._dress_line
    monkeypatch.setattr(relations, "_dress_line",
                        lambda s, labels, start: line(s, labels[:-1], start))
    assert not any(verify_const(s) for s in range(1, 7))


@pytest.mark.parametrize("check", [verify_modi1, verify_modi])
def test_late_product_line_breaks_the_helper(monkeypatch, check):
    # negative control: each helper reads its single box, its product line
    # and its right side, in that order; the product line started 2 later
    # makes the identity false for every s <= 6 and a <= s+1 (27 cases each)
    cases = [(s, a) for s in range(1, 7) for a in range(1, s + 2)]
    assert all(check(s, a) for s, a in cases)
    line = relations._dress_line
    failures = 0
    for s, a in cases:
        calls = iter(range(3))
        monkeypatch.setattr(
            relations, "_dress_line", lambda s_, labels, start: line(
                s_, labels, start + (2 if next(calls) == 1 else 0)))
        failures += not check(s, a)
    assert failures == len(cases) == 27


@pytest.mark.parametrize("s", [1, 2])
def test_duality_all_levels(s):
    for a in (1, 2):
        for m in range(0, 2 * s + 2):
            rep = check_duality(s, a, m, trials=6, seed=4)
            assert rep.passed, (s, a, m)


def test_duality_suite_report():
    rep = check_duality_suite(1, trials=4, seed=0)
    assert rep.passed


def test_dress_duality_is_termwise():
    # with trivial vacuum parts the two sums literally coincide
    for s in (1, 2):
        spec = parse_spec(f"B(0|{s})")
        ctx = BoxContext(spec, include_vacuum=False)
        for m in range(0, 2 * s + 2):
            assert row_dvf(ctx, m) == row_dvf(ctx, 2 * s - m + 1)


def _plain_det(matrix: list[list[SymSum]]) -> SymSum:
    # the plain reference: cofactor expansion along the first row on
    # SymSum products, no memo and no packed codes
    if not matrix:
        return ONE
    total = ZERO
    for j, entry in enumerate(matrix[0]):
        if not entry.is_zero():
            piece = entry * _plain_det([row[:j] + row[j + 1:]
                                        for row in matrix[1:]])
            total = total + (-piece if j % 2 else piece)
    return total


def _plain_formula(spec, shape, variant) -> SymSum:
    ctx = BoxContext(spec)
    block = row_dvf if variant == "row" else column_dvf
    return _plain_det([[shift_u(block(ctx, n), sh) for n, sh in row]
                       for row in relations.det_matrix(spec, shape, variant)])


@pytest.mark.parametrize("name", ["B(1|1)", "B(2|1)"])
def test_packed_det_matches_plain_cofactors(name):
    # straight shapes up to 4 cells and a skew shape, column and row
    spec = parse_spec(name)
    shapes = [SkewDiagram.straight(mu) for mu in partitions_up_to(4)]
    shapes.append(SkewDiagram.make((2, 1), (3, 3, 1)))
    for shape in shapes:
        for variant in ("column", "row"):
            assert det_formula(spec, shape, variant) == _plain_formula(
                spec, shape, variant), (shape, variant)


@pytest.mark.parametrize("name", ["D(2|1)", "D(3|1)", "D(2|2)"])
def test_packed_d_row_matches_plain_cofactors(name):
    spec = parse_spec(name)
    for m in range(1, 4):
        shape = SkewDiagram.straight((m,))
        assert det_formula(spec, shape, "column") == _plain_formula(
            spec, shape, "column"), m


def test_packed_tsystem_blocks_match_plain_cofactors():
    spec = AlgebraSpec("B", 0, 2)
    for a in (1, 2):
        for m in range(0, 4):
            plain = _plain_det([[shift_u(normalized_rect_dvf(spec, n, 1), sh)
                                 for n, sh in row] for row in _block_matrix(2, a, m)])
            assert tsystem_block(2, a, m) == plain, (a, m)


def _ratios(coeffs, shifts):
    # Q_1(u + s + 1) / Q_1(u + s) phi(u + s) with the given coefficients
    return SymSum.make(SymTerm.make(c, [(1, s + 1, 1), (1, s, -1)], [(s, 1)])
                       for c, s in zip(coeffs, shifts))


def test_packed_det_keeps_fraction_coefficients():
    # entries whose coefficients are not integers, with cancellation
    x = _ratios([Fraction(1, 3), Fraction(-5, 7), 2], [0, 1, 2])
    y = _ratios([Fraction(3, 4), Fraction(2, 9)], [0, -1])
    pairs = [[(x, 0), (y, 1), (x, 2)], [(y, -1), (x, 0), (ZERO, 0)],
             [(x, 1), (x, -2), (y, 0)]]
    got = relations._det(pairs)
    assert got == _plain_det([[shift_u(e, sh) for e, sh in row] for row in pairs])
    assert any(t.coeff.denominator > 1 for t in got.terms)
    assert all(type(t.coeff) is Fraction for t in got.terms)


def test_packed_det_widens_fields_past_8_bits():
    # exponents up to 200 in a 3 x 3 expansion need fields of 11 bits
    big = SymSum.make([SymTerm.make(1, [(1, 0, 200), (2, 3, -150)], [(1, -90)]),
                       SymTerm.make(-2, [(1, 1, -200)], [(0, 170)])])
    small = _ratios([1, -1], [0, 2])
    pairs = [[(big, 0), (small, 1), (big, 2)], [(small, -1), (big, 1), (small, 0)],
             [(big, -2), (small, 3), (big, 0)]]
    codec = symbolic.Codec([(x.terms, [-2, 3]) for x in (big, small)], 3)
    assert codec.width == 11    # 3 * (200 - (-200)) = 1200 < 2^11
    got = relations._det(pairs)
    assert got == _plain_det([[shift_u(e, sh) for e, sh in row] for row in pairs])
    assert max(abs(e) for t in got.terms for *_, e in t.qs) > 255


def test_codec_refuses_what_its_bound_does_not_cover():
    # a factor at a shift or with an exponent outside the packing raises;
    # inside it, every sum of up to count codes decodes to the product
    terms = [SymTerm.make(1, [(1, 0, 3), (2, 1, -1)], [(0, 1)]),
             SymTerm.make(-1, [(2, 2, 1)], [(1, -2)])]
    codec = symbolic.Codec([(terms, [0, 1])], 4)
    assert codec.width == (4 * (3 + 2)).bit_length()
    for bad in (SymTerm.make(1, [(1, 0, 4)]), SymTerm.make(1, [(1, 3, 1)]),
                SymTerm.make(1, [(3, 0, 1)]), SymTerm.make(1, (), [(2, -3)]),
                SymTerm.make(1, (), [(5, 1)])):
        with pytest.raises(OverflowError):
            codec.pack([bad])
    with pytest.raises(OverflowError):
        codec.pack(terms, 2)
    pool = list(zip(codec.pack(terms) + codec.pack(terms, 1),
                    terms + [t.shifted(1) for t in terms]))
    rng = Random(5)
    for _ in range(200):
        picks = [rng.choice(pool) for _ in range(rng.randint(0, 4))]
        want = ONE_TERM
        for _, t in picks:
            want = want * t
        code = sum(code for (code, _), _ in picks)
        assert codec.unpack([(code, want.coeff)]) == SymSum.from_term(want)


def test_tsystem_blocks_boundary():
    assert tsystem_block(2, 0, 5) == ONE
    assert tsystem_block(2, 1, 0) == ONE
    assert tsystem_block(2, 1, -1) == ZERO


# sha256 of json.dumps(sum_to_json(tsystem_block(s, a, m)), sort_keys=True):
# the expanded determinant blocks, term for term
TSYSTEM_BLOCK_SHA256 = {
    (1, 1, 3): "055ed7924482069c9d6f9c490c0688506d2a3a0930d230ab7b4deba762f3382f",
    (2, 1, 3): "a112b4b576d70a3833b3f32ef5576c54b856624a2ef454f12b81321bd0b92f82",
    (2, 2, 2): "c0a55e9d3d5ec59df0ca19ca3a94c9af1f803e83a24d7561946933c618adb6d0",
    (3, 2, 2): "47b49774f1b61a833ce2da8891622ff79eb313966555dffe9b0aa72924221aa1",
}


@pytest.mark.parametrize("sam", sorted(TSYSTEM_BLOCK_SHA256),
                         ids=lambda sam: "s={} a={} m={}".format(*sam))
def test_tsystem_block_is_byte_stable(sam):
    text = json.dumps(sum_to_json(tsystem_block(*sam)), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == TSYSTEM_BLOCK_SHA256[sam]


@pytest.mark.parametrize("s", [1, 2])
def test_t_system_depth_2(s):
    rep = check_t_system(s, 2, trials=5, seed=6)
    assert rep.passed


def test_t_system_inner_node_family():
    # s = 3 is the smallest rank with a genuine inner node (a <= s-2)
    rep = check_t_system(3, 1, trials=4, seed=6)
    assert rep.passed
    names = [c["name"] for c in rep.details["checks"]]
    assert any("node 1" in n for n in names)


def test_t_system_reports_are_pinned():
    # recorded before the sub-checks were seeded by their place in one case
    # list: every report for s <= 3 and depth <= 3, which the verify pin
    # (s <= 2 at depth 3) does not reach, so the seed of each sub-check and
    # the order of the relation and block groups are both fixed
    text = json.dumps([check_t_system(s, d, trials=2, seed=5).to_json()
                       for s in (1, 2, 3) for d in (1, 2, 3)], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f8913b9edfbb869e30c0a16f38be3e5a512bf3283abb0605c3f8927b3c86d248")


def test_term_count_prediction_values():
    assert term_count_prediction(2, 1, 1) == 5
    assert term_count_prediction(2, 1, 2) == 15        # 14 + 1
    assert term_count_prediction(2, 1, 3) == 35        # 30 + 5
    assert term_count_prediction(2, 2, 1) == 10
    assert term_count_prediction(2, 2, 2) == 50        # 35 + 14 + 1
    assert term_count_prediction(2, 2, 3) == 175       # 84 + 81 + 10


def test_term_count_predictions_are_pinned():
    # s <= 4, every node a and m <= 6: 70 dimension sums
    table = [(s, a, m, term_count_prediction(s, a, m))
             for s in range(1, 5) for a in range(1, s + 1) for m in range(7)]
    assert hashlib.sha256(repr(table).encode()).hexdigest() == (
        "46fae78a2eaa544e49bafb3a70e6f1f9ef9d63b1fa25270848366c055eaee30d")


@pytest.mark.parametrize("a,m", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2),
                                 (2, 3)])
def test_term_count_conjecture_b02(a, m):
    rep = check_term_count_conjecture(2, a, m)
    assert rep.passed, rep.details


def test_term_count_conjecture_b01():
    # additional spot checks beyond the worked table
    for a, m in [(1, 1), (1, 2), (1, 3)]:
        rep = check_term_count_conjecture(1, a, m)
        assert rep.passed, rep.details


def test_term_count_conjecture_b03():
    # rank-3 instances, also beyond the worked table
    for a, m, want in [(1, 1, 7), (1, 2, 28), (2, 1, 21), (3, 1, 35),
                       (2, 2, 196)]:
        rep = check_term_count_conjecture(3, a, m)
        assert rep.passed and rep.details["tableaux"] == want, rep.details


def test_term_counts_equal_tableaux_counts():
    # canonicalization never merges distinct fillings of these shapes
    from bethe_dvf.tableaux import count_tableaux
    spec = parse_spec("B(0|2)")
    ctx = BoxContext(spec)
    for mu in [(1,), (1, 1), (2, 2), (2,)]:
        sd = SkewDiagram.straight(mu)
        assert len(build_dvf(ctx, sd)) == count_tableaux(spec, sd)
