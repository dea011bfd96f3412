"""Functional relations between tableaux sums.

Everything here reduces a family of eigenvalue candidates to the fundamental
ones: bideterminant (Jacobi-Trudi style) expressions over single columns or
single rows, the Hirota bilinear recursion among rectangles, the
self-duality of the normalized B(0|s) family, the closed T-system it
generates, and the term-count/dimension correspondence.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, product as iproduct
from typing import Sequence

from .algebra import (AlgebraSpec, IndexLabel, WrongAlgebra, _kac_dynkin,
                      dimension_b0s, index_set)
from .dvf import (BoxContext, box_product, column_dvf, dvf_value,
                  normalized_rect_dvf, normalized_rect_value, rect_value,
                  row_dvf)
from .reports import IdentityReport, exact_report, merge_reports
from .symbolic import (ONE, ONE_TERM, Codec, SymSum, SymTerm, ZERO,
                       equal_as_rational_functions, evaluate, exact_det,
                       sample_max_deviation, shift_u)
from .tableaux import SkewDiagram, _check_shape, conjugate, count_tableaux


# ---------------------------------------------------------------------------
# determinants


def _det(matrix: list[list[tuple[SymSum, int]]]) -> SymSum:
    """Cofactor expansion of a matrix of pairs (x, shift), the entries
    ``shift_u(x, shift)``, on packed codes (``Codec``), a transient build
    form: minors are {code: coefficient} dicts, a term product is one add,
    coefficients stay exact, and one entry term per row bounds the fields."""
    n = len(matrix)
    entries = list(chain.from_iterable(matrix))
    shifts = [sh for _, sh in entries]
    lo = min(shifts, default=0)
    distinct = {id(x): x for x, _ in entries}
    codec = Codec([(x.terms, shifts) for x in distinct.values()], n)
    packed = {key: codec.pack(x.terms, lo) for key, x in distinct.items()}

    @lru_cache(maxsize=None)
    def minor(row: int, cols: frozenset) -> dict:
        if row == n:
            return {0: 1}
        total: dict = {}
        for i, j in enumerate(sorted(cols)):
            x, sh = matrix[row][j]
            if not x.terms:
                continue
            sign = -1 if i % 2 else 1
            sub = minor(row + 1, cols - {j})
            for a, ca in packed[id(x)]:
                a <<= codec.width * (sh - lo)
                ca *= sign
                for b, cb in sub.items():
                    total[a + b] = total.get(a + b, 0) + ca * cb
        return {code: c for code, c in total.items() if c}

    return codec.unpack(minor(0, frozenset(range(n))).items())


def det_matrix(spec: AlgebraSpec, shape: SkewDiagram,
               variant: str) -> list[list[tuple[int, int]]]:
    """Entry matrix of the determinant expression of the tableaux sum, each
    entry a pair (n, shift): the block of size n shifted by shift along u.

    ``column`` has single-column sums T^n as entries, ``row`` single-row sums
    T_n.  Both serve both families: any skew shape for B, and the column
    (1^a) and row (m^1) for D, the other D shapes raising UnsupportedShape.
    Blocks of negative size are 0 and of size 0 are 1, as for
    ``column_dvf`` and ``row_dvf``.
    """
    if variant not in ("column", "row"):
        raise ValueError(f"unknown variant {variant!r}")
    _check_shape(spec, shape)
    lam, mu = shape.lam, shape.mu
    mup, lamp = conjugate(mu), conjugate(lam)
    if variant == "column":
        size = mu[1]
        return [[(mup[i] - lamp[j] - i + j,
                  -mu[1] + mup[1] - mup[i] - lamp[j] + i + j - 1)
                 for j in range(1, size + 1)] for i in range(1, size + 1)]
    size = mup[1]
    return [[(mu[j] - lam[i] + i - j,
              -mu[1] + mup[1] + mu[j] + lam[i] - i - j + 1)
             for j in range(1, size + 1)] for i in range(1, size + 1)]


def det_formula(spec: AlgebraSpec, shape: SkewDiagram, variant: str) -> SymSum:
    """Determinant expression of the tableaux sum over fundamental blocks
    (variants as in ``det_matrix``), expanded symbolically."""
    ctx = BoxContext(spec)
    block = row_dvf if variant == "row" else column_dvf
    return _det([[(block(ctx, n), sh) for n, sh in row]
                 for row in det_matrix(spec, shape, variant)])


def _sampled_report(name: str, spec: AlgebraSpec, lhs_minus_rhs, trials: int,
                    seed: int) -> IdentityReport:
    """Randomized-exact report of ``lhs_minus_rhs(asg, cache)`` over every Q
    color: the fundamental blocks T^1 and T_1 hold a box of every label."""
    worst, _ = sample_max_deviation(lhs_minus_rhs,
                                    set(range(1, spec.rank + 1)), trials, seed)
    return IdentityReport(name=name, mode="randomized-exact", samples=trials,
                          max_deviation=worst, passed=(worst == 0), details={},
                          seed=seed)


def check_det_vs_tableaux(spec: AlgebraSpec, shape: SkewDiagram, variant: str,
                          trials: int = 20, seed: int = 0) -> IdentityReport:
    """Randomized-exact: numeric determinant of the entry matrix against the
    direct tableaux sum, both evaluated at random rational points by
    transfer matrix (``dvf_value``), neither expanded."""
    ctx = BoxContext(spec)
    matrix = det_matrix(spec, shape, variant)
    sides = (lambda n: (n, 1)) if variant == "row" else (lambda n: (1, n))

    def det_minus_direct(asg, cache):
        det_val = exact_det([[rect_value(ctx, *sides(n), asg, cache, sh)
                              for n, sh in row] for row in matrix])
        return det_val - dvf_value(ctx, shape, asg, cache)

    return _sampled_report(
        f"determinant[{variant}] {spec} {shape.mu.parts}/{shape.lam.parts}",
        spec, det_minus_direct, trials, seed)


# ---------------------------------------------------------------------------
# Hirota recursion (B family, raw sums)


def check_hirota(spec: AlgebraSpec, a: int, m: int, trials: int = 20,
                 seed: int = 0) -> IdentityReport:
    """T_m^a(u-1) T_m^a(u+1) = T_{m-1}^a T_{m+1}^a + T_m^{a-1} T_m^{a+1},
    each rectangle evaluated at the sample points by transfer matrix."""
    if spec.family != "B":
        raise WrongAlgebra("the bilinear recursion is checked for B only")
    if a < 1 or m < 1:
        raise ValueError("need a, m >= 1")
    ctx = BoxContext(spec)

    def lhs_minus_rhs(asg, cache):
        def t(m_, a_, shift=0):
            return rect_value(ctx, m_, a_, asg, cache, shift)
        return (t(m, a, -1) * t(m, a, 1)
                - (t(m - 1, a) * t(m + 1, a) + t(m, a - 1) * t(m, a + 1)))

    return _sampled_report(f"hirota {spec} a={a} m={m}", spec, lhs_minus_rhs,
                           trials, seed)


# ---------------------------------------------------------------------------
# duality of the normalized B(0|s) family


def _dress_line(s: int, labels: Sequence[IndexLabel], start: int) -> SymTerm:
    """Product of the B(0|s) dress boxes of ``labels`` along a line at
    u + start, u + start + 2, ...; each helper identity below takes its
    labels from the chain j = index_set(B(0|s)), 1 < .. < s < 0 < sbar < ..
    < 1bar, in which the slot of s+1 and of its bar is j[s] = 0."""
    return box_product(BoxContext(AlgebraSpec("B", 0, s), include_vacuum=False),
                       labels, range(start, start + 2 * len(labels), 2))


def verify_modi1(s: int, a: int) -> bool:
    """[abar]_u x [1..a] at u-2s-1, u-2s+1, ... equals [1..a-1] at u-2s+1, ...

    Exact statement used in the duality proof; a runs over 1..s+1.  Dress
    parts only.
    """
    j = index_set(AlgebraSpec("B", 0, s))
    return (_dress_line(s, [j[-a]], 0) * _dress_line(s, j[:a], -2 * s - 1)
            == _dress_line(s, j[:a - 1], -2 * s + 1))


def verify_modi(s: int, a: int) -> bool:
    """[a]_u x [abar..1bar] at u-2a+2s+3, ... equals [(a-1)bar..1bar]."""
    j = index_set(AlgebraSpec("B", 0, s))
    start = 2 * s + 3 - 2 * a
    return (_dress_line(s, [j[a - 1]], 0) * _dress_line(s, j[-a:], start)
            == _dress_line(s, j[len(j) - a + 1:], start))


def verify_const(s: int) -> bool:
    """The full-width strict row [1..s|0|sbar..1bar] multiplies out to 1."""
    return _dress_line(s, index_set(AlgebraSpec("B", 0, s)), -2 * s) == ONE_TERM


def check_duality(s: int, a: int, m: int, trials: int = 20,
                  seed: int = 0) -> IdentityReport:
    """Normalized T_m^a = T_{2s-m+1}^a for B(0|s), vacuum parts included."""
    if not 0 <= m <= 2 * s + 1:
        raise ValueError("duality range is 0 <= m <= 2s+1")
    spec = AlgebraSpec("B", 0, s)
    lhs = normalized_rect_dvf(spec, m, a)
    rhs = normalized_rect_dvf(spec, 2 * s - m + 1, a)
    rep = equal_as_rational_functions(lhs, rhs, trials=trials, seed=seed)
    return replace(rep, name=f"duality B(0|{s}) a={a} m={m}")


def check_duality_suite(s: int, trials: int = 8, seed: int = 0) -> IdentityReport:
    """Full duality sweep plus the three exact helper identities."""
    reports = [check_duality(s, a, m, trials=trials, seed=seed + a * 100 + m)
               for a in (1, 2) for m in range(0, 2 * s + 2)]
    helper_ok = all(verify_modi1(s, a) and verify_modi(s, a)
                    for a in range(1, s + 2)) and verify_const(s)
    reports.append(exact_report(f"duality-helpers B(0|{s})", helper_ok,
                                2 * (s + 1) + 1, seed=seed))
    return merge_reports(f"duality B(0|{s})", reports)


# ---------------------------------------------------------------------------
# the closed B(0|s) T-system


@lru_cache(maxsize=None)
def _block_matrix(s: int, a: int, m: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """``det_matrix`` of T_m^(a), m >= 0, as tuples, built once: the rectangle
    (a^m) over the normalized rows (empty, of determinant 1, when a or m is 0)."""
    if a and m and not 1 <= a <= s:
        raise ValueError(f"node index {a} out of range 1..{s}")
    return tuple(map(tuple, det_matrix(AlgebraSpec("B", 0, s),
                                       SkewDiagram.straight((a,) * m), "row")))


def tsystem_block(s: int, a: int, m: int) -> SymSum:
    """Determinant solution for T_m^(a) over the normalized rows, 1 when a or
    m is 0 and 0 when m < 0; index n of T_n^(s) must be even."""
    if m < 0:
        return ZERO
    spec = AlgebraSpec("B", 0, s)
    return _det([[(normalized_rect_dvf(spec, n, 1), sh) for n, sh in row]
                 for row in _block_matrix(s, a, m)])


def tsystem_g(s: int, b: int, m: int) -> SymSum:
    """Scalar factor attached to node b at level m of the relation family.

    Nontrivial only where the inhomogeneity polynomial enters: node 1, where
    it is the normalized T_0^m, an m-fold product of normalized empty-row
    terms.  For s = 1 the single node plays both roles and its level-2m
    factor is the same m-fold product.
    """
    return normalized_rect_dvf(AlgebraSpec("B", 0, s), 0, m) if b == 1 else ONE


def check_t_system(s: int, depth: int, trials: int = 8,
                   seed: int = 0) -> IdentityReport:
    """Verify the closed relation family on determinant-built blocks.

    Every node relation at levels m <= depth is checked, together with the
    bilinear relation of the g factors and a cross-check of the determinant
    blocks against directly built rectangle sums.  Blocks and rectangles are
    valued at the sample points by transfer matrix (``exact_det`` over
    ``normalized_rect_value`` entries), never expanded.
    """
    if depth < 1:
        raise ValueError("need depth >= 1")
    spec = AlgebraSpec("B", 0, s)

    def block(asg, cache, a: int, m: int, shift: int = 0) -> Fraction:
        return exact_det([[normalized_rect_value(spec, n, 1, asg, cache,
                                                 sh + shift) for n, sh in row]
                          for row in _block_matrix(s, a, m)])

    def relation(asg, cache, a: int, m: int, g: SymSum) -> Fraction:
        """lhs - rhs at node a, g = tsystem_g(s, a, m) built once per
        relation; the tail node s couples to itself."""
        t, g_val = partial(block, asg, cache), evaluate(g, asg, cache)
        return (t(a, m, -1) * t(a, m, 1) - t(a, m - 1) * t(a, m + 1)
                - g_val * t(a - 1, m) * t(min(a + 1, s), m))

    def block_vs_direct(asg, cache, a: int, m: int) -> Fraction:
        return (block(asg, cache, a, m)
                - normalized_rect_value(spec, a, m, asg, cache))

    # the relations at each level, inner nodes then the tail (label 2m),
    # then the blocks node by node; case i samples with seed + i
    levels, nodes = range(1, depth + 1), range(1, s + 1)
    cases = ([(f"t-system B(0|{s}) {f'node {a}' if a < s else 'tail'} m={m}",
               partial(relation, a=a, m=m, g=tsystem_g(s, a, m)))
              for m in levels for a in nodes]
             + [(f"block-vs-tableaux B(0|{s}) a={a} m={m}",
                 partial(block_vs_direct, a=a, m=m)) for a in nodes for m in levels])
    reports = [_sampled_report(name, spec, check, trials, seed + i)
               for i, (name, check) in enumerate(cases)]
    g_ok = all(tsystem_g(s, 1, m + 1) * tsystem_g(s, 1, m - 1)
               == shift_u(tsystem_g(s, 1, m), 1) * shift_u(tsystem_g(s, 1, m), -1)
               for m in levels)
    reports.insert(depth * s, exact_report(f"g-bilinear B(0|{s})", g_ok, depth,
                                           seed=seed))
    return merge_reports(f"t-system B(0|{s}) depth {depth}", reports)


# ---------------------------------------------------------------------------
# term count vs dimension (conjectural correspondence)


def _label_vectors(s: int, a: int, m: int):
    """Nonnegative k with k_1+..+k_a <= m and k_j = m delta_{ja} mod 2."""
    ranges = [range(m % 2 if j == a else 0, m + 1, 2) for j in range(1, a + 1)]
    return (ks for ks in iproduct(*ranges) if sum(ks) <= m)


def term_count_prediction(s: int, a: int, m: int) -> int:
    """Dimension sum predicted for the number of terms in T_m^(a)."""
    if not 1 <= a <= s:
        raise ValueError(f"node index {a} out of range 1..{s}")
    spec = AlgebraSpec("B", 0, s)
    # the weight sum_i (k_i + .. + k_a) delta_i of each label vector k
    weights = (({i: sum(ks[i - 1:]) for i in range(1, a + 1)}, {})
               for ks in _label_vectors(s, a, m))
    return sum(dimension_b0s(s, _kac_dynkin(spec, w)) for w in weights)


def check_term_count_conjecture(s: int, a: int, m: int) -> IdentityReport:
    """Compare tableaux count of the (a^m) rectangle with the dimension sum.

    A conjectural correspondence: disagreement is reported, not raised.
    """
    spec = AlgebraSpec("B", 0, s)
    shape = SkewDiagram.straight((a,) * m)
    n_terms = count_tableaux(spec, shape)
    predicted = term_count_prediction(s, a, m)
    label = 2 * m if a == s else m
    return IdentityReport(
        name=f"term-count B(0|{s}) node {a} label {label}", mode="exact-symbolic",
        samples=1, max_deviation=Fraction(abs(n_terms - predicted)),
        passed=n_terms == predicted,
        details={"tableaux": n_terms, "dimension_sum": predicted})
