"""Dressed vacuum forms: tableaux sums of box functions.

A box [a]_u is an exact ratio of shifted Q-functions times a vacuum factor
psi_a(u) (two shifted phi's).  The eigenvalue candidate attached to a skew
diagram is the signed sum over admissible tableaux of box products, the box
of cell (i, j) being evaluated at u - mu_1 + mu'_1 - 2i + 2j.  Setting
``include_vacuum=False`` drops the psi factors ("dress part" only), the mode
in which several exact identities below are stated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import prod
from typing import Sequence

from .algebra import (AlgebraSpec, IndexLabel, WrongAlgebra, bar, grading,
                      index_set, unb, validate_label)
from .symbolic import (ONE, ONE_TERM, Assignment, SymSum, SymTerm, ZERO,
                       _compile, _run, evaluate, shift_u)
from .tableaux import (SkewDiagram, _repeats_in_row, _top_filling, fold_fillings,
                       transfer_sum)


@dataclass(frozen=True)
class BoxContext:
    spec: AlgebraSpec
    include_vacuum: bool = True


def crossing_shift(spec: AlgebraSpec) -> int:
    """K of the crossing u -> -(u + K): 2r - 2s - 1 for B, 2r - 2s - 2 for D."""
    return 2 * spec.r - 2 * spec.s - (1 if spec.family == "B" else 2)


def _crossed(k: int, qs, phis) -> tuple[list, list]:
    """Q and phi factor lists with every argument shift c mapped to k - c."""
    return ([(c, k - sh, e) for c, sh, e in qs], [(k - sh, e) for sh, e in phis])


def _unbarred_qs(spec: AlgebraSpec, a: int) -> list[tuple[int, int, int]]:
    """Q factors of the unbarred box [a]_u; a = 0 is the B label 0."""
    s, r = spec.s, spec.r
    n, x = s + r, r - s
    if a == 0:                          # the B middle
        return [(n, x + 1, 1), (n, x - 2, 1), (n, x - 1, -1), (n, x, -1)]
    if spec.family == "D" and a == n:   # the D middle s+r
        return [(n - 1, x + 1, 1), (n, x - 3, 1),
                (n - 1, x - 1, -1), (n, x - 1, -1)]
    xa, d = (-a, -1) if a <= s else (a - 2 * s, 1)
    qs = [(a - 1, xa + d, 1), (a, xa - 2 * d, 1),
          (a - 1, xa - d, -1), (a, xa, -1)]
    if spec.family == "D" and a == n - 1:
        # the D middle s+r-1: the general box at xa = x - 1 times the fork color
        qs += [(n, x - 3, 1), (n, x - 1, -1)]
    return [f for f in qs if f[0] != 0]     # Q_0 = 1


def box(ctx: BoxContext, label: IndexLabel, u_shift: int = 0) -> SymTerm:
    """The box function [label]_{u + u_shift} as a single canonical term.

    A barred box is the crossing image of its unbarred box: every Q and phi
    shift c of [a]_u becomes K - c, K = crossing_shift(spec).
    """
    spec = ctx.spec
    validate_label(spec, label)
    k = crossing_shift(spec)
    qs = _unbarred_qs(spec, label.value)
    phis = [(-2 if label.value == 1 else 0, 1), (k, 1)] if ctx.include_vacuum else []
    if label.kind == "barred":
        qs, phis = _crossed(k, qs, phis)
    return SymTerm.make(1, qs, phis).shifted(u_shift)


def signed_box(ctx: BoxContext, label: IndexLabel, u_shift: int = 0) -> SymTerm:
    t = box(ctx, label, u_shift)
    return SymTerm(-t.coeff, t.qs, t.phis) if grading(ctx.spec, label) else t


def box_product(ctx: BoxContext, labels: Sequence[IndexLabel],
                shifts: Sequence[int]) -> SymTerm:
    """Product of the unsigned boxes [label]_{u + shift} along a line
    (ONE_TERM for an empty line)."""
    t = ONE_TERM
    for lab, sh in zip(labels, shifts):
        t = t * box(ctx, lab, sh)
    return t


# ---------------------------------------------------------------------------
# the tableaux sum


def cell_shift(shape: SkewDiagram, i: int, j: int) -> int:
    # mu'_1, the first part of the conjugate, is the number of rows of mu
    return -shape.mu[1] + len(shape.mu) - 2 * i + 2 * j


@lru_cache(maxsize=None)
def _cell_shifts(shape: SkewDiagram) -> tuple[int, ...]:
    """``cell_shift`` of every cell of ``shape.cells()``, in that order."""
    return tuple(cell_shift(shape, i, j) for i, j in shape.cells())


@lru_cache(maxsize=None)
def _rect(m: int, a: int) -> SkewDiagram:
    """The rectangle with a rows of length m."""
    return SkewDiagram.straight((m,) * a)


def build_dvf(ctx: BoxContext, shape: SkewDiagram) -> SymSum:
    """Signed sum over admissible tableaux of shifted box products."""
    if shape.n_cells() == 0:
        return ONE
    # each label's box is built once and moved to each cell's shift
    signed = [signed_box(ctx, lab) for lab in index_set(ctx.spec)]
    boxes = [[b.shifted(at) for b in signed] for at in _cell_shifts(shape)]
    # one box product per node of the walk: tableaux share their prefixes
    return SymSum.make(fold_fillings(ctx.spec, shape, ONE_TERM,
                                     lambda t, k, v: t * boxes[k][v]))


@lru_cache(maxsize=None)
def column_dvf(ctx: BoxContext, a: int) -> SymSum:
    """T^a: the DVF of a single column of height a (1 for a = 0, 0 for a < 0)."""
    return rect_dvf(ctx, 1, a)


@lru_cache(maxsize=None)
def row_dvf(ctx: BoxContext, m: int) -> SymSum:
    """T_m: the DVF of a single row of length m (1 for m = 0, 0 for m < 0)."""
    return rect_dvf(ctx, m, 1)


def rect_dvf(ctx: BoxContext, m: int, a: int) -> SymSum:
    """T_m^a: the DVF of the rectangle with a rows of length m (1 when a side
    is 0, 0 when one is negative)."""
    if m < 0 or a < 0:
        return ZERO
    return build_dvf(ctx, _rect(m, a))


# ---------------------------------------------------------------------------
# tableaux sums at a point


@lru_cache(maxsize=None)
def _row_plan(ctx: BoxContext, at: int) -> tuple:
    """The signed boxes of every label at u + at, in ``index_set`` order,
    compiled once into one form of rows: they share their bases."""
    return _compile([signed_box(ctx, lab, at) for lab in index_set(ctx.spec)],
                    rows=True)


def _box_row(ctx: BoxContext, at: int, asg: Assignment,
             cache: dict) -> tuple[list[int], int]:
    """The signed boxes of every label at u + at, evaluated at ``asg`` over
    one common denominator: (numerators in ``index_set`` order, denominator),
    one output per label of the row's form, over the form's D, from
    ``_run``.  Memoized in ``cache``, the per-point factor cache of
    ``evaluate``."""
    key = (ctx, at)
    row = cache.get(key)
    if row is None:
        row = cache[key] = _run(_row_plan(ctx, at), asg, cache)
    return row


def dvf_value(ctx: BoxContext, shape: SkewDiagram, asg: Assignment,
              cache: dict, shift: int = 0) -> Fraction:
    """Value of ``shift_u(build_dvf(ctx, shape), shift)`` at the exact point
    ``asg``, by ``transfer_sum`` over the signed box values, without building
    the sum.

    The cell shifts are cached per shape.  Each cell's box values come over
    a common denominator, so the transfer matrix runs on integers and
    divides once at the end.  They are evaluated once per point and shift
    and kept in ``cache``, so cells on one diagonal and shifted copies of a
    block share them.  Raises PoleHit when any box denominator vanishes,
    also one that would cancel in the expanded sum.
    """
    rows = [_box_row(ctx, at + shift, asg, cache) for at in _cell_shifts(shape)]
    total = transfer_sum(ctx.spec, shape, [nums for nums, _ in rows])
    return Fraction(total, prod(den for _, den in rows))


def rect_value(ctx: BoxContext, m: int, a: int, asg: Assignment, cache: dict,
               shift: int = 0) -> Fraction:
    """Value of ``shift_u(rect_dvf(ctx, m, a), shift)`` at ``asg``, as
    ``dvf_value`` gives it; 0 for a negative side, 1 for a zero side."""
    if m < 0 or a < 0:
        return Fraction(0)
    return dvf_value(ctx, _rect(m, a), asg, cache, shift)


# ---------------------------------------------------------------------------
# osp(1|2s) normalization


def _f_term(s: int, m: int, off: int) -> SymTerm:
    """The row normalizer F_m(u + off) as a single phi term."""
    if m < 0:
        raise ValueError("F_m needs m >= 0")
    if m == 0:
        return SymTerm.make(1, (), [(off + 1, -1), (off - 2 * s - 2, -1)])
    phis = []
    for j in range(1, m):
        phis.append((off - m + 2 * j + 1, 1))
        phis.append((off - 2 * s - m + 2 * j - 2, 1))
    return SymTerm.make(1, (), phis)


def _require_b0s(spec: AlgebraSpec) -> None:
    if spec.family != "B" or spec.r != 0:
        raise WrongAlgebra("normalization is defined for B(0|s) only")


@lru_cache(maxsize=None)
def _inverse_normalizer(spec: AlgebraSpec, shape: SkewDiagram,
                        nrows: int, shift: int = 0) -> SymSum:
    """1 over the product of the row normalizers F over rows 1..nrows of
    ``shape``, at u + shift: a one-term sum whose form compiles once per
    shift; ``nrows`` exceeds its row count for the zero-length rows of m = 0."""
    _require_b0s(spec)
    mu, lam = shape.mu, shape.lam
    div = ONE_TERM
    for j in range(1, nrows + 1):
        off = -mu[1] + nrows + mu[j] + lam[j] - 2 * j + 1
        div = div * _f_term(spec.s, mu[j] - lam[j], off)
    return SymSum((div.inverse().shifted(shift),))


def normalize_b0s(spec: AlgebraSpec, x: SymSum, shape: SkewDiagram) -> SymSum:
    """Divide a B(0|s) DVF by its product of row normalizers F."""
    return x * _inverse_normalizer(spec, shape, len(shape.mu.parts))


def normalized_rect_dvf(spec: AlgebraSpec, m: int, a: int) -> SymSum:
    """Normalized T_m^a for B(0|s); handles the m = 0 boundary products."""
    _require_b0s(spec)
    if m < 0 or a < 0:
        return ZERO
    return rect_dvf(BoxContext(spec), m, a) * _inverse_normalizer(
        spec, _rect(m, a), a)


def normalized_rect_value(spec: AlgebraSpec, m: int, a: int, asg: Assignment,
                          cache: dict, shift: int = 0) -> Fraction:
    """``shift_u(normalized_rect_dvf(spec, m, a), shift)`` at ``asg``: the
    rectangle's ``dvf_value`` times the inverted normalizer's value."""
    _require_b0s(spec)
    if m < 0 or a < 0:
        return Fraction(0)
    shape = _rect(m, a)
    return (dvf_value(BoxContext(spec), shape, asg, cache, shift)
            * evaluate(_inverse_normalizer(spec, shape, a, shift), asg, cache))


# ---------------------------------------------------------------------------
# top terms


def top_term(ctx: BoxContext, shape: SkewDiagram) -> SymTerm:
    """The distinguished highest-weight term of the tableaux sum: the signed
    boxes of ``tableaux._top_filling`` along the shape (1 with no cells)."""
    if shape.n_cells() == 0:
        return ONE_TERM
    return prod((signed_box(ctx, lab, at) for lab, at in
                 zip(_top_filling(ctx.spec, shape), _cell_shifts(shape))),
                start=ONE_TERM)


def isolated_column_term(spec: AlgebraSpec, a: int) -> SymTerm:
    """h^a: the candidate isolated piece of T^a for D when r - s - 1 >= 0."""
    if spec.family != "D":
        raise WrongAlgebra("isolated terms are a D-family feature")
    ctx = BoxContext(spec, include_vacuum=True)
    psi1, psi1b = (SymTerm(Fraction(1), (), box(ctx, lab).phis)
                   for lab in (unb(1), bar(1)))
    t = ONE_TERM
    for j in range(1, a + 1 - spec.r + spec.s + 1):
        up = a - 2 * j + 1
        t = t * psi1.shifted(up) * psi1b.shifted(-up)
    return t


# ---------------------------------------------------------------------------
# crossing


def crossing_transform(spec: AlgebraSpec, x: SymSum) -> SymSum:
    """Image under u -> -(u + K), K = crossing_shift(spec), with all Bethe
    roots and inhomogeneities negated.

    Rewritten back in the original variables this maps every factor argument
    shift c to K - c, as ``box`` does for a barred label.  The sign picked up
    from (-z) = -(z) cancels only when every color's net exponent and the net
    phi exponent are even, which holds for any product of boxes; other inputs
    are rejected.
    """
    k = crossing_shift(spec)
    out = []
    for t in x.terms:
        net: dict = {}                  # per color, phi at None
        for c, _, e in chain(t.qs, ((None, *f) for f in t.phis)):
            net[c] = net.get(c, 0) + e
        if any(e % 2 for e in net.values()):
            raise ValueError("crossing image is root-count dependent for "
                             "terms with odd net exponents")
        out.append(SymTerm.make(t.coeff, *_crossed(k, t.qs, t.phis)))
    return SymSum.make(out)


# ---------------------------------------------------------------------------
# generating series

# A series is a list of SymSum coefficients of X^0..X^max_order where X is
# the two-step shift operator: moving X across a coefficient shifts it by 2.


def _series_mul(a: list[SymSum], b: list[SymSum]) -> list[SymSum]:
    out = [ZERO] * len(a)
    for i, ai in enumerate(a):
        if ai.is_zero():
            continue
        for j, bj in enumerate(b[:len(a) - i]):
            if bj.is_zero():
                continue
            out[i + j] = out[i + j] + ai * shift_u(bj, 2 * i)
    return out


def _series_run(t: SymTerm, longest: int, order: int,
                step: int = 1) -> list[SymSum]:
    """sum_k [t]_u [t]_{u+2 step} ... [t]_{u+2 step (k-1)} X^(step k) over
    k = 0..longest: the runs of up to ``longest`` boxes t along a line,
    truncated at X^order.  With ``longest`` >= order it is (1 - [t] X^step)^(-1),
    sound because X carries degree 1; with ``longest`` = 1 it is 1 + [t] X."""
    out = [ONE] + [ZERO] * order
    power = ONE_TERM
    for k in range(1, min(longest, order // step) + 1):
        power = power * t.shifted(2 * step * (k - 1))
        out[step * k] = SymSum.from_term(power)
    return out


def generating_series(ctx: BoxContext, kind: str,
                      max_order: int) -> list[SymSum]:
    """Coefficients of X^0..X^max_order of the ordered box generating series.

    ``kind`` is "column" (coefficient n is T^n(u + n - 1)) or "row"
    (T_n(u + n - 1)).  The series is an ordered product over the labels,
    ``index_set`` order for a row and reversed for a column, of one factor
    per label a, [a] its signed box: (1 - [a] X)^(-1) where the label may
    repeat along the line, 1 + [a] X where it may not.  Factors compose left
    to right by the shift rule X f(u) = f(u + 2) X.
    """
    if kind not in ("column", "row"):
        raise ValueError(f"kind must be column or row, got {kind!r}")
    spec = ctx.spec
    top, top_bar = unb(spec.rank), bar(spec.rank)
    # the D labels s+r and bar(s+r) are incomparable: neither follows the other
    d_pair = spec.family == "D"
    series = [ONE] + [ZERO] * max_order
    for lab in index_set(spec) if kind == "row" else index_set(spec)[::-1]:
        if d_pair and kind == "row" and lab == top_bar:
            continue                            # in the factor of s+r below
        down = not _repeats_in_row(spec, lab)
        longest = max_order if down == (kind == "column") else 1
        t = signed_box(ctx, lab)
        run = _series_run(t, longest, max_order)
        if d_pair and lab == top and kind == "column":
            # (1 - [s+r] X [bar(s+r)] X)^(-1), stepping by X^2, between the pair
            series = _series_mul(series, _series_run(
                t * signed_box(ctx, top_bar, 2), max_order, max_order, step=2))
        elif d_pair and lab == top:
            # a row holds a run of s+r or of bar(s+r), never both: the two
            # geometric factors summed, minus 1, not multiplied
            other = _series_run(signed_box(ctx, top_bar), max_order, max_order)
            run = [ONE] + [x + y for x, y in zip(run[1:], other[1:])]
        series = _series_mul(series, run)
    return series
