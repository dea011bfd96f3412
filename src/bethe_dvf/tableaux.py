"""Skew Young superdiagrams and admissible fillings.

Coordinates follow the matrix convention: cell (i, j) has the row index i
growing downward, the column index j growing rightward, and (1, 1) at the
top left corner of the outer diagram.

One admissibility rule serves both families, stated on the levels of
``algebra._level`` for each adjacent cell pair: levels rise weakly along
rows and down columns, a label may repeat along a row only if it lies in
J_+ \\ {0}, and down a column only if it lies in J_- u {0}.  On B the
levels are the positions of the total order on J.  On D, s+r and bar(s+r)
share one level: they stack in a column in either order (repeated
alternation included) but never stand side by side in a row.  For D only
single columns (1^a) and single rows (m^1) are defined, and ``_check_shape``
refuses every other D shape rather than guess.  The non-local D row rule,
that s+r and bar(s+r) never appear together, follows from the local one:
levels never fall along a row and only those two share a level, so a row
holding both holds them side by side.  ``is_admissible`` still checks it;
the enumeration needs only the local rules.

Every walk over the fillings runs one transfer plan per (spec, shape),
``_transfer_plan``, compiled once from per-spec successor tables built from
the same rule predicates as ``is_admissible``: ``fold_fillings`` walks it
depth first, one tableau at a time, and ``transfer_sum`` sums weights over
the fillings with it without visiting them one by one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Sequence, TypeVar

from .algebra import (AlgebraSpec, IndexLabel, UnsupportedShape, _level,
                      bar, grading, index_set, parse_label, unb, validate_label)

A = TypeVar("A")


@dataclass(frozen=True)
class Partition:
    parts: tuple[int, ...]

    @staticmethod
    def make(parts) -> Partition:
        seq = tuple(int(p) for p in parts)
        if any(p != q for p, q in zip(parts, seq)):
            raise ValueError(f"{parts} has a part that is not an integer")
        if any(p < 0 for p in seq):
            raise ValueError("negative part")
        if any(seq[i] < seq[i + 1] for i in range(len(seq) - 1)):
            raise ValueError(f"{parts} is not weakly decreasing")
        while seq and seq[-1] == 0:
            seq = seq[:-1]
        return Partition(seq)

    def __getitem__(self, i: int) -> int:
        """1-indexed part, zero beyond the last row."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def __iter__(self):
        # without it Python iterates __getitem__ from 0 and never stops,
        # since every index past the last row reads 0
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def size(self) -> int:
        return sum(self.parts)


def conjugate(p: Partition) -> Partition:
    """Transpose of the diagram."""
    if not p.parts:
        return p
    return Partition.make(tuple(sum(1 for q in p.parts if q >= i)
                                for i in range(1, p.parts[0] + 1)))


@dataclass(frozen=True)
class SkewDiagram:
    lam: Partition
    mu: Partition

    @staticmethod
    def make(lam, mu) -> SkewDiagram:
        lam_p = lam if isinstance(lam, Partition) else Partition.make(lam)
        mu_p = mu if isinstance(mu, Partition) else Partition.make(mu)
        if any(p > mu_p[i] for i, p in enumerate(lam_p, start=1)):
            raise ValueError(f"lambda {lam_p.parts} not contained in mu {mu_p.parts}")
        return SkewDiagram(lam_p, mu_p)

    @staticmethod
    def straight(mu) -> SkewDiagram:
        return SkewDiagram.make((), mu)

    def cells(self) -> list[tuple[int, int]]:
        """Skew cells in row-major order, 1-indexed."""
        return [(i, j) for i in range(1, len(self.mu) + 1)
                for j in range(self.lam[i] + 1, self.mu[i] + 1)]

    def n_cells(self) -> int:
        return self.mu.size() - self.lam.size()

    def is_column(self) -> bool:
        return self.lam.size() == 0 and all(p == 1 for p in self.mu.parts)

    def is_row(self) -> bool:
        return self.lam.size() == 0 and len(self.mu) <= 1


@dataclass(frozen=True)
class Tableau:
    shape: SkewDiagram
    entries: tuple[tuple[int, int, IndexLabel], ...]  # row-major (i, j, label)

    def to_json(self) -> dict:
        return {"shape": {"lambda": list(self.shape.lam.parts),
                          "mu": list(self.shape.mu.parts)},
                "cells": [[i, j, str(lab)] for i, j, lab in self.entries]}

    @staticmethod
    def from_json(d: dict) -> Tableau:
        shape = SkewDiagram.make(d["shape"]["lambda"], d["shape"]["mu"])
        cells = tuple((i, j, parse_label(lab)) for i, j, lab in d["cells"])
        return Tableau(shape, cells)


# ---------------------------------------------------------------------------
# admissibility


def _check_shape(spec: AlgebraSpec, shape: SkewDiagram) -> None:
    """Refuse a D-family shape other than a column (1^a) or a row (m^1)."""
    if spec.family == "D" and not (shape.is_column() or shape.is_row()):
        raise UnsupportedShape(
            "D-family tableaux are defined only for (1^a) and (m^1)")


def _repeats_in_row(spec: AlgebraSpec, x: IndexLabel) -> bool:
    """True on J_+ \\ {0}, the labels that may repeat along a row; the
    others, J_- u {0}, may repeat down a column."""
    return x.kind != "zero" and grading(spec, x) == 0


def _row_ok(spec: AlgebraSpec, left: IndexLabel, cur: IndexLabel) -> bool:
    # levels rise along a row, and only J_+ \ {0} repeats; s+r and
    # bar(s+r), which share a level on D, never stand side by side
    return (_level(spec, left) < _level(spec, cur)
            or (left == cur and _repeats_in_row(spec, cur)))


def _col_ok(spec: AlgebraSpec, top: IndexLabel, cur: IndexLabel) -> bool:
    # levels rise down a column, and only J_- u {0} repeats; s+r and
    # bar(s+r) stack in either order, any number of times
    lv_top, lv_cur = _level(spec, top), _level(spec, cur)
    return lv_top < lv_cur or (lv_top == lv_cur and (
        top != cur or not _repeats_in_row(spec, cur)))


def is_admissible(spec: AlgebraSpec, t: Tableau) -> bool:
    """Check every rule for the tableau, including the non-local D row rule."""
    _check_shape(spec, t.shape)
    for _, _, lab in t.entries:
        validate_label(spec, lab)
    entry = {(i, j): lab for i, j, lab in t.entries}
    if len(entry) != len(t.entries) or set(entry) != set(t.shape.cells()):
        raise ValueError("tableau does not fill each skew cell exactly once")
    for (i, j), lab in entry.items():
        left, top = entry.get((i, j - 1)), entry.get((i - 1, j))
        if (left is not None and not _row_ok(spec, left, lab)
                or top is not None and not _col_ok(spec, top, lab)):
            return False
    n = spec.rank
    return not (spec.family == "D" and t.shape.is_row()
                and {unb(n), bar(n)} <= set(entry.values()))


# ---------------------------------------------------------------------------
# enumeration


@lru_cache(maxsize=None)
def _successors(spec: AlgebraSpec) -> tuple[tuple[tuple[int, ...], ...],
                                            tuple[tuple[int, ...], ...]]:
    """For each label position, the positions allowed to its right and the
    positions allowed below it, ascending; read off the predicates that
    ``is_admissible`` uses, so each rule has one definition."""
    labels = index_set(spec)
    return (tuple(tuple(v for v, b in enumerate(labels) if _row_ok(spec, a, b))
                  for a in labels),
            tuple(tuple(v for v, b in enumerate(labels) if _col_ok(spec, a, b))
                  for a in labels))


@lru_cache(maxsize=None)
def _transfer_plan(spec: AlgebraSpec, shape: SkewDiagram) -> tuple:
    """The transfer matrix of ``shape``, built once per (spec, shape): for
    each cell in row-major order, the number of states after it, every
    transition (state before, label position, state after) grouped by state
    before, states and labels ascending, and where each group starts.

    A state is the labels of the filled cells that a later cell still needs
    as its left or top neighbour: a frontier of columns on a B shape, the
    previous label alone on a D line.  State 0 is the empty prefix; every
    state a partial filling reaches is kept.  D-family shapes other than
    (1^a) and (m^1) raise UnsupportedShape.
    """
    _check_shape(spec, shape)
    right, below = _successors(spec)
    every = tuple(range(len(right)))
    cells = shape.cells()
    n = len(cells)
    index = {c: k for k, c in enumerate(cells)}
    left = [index.get((i, j - 1)) for i, j in cells]
    top = [index.get((i - 1, j)) for i, j in cells]
    needed = [max((k2 for k2 in range(n) if c in (left[k2], top[k2])),
                  default=-1) for c in range(n)]   # last cell needing c
    live: list[int] = []            # cells whose labels make up the state
    states: dict[tuple, int] = {(): 0}
    plan = []
    for k in range(n):
        pos = {c: p for p, c in enumerate(live)}
        lp, tp = pos.get(left[k]), pos.get(top[k])
        live = [c for c in live if needed[c] > k]
        keep = [pos[c] for c in live]
        grow = needed[k] > k
        if grow:
            live.append(k)
        nxt: dict[tuple, int] = {}
        steps: list[tuple[int, int, int]] = []
        starts: list[int] = []
        for st, i in states.items():
            # only B cells have both neighbours, and B successor lists are
            # suffixes of the label order: the shorter one is the intersection
            cands = min(every if lp is None else right[st[lp]],
                        every if tp is None else below[st[tp]], key=len)
            starts.append(len(steps))
            base = tuple([st[p] for p in keep])
            for v in cands:
                key = base + (v,) if grow else base
                steps.append((i, v, nxt.setdefault(key, len(nxt))))
        plan.append((len(nxt), tuple(steps), tuple(starts + [len(steps)])))
        states = nxt
    return tuple(plan)


def fold_fillings(spec: AlgebraSpec, shape: SkewDiagram, start: A,
                  step: Callable[[A, int, int], A]) -> Iterator[A]:
    """Fold ``step(acc, k, v)`` along every admissible tableau, from ``start``,
    and yield the final value of each; k is the cell's index in
    ``shape.cells()`` and v its label's position in ``index_set(spec)``.

    One depth-first walk of ``_transfer_plan``, each cell taking its labels
    in ascending position, so the order of the tableaux is deterministic and
    a prefix shared by several tableaux is folded once.  D-family shapes
    other than (1^a) and (m^1) raise UnsupportedShape here, before anything
    is yielded.
    """
    plan = _transfer_plan(spec, shape)

    def rec(k: int, i: int, acc: A) -> Iterator[A]:
        if k == len(plan):
            yield acc
            return
        _, steps, starts = plan[k]
        for _, v, j in steps[starts[i]:starts[i + 1]]:
            yield from rec(k + 1, j, step(acc, k, v))

    return rec(0, 0, start)


def transfer_sum(spec: AlgebraSpec, shape: SkewDiagram,
                 weights: Sequence[Sequence[A]]) -> A:
    """Sum over the admissible tableaux of prod_k ``weights[k][v_k]``, exact,
    without visiting the tableaux one by one; k and v index cells and labels
    as in ``fold_fillings``.

    A call runs only the multiply-adds of ``_transfer_plan``, the transfer
    matrix (the lattice-path reading of Jacobi-Trudi, Gessel & Viennot
    1985): each state carries the weight summed over every partial filling
    that reaches it.  Returns 1 for the empty shape.
    """
    vals: list = [1]
    for (size, steps, _), wk in zip(_transfer_plan(spec, shape), weights,
                                    strict=True):
        nxt: list = [0] * size
        for i, v, j in steps:
            nxt[j] += vals[i] * wk[v]
        vals = nxt
    return sum(vals)


def iter_fillings(spec: AlgebraSpec, shape: SkewDiagram) -> Iterator[tuple[int, ...]]:
    """Every admissible tableau as its labels in cell order (``shape.cells()``),
    each label given by its position in ``index_set(spec)``, in the order of
    ``fold_fillings``."""
    return fold_fillings(spec, shape, (), lambda acc, k, v: acc + (v,))


def enumerate_tableaux(spec: AlgebraSpec, shape: SkewDiagram) -> Iterator[Tableau]:
    """All admissible tableaux, each exactly once, in a deterministic order."""
    labels = index_set(spec)
    cells = shape.cells()
    for fill in iter_fillings(spec, shape):
        yield Tableau(shape, tuple((i, j, labels[v])
                                   for (i, j), v in zip(cells, fill)))


def count_tableaux(spec: AlgebraSpec, shape: SkewDiagram) -> int:
    """Number of admissible tableaux: ``transfer_sum`` with unit weights."""
    return transfer_sum(spec, shape,
                        [(1,) * len(index_set(spec))] * shape.n_cells())
