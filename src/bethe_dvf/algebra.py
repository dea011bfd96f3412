"""Root data of the orthosymplectic families osp(2r+1|2s) and osp(2r|2s).

The two families are written B(r|s) (odd orthogonal, r >= 0) and D(r|s)
(even orthogonal, r >= 2), always with the distinguished simple root system.
Weights live in the span of epsilon_1..epsilon_r, delta_1..delta_s with

    (eps_i|eps_j) = delta_ij,  (delta_i|delta_j) = -delta_ij,  (eps|delta) = 0.

Box labels form the index set J: unbarred 1..s+r, their bars, and (for B
only) the extra label 0.  B carries a total order on J; D leaves s+r and
bar(s+r) mutually incomparable.  Label a <= s weighs delta_a, a > s weighs
epsilon_{a-s}, a bar the negative and 0 nothing; the simple roots are the
differences of consecutive weights along J.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


class UnsupportedShape(ValueError):
    """Shape outside the domain where the construction is defined."""


class WrongAlgebra(ValueError):
    """Operation restricted to a different algebra family."""


class NotFiniteDimensional(ValueError):
    """Kac-Dynkin label violates the finite-dimensionality condition."""


@dataclass(frozen=True)
class AlgebraSpec:
    family: str  # "B" or "D"
    r: int
    s: int

    def __post_init__(self):
        if self.family not in ("B", "D"):
            raise ValueError(f"family must be B or D, got {self.family!r}")
        if self.s < 1:
            raise ValueError("s must be >= 1")
        if self.family == "B" and self.r < 0:
            raise ValueError("B family needs r >= 0")
        if self.family == "D" and self.r < 2:
            raise ValueError("D family needs r >= 2")

    @property
    def rank(self) -> int:
        return self.s + self.r

    def __str__(self) -> str:
        return f"{self.family}({self.r}|{self.s})"


_SPEC_RE = re.compile(r"^\s*([BD])\((\d+)\|(\d+)\)\s*$")


def parse_spec(text: str) -> AlgebraSpec:
    """Parse compact algebra names like "B(2|1)", "D(3|1)", "B(0|2)"."""
    m = _SPEC_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse algebra spec {text!r}")
    return AlgebraSpec(m.group(1), int(m.group(2)), int(m.group(3)))


# ---------------------------------------------------------------------------
# simple roots and the bilinear form


def _simple_root(spec: AlgebraSpec, a: int) -> tuple[dict[int, int], dict[int, int]]:
    """Simple root alpha_a as (delta coefficients, epsilon coefficients): the
    weight of label J[a-1] minus that of J[a] along J = ``index_set``, but
    for D's last root, which steps from s+r-1 (J[a-2]) to bar(s+r).  The two
    labels have different values, so no coefficient of one meets the other."""
    if not 1 <= a <= spec.rank:
        raise ValueError(f"root index {a} out of range 1..{spec.rank}")
    labels = index_set(spec)
    fork = spec.family == "D" and a == spec.rank
    hi, lo = _weight(spec, labels[a - 1 - fork]), _weight(spec, labels[a])
    return tuple({**p, **{i: -c for i, c in q.items()}} for p, q in zip(hi, lo))


def _inner(x: tuple, y: tuple) -> int:
    """(x|y) of two weights, each (delta coefficients, epsilon coefficients)."""
    (dx, ex), (dy, ey) = x, y
    return (sum(ex[i] * ey.get(i, 0) for i in ex)
            - sum(dx[i] * dy.get(i, 0) for i in dx))


@lru_cache(maxsize=None)
def bilinear_form(spec: AlgebraSpec, a: int, b: int) -> Fraction:
    """(alpha_a | alpha_b) in the normalization |(alpha|alpha)| = 2 for the longest root."""
    return Fraction(_inner(_simple_root(spec, a), _simple_root(spec, b)))


def root_degree(spec: AlgebraSpec, a: int) -> int:
    """Grading of the simple root: the parity of its delta part."""
    return sum(_simple_root(spec, a)[0].values()) % 2


# ---------------------------------------------------------------------------
# box labels


@dataclass(frozen=True)
class IndexLabel:
    kind: str            # "unbarred" | "barred" | "zero"
    value: int = 0       # in [1, s+r]; unused for "zero"

    def __post_init__(self):
        if self.kind not in ("unbarred", "barred", "zero"):
            raise ValueError(f"bad label kind {self.kind!r}")

    def __str__(self) -> str:
        if self.kind == "zero":
            return "0"
        return f"{self.value}b" if self.kind == "barred" else str(self.value)


def unb(value: int) -> IndexLabel:
    return IndexLabel("unbarred", value)


def bar(value: int) -> IndexLabel:
    return IndexLabel("barred", value)


ZERO_LABEL = IndexLabel("zero")


def parse_label(text: str) -> IndexLabel:
    if text == "0":
        return ZERO_LABEL
    if text.endswith("b"):
        return bar(int(text[:-1]))
    return unb(int(text))


@lru_cache(maxsize=None)
def index_set(spec: AlgebraSpec) -> tuple[IndexLabel, ...]:
    """All labels in the deterministic iteration order used for enumeration.

    Unbarred ascending, then 0 (B only), then barred descending; for D the
    incomparable pair appears as s+r then bar(s+r).
    """
    n = spec.rank
    out = [unb(v) for v in range(1, n + 1)]
    if spec.family == "B":
        out.append(ZERO_LABEL)
    out.extend(bar(v) for v in range(n, 0, -1))
    return tuple(out)


def validate_label(spec: AlgebraSpec, label: IndexLabel) -> None:
    if label.kind == "zero":
        if spec.family != "B":
            raise ValueError("label 0 only exists in the B family")
        return
    if not 1 <= label.value <= spec.rank:
        raise ValueError(f"label value {label.value} out of range 1..{spec.rank}")


def _level(spec: AlgebraSpec, x: IndexLabel) -> int:
    """Position along the order chain; D maps s+r and bar(s+r) to one level."""
    if x.kind == "unbarred":
        return x.value
    if x.kind == "zero":                # B only
        return spec.rank + 1
    return 2 * spec.rank + (2 if spec.family == "B" else 0) - x.value


def grading(spec: AlgebraSpec, x: IndexLabel) -> int:
    """1 for labels whose weight has a delta part (1..s and bars), 0 otherwise."""
    validate_label(spec, x)
    return 1 if _weight(spec, x)[0] else 0


def _weight(spec: AlgebraSpec, x: IndexLabel) -> tuple[dict[int, int], dict[int, int]]:
    """Weight of a label as (delta coefficients, epsilon coefficients): a <= s
    weighs delta_a, a > s epsilon_{a-s}, a bar the negative, 0 nothing."""
    if x.kind == "zero":
        return {}, {}
    c, s = (1 if x.kind == "unbarred" else -1), spec.s
    return ({x.value: c}, {}) if x.value <= s else ({}, {x.value - s: c})


# ---------------------------------------------------------------------------
# Kac-Dynkin labels


@dataclass(frozen=True)
class KacDynkinLabel:
    b: tuple[Fraction, ...]

    def __len__(self) -> int:
        return len(self.b)


def _kac_dynkin(spec: AlgebraSpec, *weights: tuple) -> KacDynkinLabel:
    """Label of the sum w of the weights, each (delta coefficients, epsilon
    coefficients): b_a = 2(w|alpha_a)/(alpha_a|alpha_a), or -(w|alpha_a)
    where alpha_a is isotropic."""
    out = []
    for a in range(1, spec.rank + 1):
        root = _simple_root(spec, a)
        w, norm = sum(_inner(x, root) for x in weights), _inner(root, root)
        out.append(Fraction(2 * w, norm) if norm else Fraction(-w))
    return KacDynkinLabel(tuple(out))


def kac_dynkin_from_diagram(spec: AlgebraSpec, mu: tuple[int, ...]) -> KacDynkinLabel:
    """Highest-weight label of the Young diagram mu: the label of the sum of
    the ``_weight``s of its top filling (``tableaux._top_filling``, which
    refuses the diagrams without one)."""
    # tableaux imports this module
    from .tableaux import SkewDiagram, _top_filling

    filling = _top_filling(spec, SkewDiagram.straight(mu))
    return _kac_dynkin(spec, *(_weight(spec, x) for x in filling))


def dimension_b0s(s: int, label: KacDynkinLabel) -> int:
    """Dimension of the irreducible osp(1|2s) module with the given label.

    The label must satisfy the finite-dimensionality condition: b_j a
    nonnegative integer for j < s and b_s a nonnegative even integer.
    """
    if len(label) != s:
        raise ValueError(f"label length {len(label)} != s = {s}")
    b = label.b
    for j, v in enumerate(b, start=1):
        if v.denominator != 1 or v < 0:
            raise NotFiniteDimensional(f"b_{j} = {v} not a nonnegative integer")
    if b[s - 1] % 2 != 0:
        raise NotFiniteDimensional(f"b_s = {b[s - 1]} must be even")

    def seg(j: int, k: int) -> Fraction:
        # b_j + b_{j+1} + ... + b_{k-1}; empty (= 0) when j >= k
        return sum(b[j - 1:k - 1], Fraction(0))

    val = Fraction(1)
    for i in range(1, s + 1):
        for j in range(i + 1, s + 1):
            val *= (seg(i, j) + (j - i)) / (j - i)
            val *= (seg(i, j) + 2 * seg(j, s) + b[s - 1] + 2 * s - i - j + 1) \
                / (2 * s - i - j + 1)
    for k in range(1, s + 1):
        val *= (2 * seg(k, s) + b[s - 1] + 2 * s - 2 * k + 1) / (2 * s - 2 * k + 1)
    if val.denominator != 1:
        raise ArithmeticError(f"dimension came out non-integer: {val}")
    return int(val)
