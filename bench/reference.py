"""Reference checkers, written apart from the program they check.

* a plain evaluator that walks a term's ``qs`` and ``phis`` and multiplies
  out Q_a(x) = prod (x - u_j^(a)) and phi(x) = prod (x - w_j) in whatever
  number type the point uses (``Fraction`` or ``complex``);
* the Jacobi-Trudi entry matrices, written from the paper's formulas
  (one over single columns T^a, one over single rows T_m);
* the term counts the paper tabulates;
* a contour estimate of the residue of a sum at a pole, for the Bethe side.

Each checker has a negative control that must fail; ``selftest.py`` runs
them all.
"""

from __future__ import annotations

import cmath
from fractions import Fraction

# Term counts published with the construction: B(0|2) columns (1^a) and
# two-column rectangles (2^a), the 31/33-term D-family columns of height
# two, and the empty B(1|1) sum of the (4,4,4) rectangle, which lies
# outside the fat hook.
PAPER_COUNTS = {
    ("B(0|2)", (1,)): 5, ("B(0|2)", (1, 1)): 15,
    ("B(0|2)", (1, 1, 1)): 35, ("B(0|2)", (1, 1, 1, 1)): 70,
    ("B(0|2)", (2,)): 10, ("B(0|2)", (2, 2)): 50,
    ("B(0|2)", (2, 2, 2)): 175, ("B(0|2)", (2, 2, 2, 2)): 490,
    ("D(3|1)", (1, 1)): 31, ("D(2|2)", (1, 1)): 33,
    ("B(1|1)", (4, 4, 4)): 0,
}


def count_mismatches(counts: dict) -> list:
    """Keys of PAPER_COUNTS whose count in ``counts`` differs or is missing."""
    return [key for key, want in PAPER_COUNTS.items() if counts.get(key) != want]


class RefPole(ArithmeticError):
    """A denominator factor vanishes at the point."""


def _poly(x, zeros):
    out = 1
    for z in zeros:
        out *= x - z
    return out


def ref_term(term, u, roots: dict, inhoms) -> object:
    """c * prod Q_a(u + s)^e * prod phi(u + s)^f, denominators checked."""
    num, den = term.coeff, 1
    factors = [(_poly(u + s, roots.get(c, ())), e) for c, s, e in term.qs]
    factors += [(_poly(u + s, inhoms), e) for s, e in term.phis]
    for value, e in factors:
        if e > 0:
            num *= value ** e
        else:
            den *= value ** -e
    if den == 0:
        raise RefPole("denominator vanishes")
    return num / den


def ref_sum(x, u, roots: dict, inhoms):
    """Value of a SymSum; exact when the point is made of Fractions."""
    total = 0
    for t in x.terms:
        total += ref_term(t, u, roots, inhoms)
    return total


def factor_keys(terms, denominators_only: bool = True) -> set:
    """(color or None, shift) of the factors of ``terms``: the denominators,
    or every factor."""
    keys = set()
    for t in terms:
        keys.update((c, s) for c, s, e in t.qs if e < 0 or not denominators_only)
        keys.update((None, s) for s, e in t.phis
                    if e < 0 or not denominators_only)
    return keys


def vanishes(keys, u, roots: dict, inhoms) -> bool:
    """True when some factor of ``keys`` is zero at the point."""
    return any(_poly(u + s, inhoms if c is None else roots.get(c, ())) == 0
               for c, s in keys)


# ---------------------------------------------------------------------------
# Jacobi-Trudi entry matrices


def conjugate_parts(parts) -> tuple:
    return tuple(sum(1 for p in parts if p >= i)
                 for i in range(1, (parts[0] if parts else 0) + 1))


def _part(parts, i: int) -> int:
    return parts[i - 1] if 1 <= i <= len(parts) else 0


def jt_column_matrix(mu, lam=()) -> list:
    """(a, shift) entries of T_{lam c mu}(u) = det T^a(u + shift), size mu_1:

        a     = mu'_i - lam'_j - i + j
        shift = -mu_1 + mu'_1 - mu'_i - lam'_j + i + j - 1
    """
    mup, lamp = conjugate_parts(mu), conjugate_parts(lam)
    n = _part(mu, 1)
    return [[(_part(mup, i) - _part(lamp, j) - i + j,
              -_part(mu, 1) + _part(mup, 1) - _part(mup, i) - _part(lamp, j)
              + i + j - 1)
             for j in range(1, n + 1)] for i in range(1, n + 1)]


def jt_row_matrix(mu, lam=()) -> list:
    """(m, shift) entries of T_{lam c mu}(u) = det T_m(u + shift), size mu'_1:

        m     = mu_j - lam_i + i - j
        shift = -mu_1 + mu'_1 + mu_j + lam_i - i - j + 1
    """
    mup = conjugate_parts(mu)
    n = _part(mup, 1)
    return [[(_part(mu, j) - _part(lam, i) + i - j,
              -_part(mu, 1) + _part(mup, 1) + _part(mu, j) + _part(lam, i)
              - i - j + 1)
             for j in range(1, n + 1)] for i in range(1, n + 1)]


def shifted_control(matrix: list) -> list:
    """Negative control: the (1, 1) entry evaluated 2 further along u."""
    bad = [row[:] for row in matrix]
    a, shift = bad[0][0]
    bad[0][0] = (a, shift + 2)
    return bad


def ref_det(matrix: list) -> Fraction:
    """Exact determinant by Laplace expansion along the first row."""
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    total = Fraction(0)
    for j in range(n):
        if matrix[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        total += (-1) ** j * matrix[0][j] * ref_det(minor)
    return total


# ---------------------------------------------------------------------------
# residues at Bethe roots


def pole_locations(x, roots: dict) -> list:
    """(color, k, shift) for every root that a denominator factor puts a
    candidate pole on: Q_c(u + s) with a negative exponent vanishes at
    u = u_k^(c) - s."""
    shifts = sorted({(c, -s) for t in x.terms for c, s, e in t.qs if e < 0})
    return [(c, k, s) for c, s in shifts for k in range(len(roots.get(c, ())))]


def contour_residue(x, pole: complex, roots: dict, inhoms,
                    radius: float = 1e-3, nodes: int = 32) -> float:
    """|residue| / (radius * max |x|) on a circle around ``pole``.

    The trapezoid rule on the circle gives the c_{-1} Laurent coefficient up
    to terms of order radius**nodes; a sum without a pole there reads at
    rounding level, a sum with one reads of order 1.
    """
    res, scale = 0j, 0.0
    for j in range(nodes):
        z = radius * cmath.exp(2j * cmath.pi * j / nodes)
        val = ref_sum(x, pole + z, roots, inhoms)
        res += val * z
        scale = max(scale, abs(val))
    res /= nodes
    return 0.0 if scale == 0 else abs(res) / (radius * scale)
