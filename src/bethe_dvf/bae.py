"""Bethe ansatz equations: instances, numeric solutions, residue checks.

Solved root sets feed the analytic checks: adjacent box functions share
simple poles whose residues cancel pairwise under the equations, and whole
tableaux sums are then pole-free.  Both statements are verified numerically
at solved instances rather than proved.  The numbers come from ``newton``,
the one module that imports numpy, which is imported only when needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations

from .algebra import (AlgebraSpec, IndexLabel, ZERO_LABEL, bar, bilinear_form,
                      index_set, unb)
from .dvf import BoxContext, box_product, crossing_shift, signed_box
from .reports import IdentityReport, exact_report
from .symbolic import (Assignment, GenericityViolation, SymSum, SymTerm,
                       evaluate, residue_breakdown)

GENERIC_TOL = 1e-6       # same-color roots this near each other or a resonant gap clash
RESIDUE_EPS = 1e-8       # relative residue below which a pole counts as gone
POLE_GAP_TOL = 1e-8      # candidate poles this near each other coincide
LAURENT_RADIUS = 1e-3    # of the circle _laurent_tail samples around a pole
LAURENT_NODES = 16       # sample points on that circle


class NoSolutionFound(RuntimeError):
    """Every Newton start failed to converge to an acceptable root set."""


@dataclass(frozen=True)
class BetheSystem:
    spec: AlgebraSpec
    n_sites: int
    inhoms: tuple
    root_counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.inhoms) != self.n_sites:
            raise ValueError("need one inhomogeneity per site")
        if len(self.root_counts) != self.spec.rank:
            raise ValueError(f"need {self.spec.rank} root counts")
        if any(n < 0 for n in self.root_counts):
            raise ValueError("root counts must be >= 0")

    @property
    def n_roots(self) -> int:
        return sum(self.root_counts)


@dataclass(frozen=True)
class BetheRootSet:
    roots: tuple[tuple[complex, ...], ...]  # per color, length = rank

    def as_mapping(self) -> dict[int, tuple[complex, ...]]:
        return {a + 1: vs for a, vs in enumerate(self.roots)}

    def to_json(self) -> dict:
        return {"schema": 1,
                "roots": [[[v.real, v.imag] for v in vs] for vs in self.roots]}

    @staticmethod
    def from_json(d: dict) -> BetheRootSet:
        return BetheRootSet(tuple(tuple(complex(re, im) for re, im in vs)
                                  for vs in d["roots"]))


def bae_parts(sys: BetheSystem, roots: BetheRootSet, a: int,
              k: int) -> tuple[complex, complex, complex, complex]:
    """Numerators and denominators (ln, ld, rn, rd) of equation (a, k).

    The equation reads ln/ld = rn/rd; products only, so any root
    configuration can be evaluated.
    """
    counts = tuple(len(vs) for vs in roots.roots)
    if not (1 <= a <= len(counts) and 1 <= k <= counts[a - 1]):
        raise IndexError(f"no equation ({a},{k}) for root counts {counts}")
    j = sum(counts[:a - 1]) + k - 1
    from . import newton
    parts = newton._complex_parts(sys, counts, [sum(roots.roots, ())])
    return tuple(p[0][j] for p in parts)


def max_residual(sys: BetheSystem, roots: BetheRootSet) -> float:
    from . import newton
    worst = newton._max_residuals(sys, [sum(roots.roots, ())])[0]
    if isinstance(worst, tuple):
        raise ZeroDivisionError(
            "degenerate configuration in equation ({},{})".format(*worst))
    return worst


# ---------------------------------------------------------------------------
# numeric solving


def _split(counts: tuple[int, ...], vec) -> tuple[tuple[complex, ...], ...]:
    """The flat root vector, a numpy row, cut into one tuple per color."""
    xs = tuple(vec.tolist())
    return tuple([xs[j - n:j] for n, j in zip(counts, accumulate(counts))])


def assert_generic(sys: BetheSystem, roots: BetheRootSet) -> None:
    """Reject root sets where same-color roots coincide or sit at the
    resonant separations (the self-pairing value, or 2)."""
    for a, vs in enumerate(roots.roots, start=1):
        gap = abs(complex(bilinear_form(sys.spec, a, a)))
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                d = abs(vs[i] - vs[j])
                if d < GENERIC_TOL:
                    raise GenericityViolation(
                        f"color {a} roots {i} and {j} coincide")
                if abs(d - gap) < GENERIC_TOL or abs(d - 2) < GENERIC_TOL:
                    raise GenericityViolation(
                        f"color {a} roots {i} and {j} at resonant separation {d:.3g}")


def _fingerprint(roots: BetheRootSet) -> tuple:
    return tuple(tuple(sorted((round(v.real, 6), round(v.imag, 6)) for v in vs))
                 for vs in roots.roots)


def solve_bae(sys: BetheSystem, tol: float = 1e-10, n_starts: int = 32,
              seed: int = 0, max_iter: int = 80, start_radius: float = 3.0,
              stats: dict | None = None) -> list[BetheRootSet]:
    """Damped Newton with multi-start; converged root sets deduplicated up to
    same-color permutation and filtered for genericity.

    All starts advance together, and each takes exactly the iterates it
    would take alone.  Raises ValueError unless tol > 0 (a NaN is not) and
    n_starts, max_iter >= 1, and NoSolutionFound when nothing converges;
    that is a report about this search, not a proof that no solution
    exists.  Pass a dict as ``stats`` to receive per-start bookkeeping (how
    many starts converged, were rejected and why).
    """
    if not tol > 0 or n_starts < 1 or max_iter < 1:
        raise ValueError(f"need tol > 0, n_starts >= 1 and max_iter >= 1, "
                         f"got {tol}, {n_starts} and {max_iter}")
    if stats is None:
        stats = {}
    stats.update(starts=0, converged=0, residual_rejected=0,
                 genericity_rejected=0, runaway_rejected=0, distinct=0)
    if sys.n_roots == 0:
        return [BetheRootSet(tuple(() for _ in sys.root_counts))]

    from . import newton
    converged = newton.search(sys, n_starts, seed, max_iter, start_radius)
    stats.update(starts=n_starts, converged=len(converged))
    found: dict[tuple, BetheRootSet] = {}
    for vec, res in converged:
        # a tuple: a spurious polynomial root sitting on a denominator zero
        if isinstance(res, tuple) or res >= tol:
            stats["residual_rejected"] += 1
            continue
        roots = BetheRootSet(_split(sys.root_counts, vec))
        try:
            assert_generic(sys, roots)
        except GenericityViolation:
            stats["genericity_rejected"] += 1
            continue
        if max(abs(v) for vs in roots.roots for v in vs) > 1e3:
            stats["runaway_rejected"] += 1
            continue  # a solution escaping to infinity
        found.setdefault(_fingerprint(roots), roots)

    stats["distinct"] = len(found)
    if not found:
        raise NoSolutionFound(
            f"no acceptable root set from {n_starts} starts (tol={tol})")
    return [found[key] for key in sorted(found)]


# ---------------------------------------------------------------------------
# residue-pair relations


def _pair_relations(spec: AlgebraSpec):
    """(name, color d, pole shift, [label, label]) tuples: the signed boxes
    of the two labels have residues at the shift that cancel in their sum.

    One list serves both families.  Each down-shift is -K minus its up-shift,
    K = crossing_shift(spec), as the barred boxes are the crossing images of
    the unbarred ones.  The odd pair reads the labels next to s and sbar on
    the chain ``index_set``, 0 in B(0|s), which has no outer block and no
    tail; only the tail differs between the families.
    """
    s, r = spec.s, spec.r
    n = s + r
    k = crossing_shift(spec)
    j = index_set(spec)
    up, down = j[s], j[-s - 1]
    if spec.family == "D":
        tail = [("fork-a", n, s - r + 1, [unb(n - 1), bar(n)]),
                ("fork-b", n, s - r + 1, [unb(n), bar(n - 1)])]
    elif r:
        tail = [("tail-up", n, s - r, [unb(n), ZERO_LABEL]),
                ("tail-down", n, s - r + 1, [ZERO_LABEL, bar(n)])]
    else:
        tail = []
    return ([(f"inner-up[{d}]", d, d, [unb(d), unb(d + 1)])
             for d in range(1, s)]
            + [("odd-up", s, s, [unb(s), up])]
            + [(f"outer-up[{d}]", d, 2 * s - d, [unb(d), unb(d + 1)])
               for d in range(s + 1, n)]
            + tail
            + [(f"outer-down[{d}]", d, d - 2 * s - k, [bar(d + 1), bar(d)])
               for d in range(s + 1, n)]
            + [("odd-down", s, -s - k, [down, bar(s)])]
            + [(f"inner-down[{d}]", d, -d - k, [bar(d + 1), bar(d)])
               for d in range(1, s)])


def _relative_residue(x: SymSum, color: int, k: int, shift: int,
                      asg: Assignment) -> float:
    """|total residue| over the summed sizes of the term residues, or inf:
    where no term has one, the check has nothing to cancel."""
    parts = residue_breakdown(x, color, k - 1, shift, asg)
    scale = sum(abs(p) for p in parts)
    return abs(sum(parts, 0j)) / scale if scale else float("inf")


def check_residue_pairs(spec: AlgebraSpec, sys: BetheSystem,
                        roots: BetheRootSet) -> IdentityReport:
    """All pairwise residue cancellations at one solved instance.  A relation
    fails unless both boxes have a residue: one alone reads 1, none inf."""
    ctx = BoxContext(spec, include_vacuum=True)
    asg = Assignment.float_point(0, roots.as_mapping(),
                                 [complex(w) for w in sys.inhoms])
    rows = []
    worst = 0.0
    for name, d, shift, labels in _pair_relations(spec):
        x = SymSum.make([signed_box(ctx, lab) for lab in labels])
        for k in range(1, sys.root_counts[d - 1] + 1):
            rel = _relative_residue(x, d, k, shift, asg)
            worst = max(worst, rel)
            rows.append({"relation": name, "color": d, "k": k, "residue": rel})
    return IdentityReport(name=f"residue-pairs {spec}", mode="numeric",
                          samples=len(rows), max_deviation=worst,
                          passed=worst < RESIDUE_EPS, details={"cases": rows})


def _laurent_tail(x: SymSum, pole: complex, asg: Assignment,
                  order: int) -> tuple[list[complex], float]:
    """Contour estimates of the c_{-1}..c_{-order} Laurent coefficients.

    Used where single terms carry the pole to a power >= 2, which the
    per-term simple-residue formula cannot treat; sampling the full sum on a
    small circle sees only the actual singularity of the total.
    Returns the coefficients and the maximum |f| on the circle (the natural
    scale for a relative smallness test).
    """
    import cmath

    coeffs = [complex(0)] * order
    scale = 0.0
    for j in range(LAURENT_NODES):
        z = LAURENT_RADIUS * cmath.exp(2j * cmath.pi * j / LAURENT_NODES)
        asg_j = Assignment(pole + z, asg.roots, asg.inhoms)
        val = evaluate(x, asg_j)
        scale = max(scale, abs(val))
        for m in range(1, order + 1):
            coeffs[m - 1] += val * z ** m
    return [c / LAURENT_NODES for c in coeffs], scale


def check_pole_free(dvf_sum: SymSum, sys: BetheSystem, roots: BetheRootSet,
                    name: str = "pole-free") -> IdentityReport:
    """Total residue at every candidate pole of the sum, relative to the
    term-magnitude scale; itemized per color."""
    asg = Assignment.float_point(0, roots.as_mapping(),
                                 [complex(w) for w in sys.inhoms])
    # (color, shift) of each candidate pole: u = u_k^(color) + shift zeroes a
    # denominator
    cands = sorted({(c, -s) for t in dvf_sum.terms for c, s, e in t.qs if e < 0})
    locations = [(color, k, shift, roots.roots[color - 1][k - 1] + complex(shift))
                 for color, shift in cands
                 for k in range(1, sys.root_counts[color - 1] + 1)]
    for a, b in combinations(locations, 2):
        if a[:2] != b[:2] and abs(a[3] - b[3]) < POLE_GAP_TOL:
            raise GenericityViolation(f"candidate poles coincide: {a} vs {b}")
    per_color: dict[int, float] = {}
    rows = []
    worst = 0.0
    for color, k, shift, pole in locations:
        # the highest power of the pole's factor in a single term
        order = max((-e for t in dvf_sum.terms for c, s, e in t.qs
                     if c == color and s == -shift and e < 0), default=0)
        if order <= 1:
            rel = _relative_residue(dvf_sum, color, k, shift, asg)
            how = "residue"
        else:
            # individual terms see the pole to a higher power; probe the
            # actual singularity of the total on a small circle instead
            coeffs, scale = _laurent_tail(dvf_sum, pole, asg, order)
            rel = 0.0 if scale == 0 else max(
                abs(c) / (LAURENT_RADIUS ** m * scale)
                for m, c in enumerate(coeffs, start=1))
            how = f"laurent[{order}]"
        worst = max(worst, rel)
        per_color[color] = max(per_color.get(color, 0.0), rel)
        rows.append({"color": color, "k": k, "shift": str(shift),
                     "residue": rel, "method": how})
    return IdentityReport(name=name, mode="numeric", samples=len(rows),
                          max_deviation=worst, passed=worst < RESIDUE_EPS,
                          details={"per_color": {str(c): v for c, v in
                                                 sorted(per_color.items())},
                                   "cases": rows})


# ---------------------------------------------------------------------------
# exact lemma-level checks (no roots involved)


def _contains_color(x: SymSum | SymTerm, color: int) -> bool:
    terms = x.terms if isinstance(x, SymSum) else (x,)
    return any(c == color for t in terms for c, _, _ in t.qs)


def _ratio_sum(entries) -> SymSum:
    """Sum of plain Q-ratio terms given as (num, den) lists of (color, shift)."""
    return SymSum.make(SymTerm.make(1, [(c, sh, 1) for c, sh in num]
                                    + [(c, sh, -1) for c, sh in den])
                       for num, den in entries)


def _b_tail_group(spec: AlgebraSpec, z: int, d: int) -> SymSum:
    """Q_n(u+z+d)/Q_n(u+z) + Q_{n-1}(u+z+d) Q_n(u+z-d) / (Q_{n-1}(u+z-d)
    Q_n(u+z)): a two-term factor of the B-family tail analysis."""
    n = spec.rank
    return _ratio_sum([([(n, z + d)], [(n, z)]),
                       ([(n - 1, z + d), (n, z - d)], [(n - 1, z - d), (n, z)])])


def _d_tail_groups(spec: AlgebraSpec, n_alt: int) -> dict[str, SymSum]:
    """The eight two-term factors of the D-family tail analysis.

    ``n_alt`` is the number of alternation steps (length 2*n_alt or
    2*n_alt + 1 partial sums).  A/B and E/H avoid Q_{s+r}; C/D and F/G avoid
    Q_{s+r-1}.  E equals A and G equals C.
    """
    n = spec.rank
    e = spec.r - spec.s
    m = 4 * n_alt

    def g(c: int, x: int, d: int) -> SymSum:
        # Q_c(u+x+d)/Q_c(u+x-d)
        #   + Q_{n-2}(u+x) Q_c(u+x-3d) / (Q_{n-2}(u+x-2d) Q_c(u+x-d))
        return _ratio_sum([([(c, x + d)], [(c, x - d)]),
                           ([(n - 2, x), (c, x - 3 * d)],
                            [(n - 2, x - 2 * d), (c, x - d)])])

    a, c = g(n - 1, e, 1), g(n, e, 1)
    return {"A": a, "B": g(n - 1, e - m, -1), "C": c, "D": g(n, e - m, -1),
            "E": a, "F": g(n, e - m - 2, -1), "G": c,
            "H": g(n - 1, e - m - 2, -1)}


def _column_sum(ctx: BoxContext, patterns: list[list[IndexLabel]]) -> SymSum:
    """Sum of the box products down a column, one per label pattern."""
    return SymSum.make(box_product(ctx, labs, range(0, -2 * len(labs), -2))
                       for labs in patterns)


def check_lemma_products(spec: AlgebraSpec) -> IdentityReport:
    """Exact cancellation lemmas behind pole-freeness, checked symbolically.

    Column pairs [b over b+1] (outer colors) and row pairs [b|b+1] plus the
    [s|0|sbar] run lose every Q of the bridged color; the four-term partial
    sums over 0-runs / extreme-label alternations factor into the two-term
    groups A..H, which avoid the excluded color.
    """
    ctx = BoxContext(spec, include_vacuum=False)
    s, r, n = spec.s, spec.r, spec.rank
    checks: list[tuple[str, bool]] = []

    if spec.family == "B":
        # column pairs over the outer colors, row pairs when r = 0
        line, bs, d = ("column", range(s + 1, n), -2) if r else ("row", range(1, s), 2)
        for b in bs:
            for tag, labs in (("", [unb(b), unb(b + 1)]),
                              ("-bar", [bar(b + 1), bar(b)])):
                checks.append((f"{line}-pair{tag}[{b}]", not _contains_color(
                    box_product(ctx, labs, [0, d]), b)))
    if spec.family == "B" and r == 0:
        run = box_product(ctx, [unb(s), ZERO_LABEL, bar(s)],
                         [0, 2, 4])
        checks.append(("odd-run", not _contains_color(run, s)))
    if spec.family == "B" and r >= 1:
        for k in (2, 3):
            pats = [[ZERO_LABEL] * k,
                    [unb(n)] + [ZERO_LABEL] * (k - 1),
                    [ZERO_LABEL] * (k - 1) + [bar(n)],
                    [unb(n)] + [ZERO_LABEL] * (k - 2) + [bar(n)]]
            lhs = _column_sum(ctx, pats)
            # group a, then group b(k)
            rhs = (_b_tail_group(spec, r - s, 1)
                   * _b_tail_group(spec, r - s - 2 * k + 1, -1))
            checks.append((f"tail-factorization[k={k}]", lhs == rhs))
    if spec.family == "D":
        t, tb, t1, tb1 = unb(n), bar(n), unb(n - 1), bar(n - 1)
        partials = [("even-factorization-AB", [[t1], [t]], 1, [[tb1], [tb]]),
                    ("even-factorization-CD", [[tb, t], [t1, t]], 2,
                     [[tb, t], [tb, tb1]]),
                    ("odd-factorization-EF", [[t], [t1]], 1,
                     [[tb, t], [tb, tb1]]),
                    ("odd-factorization-GH", [[tb, t], [t1, t]], 1,
                     [[tb], [tb1]])]
        for n_alt in (2, 3):
            g = _d_tail_groups(spec, n_alt)
            for keys, c in (("ABEH", n), ("CDFG", n - 1)):
                checks.extend((f"{key}-avoids-Q{c}[n={n_alt}]",
                               not _contains_color(g[key], c)) for key in keys)
            # each four-term partial sum, head + [nbar, n]^(n_alt-k) + tail,
            # is the product of the two groups its name ends in
            for name, heads, k, tails in partials:
                pats = [h + [tb, t] * (n_alt - k) + tl
                        for h in heads for tl in tails]
                checks.append((f"{name}[n={n_alt}]", _column_sum(ctx, pats)
                               == g[name[-2]] * g[name[-1]]))

    return exact_report(f"lemma-products {spec}", all(ok for _, ok in checks),
                        len(checks), {"cases": [{"check": nm, "passed": ok}
                                                for nm, ok in checks]})
