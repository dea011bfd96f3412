"""Bethe ansatz equations: instances, numeric solutions, residue checks.

The equation for root k of color a equates a boundary factor (nontrivial
only for a = 1, where the inhomogeneity polynomial phi enters) with a
product of Q-ratios over the colors coupled to a.  For B(0|s) the color-s
equations take a special form that is NOT the specialization of the generic
root-system expression; the equation table below hard-codes that exception.
Each system is compiled once into one flat plan: its factor points sorted
by zero count and one index table of the factors of every product.  One
evaluator runs the plan at many root vectors at once, in a fixed number of
numpy operations, with the floats that Python's complex arithmetic gives on
one vector; the solver, bae_parts and max_residual all use it.

The multi-start Newton solver advances every live start together: one
evaluation covers all starts, all bumped Jacobian columns or the trials of
a line-search round, where each start tries its own window of step lengths,
and each start still takes exactly the iterates it takes alone.  Products
are written in real arithmetic, bump sizes use np.hypot and norms are summed
left to right in separate numpy operations, since numpy's complex products,
np.abs and the BLAS dots of np.linalg.norm may round differently.

Solved root sets feed the analytic checks: adjacent box functions share
simple poles whose residues cancel pairwise under the equations, and whole
tableaux sums are then pole-free.  Both statements are verified numerically
at solved instances rather than proved.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import accumulate, combinations

import numpy as np

from .algebra import (AlgebraSpec, IndexLabel, ZERO_LABEL, bar, bilinear_form,
                      index_set, root_degree, unb)
from .dvf import BoxContext, box, box_product, crossing_shift
from .reports import IdentityReport, exact_report
from .symbolic import (Assignment, GenericityViolation, SymSum, SymTerm,
                       evaluate, residue_breakdown)

GENERIC_TOL = 1e-6       # same-color roots this near each other or a resonant gap clash
RESIDUE_EPS = 1e-8       # relative residue below which a pole counts as gone
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


@lru_cache(maxsize=64)
def _equation_table(spec: AlgebraSpec, root_counts: tuple[int, ...]) -> tuple:
    """The equations compiled once into one flat evaluation plan.

    Every factor is a point: phi(u + c) over the inhomogeneities, or
    Q_b(u + c) over the roots of color b, at u = x[j] for the flat root
    vector x.  The phi points come first, then the Q points by zero count,
    most first, so that step t of the products over the zeros covers one
    slice of them.  Factor rows P and P + 1 are (1, 0) and (-1, 0).  rn and
    rd are products of factors, left-padded with (1, 0): (1, 0) * (1, 0) is
    the (1, 0) a product starts from.  An equation's sign is the last factor
    of its rn.  ln and ld are one factor each, ln times -1 for "-phi": "phi"
    is phi(u-1)/phi(u+1), "-phi" its negative, "-1" is -1/1, "1" is 1/1.

    Returns (cols, shifts, n_phi, zq, ends, gidx, lidx, lsign): point i is
    x[cols[i]] + shifts[:, i]; zq[t] is each Q point's zero at step t and
    ends[t] the number of Q points with more than t zeros; gidx[t] is the
    t-th factor of rn, then of rd, of each equation; lidx picks ln, then
    ld, and lsign multiplies ln.
    """
    s = spec.s

    def color_row(a: int):
        if spec.family == "B" and spec.r == 0:
            if s == 1:
                return "phi", None, [(1, 1), (1, -2)], [(1, -1), (1, 2)]
            if a == 1:
                return "-phi", None, [(1, -2), (2, 1)], [(1, 2), (2, -1)]
            if a < s:
                return ("-1", None, [(a - 1, 1), (a, -2), (a + 1, 1)],
                        [(a - 1, -1), (a, 2), (a + 1, -1)])
            # a == s: the exceptional odd-root form
            return ("1", None, [(s - 1, 1), (s, 1), (s, -2)],
                    [(s - 1, -1), (s, -1), (s, 2)])
        # a zero coupling drops out: its ratio is identically 1
        cs = [(b, c) for b in range(1, spec.rank + 1)
              if (c := bilinear_form(spec, a, b)) != 0]
        return ("-phi" if a == 1 else "-1", (-1) ** root_degree(spec, a),
                cs, [(b, -c) for b, c in cs])

    ends = list(accumulate(root_counts))
    one, minus = -1, -2         # the constant factors (1, 0) and (-1, 0)
    points: list = []           # (zeros, j, re, im); zeros None for phi

    def ref(zeros, j: int, re: float, im: float = 0.0) -> int:
        points.append((zeros, j, float(re), im))
        return len(points) - 1

    def q_refs(pairs, j: int) -> list:
        return [ref(range(ends[b - 1] - root_counts[b - 1], ends[b - 1]), j, c)
                for b, c in pairs]

    eqs = []
    for a, n_a in enumerate(root_counts, start=1):
        boundary, sign, num, den = color_row(a)
        last = [] if sign is None else [one if sign == 1 else minus]
        for j in range(ends[a - 1] - n_a, ends[a - 1]):
            if boundary in ("phi", "-phi"):
                # u - 1 is (re - 1, im - 0) in Python, the same as adding -0.0
                ln, ld = ref(None, j, -1.0, -0.0), ref(None, j, 1.0)
            else:
                ln, ld = minus if boundary == "-1" else one, one
            eqs.append((ln, ld, q_refs(num, j) + last, q_refs(den, j),
                        -1.0 if boundary == "-phi" else 1.0))

    order = sorted(range(len(points)), key=lambda i: (
        points[i][0] is not None, -len(points[i][0] or ())))
    pos = {i: k for k, i in enumerate(order)}
    pos.update({one: len(order), minus: len(order) + 1})
    points = [points[i] for i in order]
    n_phi = sum(z is None for z, _, _, _ in points)
    zeros = [z for z, _, _, _ in points[n_phi:]]
    steps = len(zeros[0]) if zeros else 0
    factors = [e[2] for e in eqs] + [e[3] for e in eqs]
    width = max(map(len, factors), default=0)
    gidx = [[pos[one]] * (width - len(f)) + [pos[i] for i in f] for f in factors]
    return (np.array([j for _, j, _, _ in points], dtype=int),
            np.array([[p[2] for p in points], [p[3] for p in points]])[..., None],
            n_phi, np.array([[z[t] if t < len(z) else 0 for z in zeros]
                             for t in range(steps)], dtype=int
                            ).reshape(steps, len(zeros)),
            [sum(len(z) > t for z in zeros) for t in range(steps)],
            np.array(gidx, dtype=int).reshape(2, len(eqs), width).transpose(2, 0, 1),
            np.array([[pos[e[0]] for e in eqs], [pos[e[1]] for e in eqs]], dtype=int),
            np.array([e[4] for e in eqs]).reshape(-1, 1))


def _cmul(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """Python's complex product of a and b, each split as (real, imaginary)
    along the first axis, into ``out``.  numpy's complex multiply may fuse
    a multiply-add and round differently."""
    p = a[:, None] * b[None]
    out = np.empty(p.shape[1:]) if out is None else out
    np.subtract(p[0, 0], p[1, 1], out=out[0])
    np.add(p[0, 1], p[1, 0], out=out[1])
    return out


def _evaluate(table: tuple, w: list[complex], x: np.ndarray) -> np.ndarray:
    """(ln, rn, rd, ld) of every equation at every root vector, one per row
    of ``x``, as an array of shape (2, 4, n, rows): real or imaginary, part,
    equation, vector.

    Each float comes out of the operations that Python's complex arithmetic
    does on the same numbers, in the same order, as poly_at does them: the
    products start from complex(1), u - 1 is (re - 1, im - 0) and u + c is
    (re + c, im + 0).  So the values do not depend on how many vectors are
    evaluated together.
    """
    cols, shifts, n_phi, zq, ends, gidx, lidx, lsign = table
    m, n = x.shape
    n_w, steps = len(w), len(ends)
    # equation-major, so that every operation runs along the vectors
    xs = np.array((x.real.T, x.imag.T))
    v = xs.take(cols, axis=1) + shifts
    w = np.array([[z.real for z in w], [z.imag for z in w]])
    # d[:, t, i]: point i minus its t-th zero, where it has one
    d = np.empty((2, max(n_w, steps), len(cols), m))
    np.subtract(v[:, None, :n_phi], w[..., None, None], out=d[:, :n_w, :n_phi])
    np.subtract(v[:, None, n_phi:], xs.take(zq, axis=1),
                out=d[:, :steps, n_phi:])
    # the factor values: the products over the zeros, then (1, 0), (-1, 0)
    f = np.zeros((2, len(cols) + 2, m))
    f[0, :-1], f[0, -1] = 1.0, -1.0
    for t in range(d.shape[1]):
        sl = slice(0 if t < n_w else n_phi,
                   n_phi + (ends[t] if t < steps else 0))
        _cmul(f[:, sl], d[:, t, sl], f[:, sl])
    y = np.empty((2, 4, n, m))
    np.multiply(f.take(lidx[0], axis=1), lsign, out=y[:, 0])
    y[:, 3] = f.take(lidx[1], axis=1)
    # rn and rd: products of their factors, left-padded with (1, 0)
    g, r = f.take(gidx, axis=1), y[:, 1:3]
    r[0], r[1] = 1.0, 0.0
    for t in range(len(gidx)):
        _cmul(r, g[:, t], r)
    return y


def _parts(table: tuple, w: list[complex], x: np.ndarray) -> np.ndarray:
    """(ln, ld, rn, rd) of every equation at every row of ``x``, shape
    (4, 2, n, rows): part, real or imaginary, equation, vector."""
    return _evaluate(table, w, x)[:, [0, 3, 1, 2]].transpose(1, 0, 2, 3)


_ROWS = 256  # root vectors per evaluation: bounds the working set


def _residuals(table: tuple, w: list[complex], x: np.ndarray) -> np.ndarray:
    """ln*rd - rn*ld of every equation (columns) at every row of ``x``.

    The polynomial form grows at infinity, so Newton is not drawn to the
    spurious solution where both ratios flatten out; the log and plain
    rational forms both strand the iteration there.
    """
    f = np.empty(x.shape, dtype=complex)
    for lo in range(0, len(x), _ROWS):
        y = _evaluate(table, w, x[lo:lo + _ROWS])
        # (ln, rn) times (rd, ld)
        p = _cmul(y[:, :2], y[:, 2:])
        f.real[lo:lo + _ROWS], f.imag[lo:lo + _ROWS] = (p[:, 0] - p[:, 1]
                                                        ).transpose(0, 2, 1)
    return f


def _flat(roots: BetheRootSet) -> np.ndarray:
    """The root set as a single-row flat root vector."""
    return np.array([[v for vs in roots.roots for v in vs]], dtype=complex)


def _complex_parts(sys: BetheSystem, counts: tuple[int, ...],
                   x: np.ndarray) -> list:
    """(ln, ld, rn, rd) as nested lists of Python complex: [part][row][eq]."""
    parts = _parts(_equation_table(sys.spec, counts),
                   [complex(z) for z in sys.inhoms], x)
    vals = np.empty((4, len(x), x.shape[1]), dtype=complex)
    vals.real, vals.imag = np.swapaxes(parts, 2, 3).transpose(1, 0, 2, 3)
    return vals.tolist()


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
    return tuple(p[0][j] for p in _complex_parts(sys, counts, _flat(roots)))


def _max_residuals(sys: BetheSystem, x: np.ndarray) -> list:
    """max |LHS - RHS| over the equations at each row of ``x``, or, where a
    denominator vanishes, the (a, k) of the first such equation."""
    labels = [(a, k) for a, n_a in enumerate(sys.root_counts, start=1)
              for k in range(1, n_a + 1)]
    out = []
    for row in zip(*_complex_parts(sys, sys.root_counts, x)):
        worst = 0.0
        for (a, k), ln, ld, rn, rd in zip(labels, *row):
            if ld == 0 or rd == 0:
                worst = (a, k)
                break
            worst = max(worst, abs(ln / ld - rn / rd))
        out.append(worst)
    return out


def max_residual(sys: BetheSystem, roots: BetheRootSet) -> float:
    worst = _max_residuals(sys, _flat(roots))[0]
    if isinstance(worst, tuple):
        raise ZeroDivisionError(
            "degenerate configuration in equation ({},{})".format(*worst))
    return worst


# ---------------------------------------------------------------------------
# numeric solving


def _split(counts: tuple[int, ...], vec: np.ndarray) -> tuple[tuple[complex, ...], ...]:
    """The flat root vector cut into one tuple per color."""
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


# line-search step lengths 1, 1/2, ..., 2^-24, tried in order (_line_search)
_LAMBDAS = np.ldexp(1.0, -np.arange(25))


def _newton_steps(jac: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.solve(jac[i], rhs[i]) for each start i, and which starts
    have a regular Jacobian."""
    try:
        return (np.linalg.solve(jac, rhs[:, :, None])[:, :, 0],
                np.ones(len(jac), dtype=bool))
    except np.linalg.LinAlgError:
        # the stacked solve refuses the whole batch; only the singular
        # starts stop, as each would alone
        steps, regular = np.zeros_like(rhs), np.ones(len(jac), dtype=bool)
        for i in range(len(jac)):
            try:
                steps[i] = np.linalg.solve(jac[i], rhs[i])
            except np.linalg.LinAlgError:
                regular[i] = False
        return steps, regular


def _norms(f: np.ndarray) -> np.ndarray:
    """The norm of each row of ``f`` (last axis): the squares of the real
    parts summed left to right, plus those of the imaginary parts, rooted.
    Separate numpy multiplies and adds never fuse, so a row's norm is the
    float of a plain Python loop on it, in any batch and with any BLAS."""
    re, im = f.real * f.real, f.imag * f.imag
    a, c = re[..., 0], im[..., 0]
    for k in range(1, f.shape[-1]):
        a, c = a + re[..., k], c + im[..., k]
    return np.sqrt(a + c)


def _line_search(residuals, x: np.ndarray, f: np.ndarray, norm: np.ndarray,
                 step: np.ndarray, hint: np.ndarray) -> np.ndarray:
    """Move each start i to the first trial x[i] + lam * step[i], lam in
    _LAMBDAS, whose residual norm is below norm[i], updating x, f, norm and
    hint (the accepted lam's index) in place; return which starts moved.
    A start tries the indices [0, hint + 2) first, then the next 3, then the
    rest; after the first round, all rounds left go in one call once they
    fit in _ROWS trials.  Its trials run from index 0 up and it takes the
    first descending one, so it moves where it moves alone."""
    last = len(_LAMBDAS)
    moved = np.zeros(len(x), dtype=bool)
    todo, lo = np.arange(len(x)), np.zeros(len(x), dtype=int)
    hi, grow = np.minimum(hint + 2, last), iter((3, last))
    while len(todo):
        # row r tries step length j[r] for start i[r], starts in order
        width = hi - lo
        i = np.repeat(todo, width)
        j = np.arange(len(i)) - np.repeat(np.cumsum(width) - hi, width)
        trial = x[i] + _LAMBDAS[j, None] * step[i]
        ft = residuals(trial)
        norms = _norms(ft)
        down = np.flatnonzero(norms < norm[i])
        # the first descending row of each start
        at = i[down]
        first = np.ones(len(down), dtype=bool)
        np.not_equal(at[1:], at[:-1], out=first[1:])
        first = down[first]
        k = i[first]
        x[k], f[k], norm[k], hint[k] = (trial[first], ft[first], norms[first],
                                        j[first])
        moved[k] = True
        left = ~moved[todo] & (hi < last)
        todo, lo = todo[left], hi[left]
        hi = np.minimum(lo + next(grow, last), last)
        if last * len(todo) - lo.sum() <= _ROWS:
            hi = np.full(len(todo), last)
    return moved


def _rows(keep: np.ndarray, *arrays: np.ndarray) -> tuple:
    """Each array's rows that ``keep`` selects (the arrays if it keeps all)."""
    return arrays if keep.all() else tuple(v[keep] for v in arrays)


def _newton(residuals, x: np.ndarray, max_iter: int) -> dict[int, np.ndarray]:
    """Damped Newton from every row of ``x`` at once: the converged starts
    and their final iterates.

    Each start takes the steps it would take alone: a forward-difference
    Jacobian, then the first step length 1, 1/2, ..., 2^-24 that lowers the
    residual norm (_line_search).  A start converges when the norm drops
    below 1e-13, or when no step length lowers a norm already below 1e-9; it
    fails on a singular Jacobian or after ``max_iter`` iterations.
    """
    n = x.shape[1]
    live = np.arange(len(x))
    x = x.copy()
    f = residuals(x)
    norm = _norms(f)
    hint = np.zeros(len(x), dtype=int)
    converged: dict[int, np.ndarray] = {}
    eye = np.arange(n)
    with np.errstate(all="ignore"):
        for _ in range(max_iter):
            done = norm < 1e-13
            converged.update(zip(live[done].tolist(), x[done]))
            x, f, norm, live, hint = _rows(~done, x, f, norm, live, hint)
            if not len(live):
                break
            size = np.hypot(x.real, x.imag)
            h = 1e-7 * np.where(size > 1.0, size, 1.0)
            bumped = np.repeat(x[:, None, :], n, axis=1)
            bumped[:, eye, eye] += h
            fb = residuals(bumped.reshape(-1, n)).reshape(len(x), n, n)
            jac = ((fb - f[:, None, :]) / h[:, :, None]).transpose(0, 2, 1)
            step, regular = _newton_steps(jac, -f)
            x, f, norm, live, hint, step = _rows(regular, x, f, norm, live,
                                                 hint, step)
            moved = _line_search(residuals, x, f, norm, step, hint)
            done = ~moved & (norm < 1e-9)
            converged.update(zip(live[done].tolist(), x[done]))
            x, f, norm, live, hint = _rows(moved, x, f, norm, live, hint)
    return converged


def solve_bae(sys: BetheSystem, tol: float = 1e-10, n_starts: int = 32,
              seed: int = 0, max_iter: int = 80, start_radius: float = 3.0,
              stats: dict | None = None) -> list[BetheRootSet]:
    """Damped Newton with multi-start; converged root sets deduplicated up to
    same-color permutation and filtered for genericity.

    All starts advance together, and each takes exactly the iterates it
    would take alone.  Raises ValueError for ``n_starts`` or ``max_iter``
    below 1, and NoSolutionFound when nothing converges; that is a report
    about this search, not a proof that no solution exists.  Pass a dict as
    ``stats`` to receive per-start bookkeeping (how many starts converged,
    were rejected and why).
    """
    if n_starts < 1 or max_iter < 1:
        raise ValueError(f"need n_starts >= 1 and max_iter >= 1, "
                         f"got {n_starts} and {max_iter}")
    if stats is None:
        stats = {}
    stats.update(starts=0, converged=0, residual_rejected=0,
                 genericity_rejected=0, runaway_rejected=0, distinct=0)
    n = sys.n_roots
    if n == 0:
        return [BetheRootSet(tuple(() for _ in sys.root_counts))]

    w = [complex(x) for x in sys.inhoms]
    rng = np.random.default_rng(seed)
    center = sum(w) / sys.n_sites if sys.n_sites else 0j
    # one draw in the order of a real and an imaginary draw per start
    draws = rng.uniform(-1, 1, (n_starts, 2, n))
    starts = center + start_radius * (draws[:, 0] + 1j * draws[:, 1])
    stats["starts"] = n_starts
    converged = _newton(
        partial(_residuals, _equation_table(sys.spec, sys.root_counts), w),
        starts, max_iter)

    found: dict[tuple, BetheRootSet] = {}
    order = sorted(converged)
    stats["converged"] = len(order)
    worst = _max_residuals(sys, np.array([converged[i] for i in order],
                                         dtype=complex).reshape(-1, n))
    for i, res in zip(order, worst):
        # a tuple: a spurious polynomial root sitting on a denominator zero
        if isinstance(res, tuple) or res >= tol:
            stats["residual_rejected"] += 1
            continue
        roots = BetheRootSet(_split(sys.root_counts, converged[i]))
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
    """(name, color d, pole shift, [(label, sign), (label, sign)]) tuples.

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
        tail = [("fork-a", n, s - r + 1, [(unb(n - 1), 1), (bar(n), 1)]),
                ("fork-b", n, s - r + 1, [(unb(n), 1), (bar(n - 1), 1)])]
    elif r:
        tail = [("tail-up", n, s - r, [(unb(n), 1), (ZERO_LABEL, 1)]),
                ("tail-down", n, s - r + 1, [(ZERO_LABEL, 1), (bar(n), 1)])]
    else:
        tail = []
    return ([(f"inner-up[{d}]", d, d, [(unb(d), 1), (unb(d + 1), 1)])
             for d in range(1, s)]
            + [("odd-up", s, s, [(unb(s), 1), (up, -1)])]
            + [(f"outer-up[{d}]", d, 2 * s - d, [(unb(d), 1), (unb(d + 1), 1)])
               for d in range(s + 1, n)]
            + tail
            + [(f"outer-down[{d}]", d, d - 2 * s - k,
                [(bar(d + 1), 1), (bar(d), 1)]) for d in range(s + 1, n)]
            + [("odd-down", s, -s - k, [(down, 1), (bar(s), -1)])]
            + [(f"inner-down[{d}]", d, -d - k,
                [(bar(d + 1), 1), (bar(d), 1)]) for d in range(1, s)])


def _relative_residue(x: SymSum, color: int, k: int, shift: int,
                      asg: Assignment) -> float:
    parts = residue_breakdown(x, color, k - 1, shift, asg)
    scale = sum(abs(p) for p in parts)
    if scale == 0:
        return 0.0
    return abs(sum(parts, 0j)) / scale


def check_residue_pairs(spec: AlgebraSpec, sys: BetheSystem,
                        roots: BetheRootSet) -> IdentityReport:
    """All pairwise residue cancellations at one solved instance."""
    ctx = BoxContext(spec, include_vacuum=True)
    asg = Assignment.float_point(0, roots.as_mapping(),
                                 [complex(w) for w in sys.inhoms])
    rows = []
    worst = 0.0
    for name, d, shift, combo in _pair_relations(spec):
        x = SymSum.make([SymTerm(t.coeff * sg, t.qs, t.phis)
                         for lab, sg in combo for t in [box(ctx, lab, 0)]])
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
        if a[:2] != b[:2] and abs(a[3] - b[3]) < 1e-8:
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
            for key in "ABEH":
                checks.append((f"{key}-avoids-Q{n}[n={n_alt}]",
                               not _contains_color(g[key], n)))
            for key in "CDFG":
                checks.append((f"{key}-avoids-Q{n - 1}[n={n_alt}]",
                               not _contains_color(g[key], n - 1)))
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
