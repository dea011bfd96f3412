"""The numeric Bethe kernel, the one module that imports numpy.  The
equation for root k of color a equates a boundary factor (nontrivial only
for a = 1, where the inhomogeneity polynomial phi enters) with a product of
Q-ratios over the colors coupled to a, read off the root data by one rule.
An odd alpha_a with (alpha_a|alpha_a) != 0, alpha_s of B(0|s) alone, gives
an equation of osp(1|2) type, as 2 alpha_a is a root.  Each system is
compiled once into one flat plan: its factor points sorted by zero count
and one index table of the factors of every product.  One evaluator runs
the plan at many root vectors at once, in a fixed number of numpy
operations, with the floats that Python's complex arithmetic gives on one
vector; the solver, bae_parts and max_residual all use it.

The multi-start Newton solver advances every live start together: one
evaluation covers all starts, all bumped Jacobian columns or the trials of
a line-search round, where each start tries its own window of step lengths,
and each start still takes exactly the iterates it takes alone.  Products
are written in real arithmetic, bump sizes use np.hypot and norms are summed
left to right in separate numpy operations, since numpy's complex products,
np.abs and the BLAS dots of np.linalg.norm may round differently.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import accumulate

import numpy as np

from .algebra import AlgebraSpec, bilinear_form, root_degree


@lru_cache(maxsize=64)
def _equation_table(spec: AlgebraSpec, root_counts: tuple[int, ...]) -> tuple:
    """The equations compiled once into one flat evaluation plan.

    Every factor is a point: phi(u + c) over the inhomogeneities, or
    Q_b(u + c) over the roots of color b, at u = x[j] for the flat root
    vector x.  The phi points come first, then the Q points by zero count,
    most first, so that step t of the products over the zeros covers one
    slice of them.  Factor rows P and P + 1 are (1, 0) and (-1, 0).  rn and
    rd are products of factors, left-padded with (1, 0): (1, 0) * (1, 0) is
    the (1, 0) a product starts from.  ``color_row`` reads each color's
    couplings (b, c) off ``bilinear_form``; rn is the Q_b(u + c) and rd the
    Q_b(u - c) of the same couplings.  A signed row ends rn with (-1)^deg
    and negates ln/ld, which is phi(u-1)/phi(u+1) for color 1, else 1/1.

    Returns (cols, shifts, n_phi, zq, ends, gidx, lidx, lsign): point i is
    x[cols[i]] + shifts[:, i]; zq[t] is each Q point's zero at step t and
    ends[t] the number of Q points with more than t zeros; gidx[t] is the
    t-th factor of rn, then of rd, of each equation; lidx picks ln, then
    ld, and lsign multiplies ln.
    """
    def color_row(a: int):
        # an odd root with c = (alpha_a|alpha_a) != 0 is unsigned and couples
        # to itself at -c, then 2c (2 alpha_a is even); a zero coupling
        # drops out: its ratio is identically 1
        c = bilinear_form(spec, a, a)
        signed = not (root_degree(spec, a) and c)
        cs = [(b, bilinear_form(spec, a, b) if signed or b != a else -c)
              for b in range(1, spec.rank + 1)]
        return signed, [(b, x) for b, x in cs if x] + ([] if signed else [(a, 2 * c)])

    ends = list(accumulate(root_counts))
    one, minus = -1, -2         # the constant factors (1, 0) and (-1, 0)
    points: list = []           # (zeros, j, re, im); zeros None for phi

    def ref(zeros, j: int, re: float, im: float = 0.0) -> int:
        points.append((zeros, j, float(re), im))
        return len(points) - 1

    def q_refs(pairs, j: int, orient: int) -> list:
        return [ref(range(ends[b - 1] - root_counts[b - 1], ends[b - 1]), j,
                    orient * c) for b, c in pairs]

    eqs = []
    for a, n_a in enumerate(root_counts, start=1):
        signed, cs = color_row(a)
        last = [minus if root_degree(spec, a) else one] if signed else []
        for j in range(ends[a - 1] - n_a, ends[a - 1]):
            if a == 1:
                # u - 1 is (re - 1, im - 0) in Python, the same as adding -0.0
                ln, ld = ref(None, j, -1.0, -0.0), ref(None, j, 1.0)
            else:
                ln, ld = minus if signed else one, one
            eqs.append((ln, ld, q_refs(cs, j, 1) + last, q_refs(cs, j, -1),
                        -1.0 if signed and a == 1 else 1.0))

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


def _complex_parts(sys, counts: tuple[int, ...], rows) -> list:
    """(ln, ld, rn, rd) at each flat root vector in ``rows``, as Python
    complex: [part][row][eq]."""
    x = np.array(rows, dtype=complex).reshape(len(rows), sum(counts))
    parts = _parts(_equation_table(sys.spec, counts),
                   [complex(z) for z in sys.inhoms], x)
    vals = np.empty((4, len(x), x.shape[1]), dtype=complex)
    vals.real, vals.imag = np.swapaxes(parts, 2, 3).transpose(1, 0, 2, 3)
    return vals.tolist()


def _max_residuals(sys, rows) -> list:
    """max |LHS - RHS| over the equations at each of ``rows``, or, where a
    denominator vanishes, the (a, k) of the first such equation."""
    labels = [(a, k) for a, n_a in enumerate(sys.root_counts, start=1)
              for k in range(1, n_a + 1)]
    out = []
    for row in zip(*_complex_parts(sys, sys.root_counts, rows)):
        worst = 0.0
        for (a, k), ln, ld, rn, rd in zip(labels, *row):
            if ld == 0 or rd == 0:
                worst = (a, k)
                break
            worst = max(worst, abs(ln / ld - rn / rd))
        out.append(worst)
    return out


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


def search(sys, n_starts: int, seed: int, max_iter: int,
           start_radius: float) -> list:
    """(final iterate, max residual) of each start that converges, in order."""
    w = [complex(x) for x in sys.inhoms]
    rng = np.random.default_rng(seed)
    center = sum(w) / sys.n_sites if sys.n_sites else 0j
    # one draw in the order of a real and an imaginary draw per start
    draws = rng.uniform(-1, 1, (n_starts, 2, sys.n_roots))
    starts = center + start_radius * (draws[:, 0] + 1j * draws[:, 1])
    converged = _newton(
        partial(_residuals, _equation_table(sys.spec, sys.root_counts), w),
        starts, max_iter)
    rows = [converged[i] for i in sorted(converged)]
    return list(zip(rows, _max_residuals(sys, rows)))
