"""Exact algebra of shifted Q-functions and vacuum polynomials.

Every quantity handled by this package is a finite signed sum of monomials

    c * prod_i Q_{a_i}(u + c_i)^{e_i} * prod_j phi(u + d_j)^{f_j}

with an exact rational coefficient c, integer exponents (negative exponents
are denominators) and exact integer argument shifts.  Here Q_a is the
polynomial whose zeros are the color-a Bethe roots and phi the polynomial
whose zeros are the inhomogeneities:

    Q_a(u) = prod_{j=1..N_a} (u - u_j^(a)),      phi(u) = prod_{j=1..N} (u - w_j).

The building block (u - z) is hard-wired; other additive choices would need
a different evaluator.

A ``SymTerm`` is one monomial in canonical form: factors keyed by
(color, shift) resp. shift, sorted, merged exponents, no zero exponents.
Colors, shifts and exponents are stored as ``int``s; ``SymTerm.make``, the
one entry for raw factors, checks each on the way in.  A product of two
terms merges their canonical factor tuples directly (``_merge``), so its
result is canonical without a second pass through ``make``.  A
``SymSum`` is a sum of terms in a deterministic canonical order, so two
equal sums serialize identically.  All values are immutable; every
operation is a pure function.

Exact evaluation runs one kernel, ``_term_pairs``, over a plan that
``_compile`` builds for a sum (or a term valued alone) on its first exact
evaluation and keeps on the instance.  With u = p/q and each zero a/b, the
unreduced Q_c(u + s) is n_s / D_c, D_c = q^N_c prod b whatever s is
(likewise phi), so a term is coeff prod n^e prod_c D_c^-net_c: D_c drops
out where the net exponent of c is 0, as in every box.  At a point each
distinct base, D_c and power is computed once, a term is two products over
runs of indices into them, and the terms add on integers.

Determinant expansions are built on packed codes (``Codec``), a transient
form like the plan: one int per monomial, so a product of monomials is one
integer add; each result is decoded once.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, prod
from random import Random
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

from .reports import IdentityReport, exact_report

RatLike = Union[Fraction, int, str]

SAMPLE_BOUND = 10**4     # numerators/denominators of random sample points
SAMPLE_RETRY_CAP = 100   # resampling attempts before SamplingExhausted


class PoleHit(ArithmeticError):
    """A denominator factor evaluated to zero.

    ``color`` is the Q color, or None when the phi part is responsible.
    """

    def __init__(self, color: int | None, shift: int):
        self.color = color
        self.shift = shift
        what = "phi" if color is None else f"Q_{color}"
        super().__init__(f"pole hit: {what}(u + {shift}) = 0")


class SamplingExhausted(RuntimeError):
    """Could not find a pole-free random sample point within the retry cap."""


class HigherOrderPole(ArithmeticError):
    """A single term carries the matching Q factor with exponent <= -2."""


class GenericityViolation(ArithmeticError):
    """Root configuration too degenerate for simple-pole residue analysis."""


def _rat(x: RatLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _shift(x: int | Fraction | str) -> int:
    """An argument shift as the int it must be: an int passes unchanged, an
    integral Fraction or numeric string becomes an int, anything else (a
    bool too) raises ValueError."""
    if type(x) is int:
        return x
    if isinstance(x, (int, Fraction, str)) and not isinstance(x, bool):
        v = Fraction(x)
        if v.denominator == 1:
            return int(v)
    raise ValueError(f"argument shifts are integers, got {x!r}")


def _canon(factors: Iterable[Sequence], width: int) -> tuple[tuple[int, ...], ...]:
    """Canonical tuple of raw factors (color, shift, exp) or (shift, exp), as
    ``width`` says: equal keys (all but exp) merged, zero exponents dropped,
    sorted.  Colors >= 1 and exponents are plain ints, shifts pass ``_shift``."""
    merged: dict[tuple, int] = {}
    for f in factors:
        *color, shift, exp = f
        if len(color) != width - 2 or any(type(v) is not int for v in (*color, exp)):
            raise ValueError(f"bad factor {f!r}: {width} entries, int color and exp")
        if color and color[0] < 1:
            raise ValueError(f"Q color must be >= 1, got {color[0]}")
        key = (*color, _shift(shift))
        merged[key] = merged.get(key, 0) + exp
    return tuple(sorted((*k, e) for k, e in merged.items() if e != 0))


def _merge(a: tuple, b: tuple) -> tuple:
    """Canonical product of two canonical factor tuples: each factor of the
    shorter is bisected into the longer by its key (all entries but the
    exponent); equal keys add exponents, and a factor summing to 0 goes."""
    if len(a) < len(b):
        a, b = b, a
    out, i = list(a), 0
    for f in b:
        key = f[:-1]
        i = bisect_left(out, key, i)     # a key sorts just before its factor
        g = out[i] if i < len(out) else ()
        if g[:-1] != key:
            out.insert(i, f)
        elif g[-1] + f[-1]:
            out[i] = (*key, g[-1] + f[-1])
        else:
            del out[i]
    return tuple(out) if b else a


@dataclass(frozen=True)
class SymTerm:
    """One canonical monomial: coefficient * Q factors * phi factors."""

    coeff: Fraction
    qs: tuple[tuple[int, int, int], ...] = ()
    phis: tuple[tuple[int, int], ...] = ()

    @staticmethod
    def make(coeff: RatLike,
             qs: Iterable[tuple[int, int, int]] = (),
             phis: Iterable[tuple[int, int]] = ()) -> SymTerm:
        return SymTerm(_rat(coeff), _canon(qs, 3), _canon(phis, 2))

    @property
    def key(self) -> tuple:
        """Factor signature; terms with equal keys merge under addition."""
        return (self.qs, self.phis)

    def __mul__(self, other: SymTerm) -> SymTerm:
        """Canonical product: ``_merge`` of the factor tuples, no second
        canonicalisation; a coefficient ±1 (a box's) multiplies without gcd."""
        a, b = self.coeff, other.coeff
        coeff = (b if a == 1 else a if b == 1 else -b if a == -1
                 else -a if b == -1 else a * b)
        return SymTerm(coeff, _merge(self.qs, other.qs),
                       _merge(self.phis, other.phis))

    def inverse(self) -> SymTerm:
        """Reciprocal term; coefficient must be nonzero."""
        if self.coeff == 0:
            raise ZeroDivisionError("cannot invert the zero term")
        return SymTerm.make(1 / self.coeff,
                            [(c, s, -e) for c, s, e in self.qs],
                            [(s, -e) for s, e in self.phis])

    def shifted(self, delta: int) -> SymTerm:
        d = _shift(delta)
        return SymTerm(self.coeff,
                       tuple((c, s + d, e) for c, s, e in self.qs),
                       tuple((s + d, e) for s, e in self.phis))

    @cached_property
    def _plan(self) -> tuple:
        """The term's one-term evaluation plan, compiled on first use."""
        return _compile((self,))


ONE_TERM = SymTerm.make(1)


@dataclass(frozen=True)
class SymSum:
    """Canonical signed sum of SymTerms (empty tuple is the zero sum)."""

    terms: tuple[SymTerm, ...] = ()

    @staticmethod
    def make(terms: Iterable[SymTerm]) -> SymSum:
        merged: dict[tuple, SymTerm] = {}
        for t in terms:
            key = (t.qs, t.phis)
            prev = merged.get(key)
            merged[key] = t if prev is None else SymTerm(prev.coeff + t.coeff,
                                                         t.qs, t.phis)
        # the keys are unique, so sorting the items never compares two terms
        return SymSum(tuple(t for _, t in sorted(merged.items()) if t.coeff != 0))

    @staticmethod
    def from_term(t: SymTerm) -> SymSum:
        return SymSum.make([t])

    @staticmethod
    def constant(c: RatLike) -> SymSum:
        return SymSum.make([SymTerm.make(c)])

    def __add__(self, other: SymSum) -> SymSum:
        return SymSum.make(self.terms + other.terms)

    def __neg__(self) -> SymSum:
        return SymSum(tuple(SymTerm(-t.coeff, t.qs, t.phis) for t in self.terms))

    def __sub__(self, other: SymSum) -> SymSum:
        return self + (-other)

    def __mul__(self, other: SymSum | SymTerm) -> SymSum:
        if isinstance(other, SymTerm):
            other = SymSum.from_term(other)
        return SymSum.make([a * b for a in self.terms for b in other.terms])

    @cached_property
    def _plan(self) -> tuple:
        """The sum's evaluation plan, compiled on first use and kept in the
        instance ``__dict__``: ==, hash, repr and ``dumps`` never read it."""
        return _compile(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)


ZERO = SymSum()
ONE = SymSum.constant(1)


def shift_u(x: SymSum | SymTerm, delta: int):
    """Shift the spectral parameter: every factor argument moves by delta."""
    if isinstance(x, SymTerm):
        return x.shifted(delta)
    d = _shift(delta)
    return SymSum(tuple(t.shifted(d) for t in x.terms))


def _factors(terms: Sequence[SymTerm]) -> Iterator[tuple]:
    """The distinct factors of the terms, phi ones as (None, shift, exp)."""
    qs = set(chain.from_iterable(t.qs for t in terms))
    phis = set(chain.from_iterable(t.phis for t in terms))
    return chain(qs, ((None, s, e) for s, e in phis))


class Codec:
    """Monomials packed into ints, a transient form for building sums.

    Each Q (color, shift) and each phi shift has a ``width``-bit field, and
    a color's shifts form one run of fields (Q colors ascending, phi last).
    Adding two codes multiplies the monomials; ``code << width * d`` shifts
    one by d along u.  ``sources``, (terms, shifts) pairs, fix the runs and
    the exponent range [lo, hi], 0 in it.  A sum of at most ``count`` codes
    keeps each field in [count * lo, count * hi], so with ``bias`` added
    each field is in [0, 2^width): a proven bound, outside which ``pack``
    raises.
    """

    CHUNK = 5   # fields that ``unpack`` decodes together and memoises

    def __init__(self, sources: Iterable[tuple[Sequence[SymTerm],
                                               Sequence[int]]], count: int):
        factors = set()
        for terms, shifts in sources:
            for color, shift, exp in _factors(terms):
                factors.add((color, shift + min(shifts), exp))
                factors.add((color, shift + max(shifts), exp))
        exps = [0] + [exp for _, _, exp in factors]
        self.lo = min(exps)
        self.hi = max(exps)
        self.width = max(1, (count * (self.hi - self.lo)).bit_length())
        self.k = -count * self.lo       # what ``bias`` adds to each field
        self.runs = {}                  # color -> (first shift, fields, offset)
        self.chunks = []                # (color, first shift, fields, offset)
        offset = 0
        colors = {color for color, _, _ in factors}
        for color in sorted(colors, key=lambda c: (c is None, c)):
            shifts = [s for c, s, _ in factors if c == color]
            first = min(shifts)
            n = max(shifts) - first + 1
            self.runs[color] = (first, n, offset)
            for j in range(0, n, self.CHUNK):
                self.chunks.append((color, first + j, min(self.CHUNK, n - j),
                                    offset + self.width * j))
            offset += self.width * n
        self.bias = sum(self.k << off for off in range(0, offset, self.width))

    def pack(self, terms: Sequence[SymTerm], shift: int = 0) -> list[tuple]:
        """(code, coefficient) of each term at u + shift, an integral
        coefficient as an int."""
        place = {}
        for color, s, exp in _factors(terms):
            first, n, offset = self.runs.get(color, (0, 0, 0))
            field = s + shift - first
            if not (0 <= field < n and self.lo <= exp <= self.hi):
                raise OverflowError(
                    f"{(color, s + shift, exp)} is outside the packing")
            factor = (s, exp) if color is None else (color, s, exp)
            place[factor] = exp << (offset + self.width * field)
        packed = []
        for t in terms:
            code = sum(place[f] for f in chain(t.qs, t.phis))
            coeff = t.coeff.numerator if t.coeff.denominator == 1 else t.coeff
            packed.append((code, coeff))
        return packed

    def unpack(self, items: Iterable[tuple[int, RatLike]]) -> SymSum:
        """The canonical sum of (code, coefficient) pairs.  XOR with
        ``bias`` leaves a field of the biased code nonzero exactly where the
        monomial has a factor; each chunk of fields is decoded once per
        value, and equal factors and coefficients share one object."""
        memo = [{} for _ in self.chunks]
        seen = {}
        terms = []
        for code, coeff in items:
            diff = (code + self.bias) ^ self.bias
            qs = ()
            phis = ()
            for chunk, decoded in zip(self.chunks, memo):
                color, first, n, offset = chunk
                x = (diff >> offset) & ((1 << (self.width * n)) - 1)
                if x not in decoded:
                    decoded[x] = self._decode(x, color, first, n, seen)
                if color is None:
                    phis += decoded[x]
                else:
                    qs += decoded[x]
            coeff = seen.setdefault(coeff, Fraction(coeff))
            terms.append(SymTerm(coeff, qs, phis))
        return SymSum.make(terms)

    def _decode(self, x: int, color: int | None, first: int, n: int,
                seen: dict) -> tuple:
        """The factors of n XORed fields x, the first at shift ``first``."""
        mask = (1 << self.width) - 1
        factors = []
        for i in range(n):
            field = (x >> (self.width * i)) & mask
            if field:
                exp = (field ^ self.k) - self.k
                shift = first + i
                f = (shift, exp) if color is None else (color, shift, exp)
                factors.append(seen.setdefault(f, f))
        return tuple(factors)


# ---------------------------------------------------------------------------
# evaluation


@dataclass(frozen=True)
class Assignment:
    """Numeric specialization of u, the Bethe roots and the inhomogeneities.

    ``roots`` maps a color to the tuple of roots of that color (so N_a is
    implied by the tuple length).  ``exact`` selects bit-exact Fraction
    arithmetic; otherwise values are coerced to complex floats.
    """

    u: object
    roots: Mapping[int, tuple]
    inhoms: tuple = ()
    exact: bool = False

    @staticmethod
    def exact_point(u: RatLike, roots: Mapping[int, Sequence[RatLike]],
                    inhoms: Sequence[RatLike] = ()) -> Assignment:
        return Assignment(_rat(u),
                          {c: tuple(_rat(v) for v in vs) for c, vs in roots.items()},
                          tuple(_rat(w) for w in inhoms), exact=True)

    @staticmethod
    def float_point(u, roots: Mapping[int, Sequence], inhoms: Sequence = ()) -> Assignment:
        return Assignment(complex(u),
                          {c: tuple(complex(v) for v in vs) for c, vs in roots.items()},
                          tuple(complex(w) for w in inhoms), exact=False)


def poly_at(zeros: Iterable, v, start):
    """Q_a(v) or phi(v): prod_z (v - z), multiplied left to right onto start.

    ``complex(1)`` gives the float values, and the fixed order keeps them
    bit-identical between callers; ``Fraction(1)`` gives the plain reference
    for the exact values of ``_factor_value``.
    """
    prod = start
    for z in zeros:
        prod *= v - z
    return prod


def _factor_value(asg: Assignment, color: int | None, shift: int, cache: dict):
    """Base value of Q_color(u + shift) or phi(u + shift), memoized per point.

    In exact mode the cached value is the reduced integer pair (numerator,
    denominator), from u + shift = p/q and the zeros z = a/b on integers:
    n = prod (p b - a q) over D = prod q b, reduced by one gcd.  D depends
    on the color alone, so ``_term_pairs`` recovers n as bn (D // bd) and
    values a term over the D's its net exponents leave.
    """
    key = (color, shift)
    val = cache.get(key)
    if val is None:
        zeros = asg.inhoms if color is None else asg.roots.get(color, ())
        if asg.exact:
            q = asg.u.denominator
            p, num, den = asg.u.numerator + shift * q, 1, 1
            for z in zeros:
                num *= p * z.denominator - z.numerator * q
                den *= q * z.denominator
            g = gcd(num, den)
            val = (num // g, den // g)
        else:
            val = poly_at(zeros, asg.u + complex(shift), complex(1))
        cache[key] = val
    return val


def _compile(terms: Sequence[SymTerm]) -> tuple:
    """The plan (bases, poles, others, powers, runs) of the terms, in scan
    order: term order, Q before phi.  A slot indexes the values that
    ``_term_pairs`` makes at a point: the n of each base (color, shift),
    flattened in ``bases``; then ``others``, each D_c as (color,) and each
    coefficient part other than 1 as an int; then each power (slot, |e|),
    |e| >= 2.  ``poles`` are the slots of denominator bases; ``runs`` hold
    per term its numerator and denominator slots, as ``bytes`` while there
    are at most 256 slots."""
    bases: dict = {}
    poles: dict = {}
    others: dict = {}
    scanned = []
    for t in terms:
        fs, net = [], {}
        # no joined tuple: freed ones would stay on the tuple free lists
        for c, s, e in chain(t.qs, ((None, *f) for f in t.phis)):
            i = bases.setdefault((c, s), len(bases))
            if e < 0:
                poles.setdefault(i)
            net[c] = net.get(c, 0) + e
            fs.append((i, e))
        extra = [((c,), -e) for c, e in net.items() if e]    # D_c^-net_c
        extra += [(v, e) for v, e in ((t.coeff.numerator, 1),
                                      (t.coeff.denominator, -1)) if v != 1]
        fs += [(~others.setdefault(k, len(others)), e) for k, e in extra]
        scanned.append(fs)
    n_slots = len(bases) + len(others)
    powers: dict = {}
    runs = []
    for fs in scanned:
        num, den = [], []
        for i, e in fs:
            i = i if i >= 0 else len(bases) + ~i
            if abs(e) > 1:
                i = n_slots + powers.setdefault((i, abs(e)), len(powers))
            (num if e > 0 else den).append(i)
        runs += (num, den)
    pack = bytes if n_slots + len(powers) <= 256 else tuple
    return (tuple(x for key in bases for x in key), tuple(poles),
            tuple(others), tuple(powers), tuple(map(pack, runs)))


_DENOMS = object()   # cache key of the point's D_c per color, D_phi at None


def _sum_pairs(pairs: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """Sum of integer pairs (numerator, denominator), not reduced: one gcd each."""
    tn, td = 0, 1
    for num, den in pairs:
        g = gcd(td, den)
        tn = tn * (den // g) + num * (td // g)
        td *= den // g
    return tn, td


def _term_pairs(plan: tuple, asg: Assignment,
                cache: dict) -> Iterator[tuple[int, int]]:
    """The one exact kernel: each planned term at ``asg`` as an integer pair,
    not reduced.  D_c is kept in the point's cache; each base n = bn (D_c //
    bd), from the reduced pair of ``_factor_value``, and each power is made
    once per call, and a term is two products over its runs.  The first
    vanishing denominator base, in scan order, raises PoleHit at the call."""
    bases, poles, others, powers, runs = plan
    dens = cache.get(_DENOMS)
    if dens is None:
        q = asg.u.denominator
        dens = cache[_DENOMS] = {
            c: q ** len(zs) * prod(z.denominator for z in zs)
            for c, zs in (*asg.roots.items(), (None, asg.inhoms))}
    vals, it = [], iter(bases)
    for c, s in zip(it, it):
        bn, bd = cache.get((c, s)) or _factor_value(asg, c, s, cache)
        vals.append(bn * (dens.get(c, 1) // bd))
    if not all(map(vals.__getitem__, poles)):
        i = next(i for i in poles if not vals[i])
        raise PoleHit(*bases[2 * i:2 * i + 2])
    vals += [k if type(k) is int else dens.get(k[0], 1) for k in others]
    vals += [vals[i] ** e for i, e in powers]
    get, it = vals.__getitem__, iter(runs)
    return ((prod(map(get, nr)), prod(map(get, dr))) for nr, dr in zip(it, it))


def evaluate_term(t: SymTerm, asg: Assignment, _cache: dict | None = None):
    """Value of one term at the assignment: in exact mode the kernel
    ``_term_pairs`` run on the term's own one-term plan, compiled on its
    first exact evaluation and kept on the term.

    Raises PoleHit when a denominator factor vanishes, even where a numerator
    factor vanishes too (0/0 is not a value).
    """
    cache = {} if _cache is None else _cache
    if not asg.exact:
        val = complex(t.coeff)
        # phi as color None, as in _compile and PoleHit
        for color, shift, exp in (*t.qs, *((None, *f) for f in t.phis)):
            base = _factor_value(asg, color, shift, cache)
            if exp < 0 and base == 0:
                raise PoleHit(color, shift)
            val *= base if exp == 1 else 1 / base if exp == -1 else base ** exp
        return val
    return Fraction(*_sum_pairs(_term_pairs(t._plan, asg, cache)))


def evaluate(x: SymSum, asg: Assignment, _cache: dict | None = None):
    """Value of the rational expression at the assignment (0 for the empty sum).

    Exact values come from the kernel ``_term_pairs`` over the sum's plan,
    compiled on its first exact evaluation and kept on the sum: terms are
    summed on integers and reduced to a Fraction once per sum.  PoleHit
    names the first denominator factor, in term order and then factor
    order, that vanishes at the point, also where 0/0 would result.
    """
    cache = {} if _cache is None else _cache
    if not asg.exact:
        return sum((evaluate_term(t, asg, cache) for t in x.terms), complex(0))
    return Fraction(*_sum_pairs(_term_pairs(x._plan, asg, cache)))


# ---------------------------------------------------------------------------
# randomized-exact identity checking


def colors_of(*sums: SymSum) -> set[int]:
    return {c for x in sums for t in x.terms for c, _, _ in t.qs}


def random_rational(rng: Random, bound: int = SAMPLE_BOUND) -> Fraction:
    # small denominators keep exact arithmetic cheap over long products
    return Fraction(rng.randint(-bound, bound), rng.randint(1, 8))


def random_assignment(rng: Random, colors: Iterable[int],
                      roots_per_color: int = 2, n_inhom: int = 2) -> Assignment:
    roots = {c: tuple(random_rational(rng) for _ in range(roots_per_color))
             for c in sorted(set(colors))}
    inhoms = tuple(random_rational(rng) for _ in range(n_inhom))
    return Assignment.exact_point(random_rational(rng), roots, inhoms)


def sample_max_deviation(value_at: Callable[[Assignment, dict], Fraction],
                         colors: set[int], trials: int,
                         seed: int, roots_per_color: int = 2,
                         n_inhom: int = 2) -> tuple[Fraction, list[str]]:
    """The one sampling loop behind every randomized-exact check.

    Calls ``value_at(asg, cache)`` at ``trials`` random exact-rational
    assignments of u, all roots of ``colors`` (color 1 when empty) and all
    inhomogeneities, with a fresh factor cache per point, and draws again on
    PoleHit (cap SAMPLE_RETRY_CAP per trial).  Returns the value of largest
    absolute value and the u of each accepted point.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = Random(seed)
    cols = colors or {1}
    points = []
    worst = Fraction(0)
    for _ in range(trials):
        for _ in range(SAMPLE_RETRY_CAP):
            asg = random_assignment(rng, cols, roots_per_color, n_inhom)
            try:
                val = value_at(asg, {})
            except PoleHit:
                continue
            points.append(str(asg.u))
            if abs(val) > abs(worst):
                worst = val
            break
        else:
            raise SamplingExhausted(
                f"no pole-free sample point found in {SAMPLE_RETRY_CAP} tries")
    return worst, points


def equal_as_rational_functions(a: SymSum, b: SymSum, trials: int = 20, *,
                                seed: int = 0):
    """Randomized-exact equality test of two sums.

    Evaluates a - b at ``trials`` random points (``sample_max_deviation``).
    Sound per point; a nonzero difference that vanishes at every sampled
    point is astronomically unlikely but the report mode is labeled
    "randomized-exact", not "proof".
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    diff = a - b
    if diff.is_zero():
        return exact_report("equal-as-rational-functions", True, 0,
                            {"note": "canonical forms identical"}, seed)
    worst, points = sample_max_deviation(
        lambda asg, cache: evaluate(diff, asg, cache), colors_of(diff),
        trials, seed)
    return IdentityReport(name="equal-as-rational-functions",
                          mode="randomized-exact", samples=trials,
                          max_deviation=worst, passed=(worst == 0),
                          details={"points_u": points}, seed=seed)


def _group_sum_at(groups: Sequence[Sequence[SymSum]], asg: Assignment,
                  cache: dict) -> Fraction:
    """Exact value of a sum of products, each factor valued unexpanded by
    the kernel: a group's integer pairs multiply, the groups add on
    integers, and one Fraction is built."""
    def group_pair(group: Sequence[SymSum]) -> tuple[int, int]:
        pairs = [_sum_pairs(_term_pairs(f._plan, asg, cache)) for f in group]
        return prod(n for n, _ in pairs), prod(d for _, d in pairs)
    return Fraction(*_sum_pairs(map(group_pair, groups)))


def equal_group_sums(lhs: Sequence[Sequence[SymSum]],
                     rhs: Sequence[Sequence[SymSum]], trials: int = 20, *,
                     seed: int = 0, roots_per_color: int = 2,
                     n_inhom: int = 2, name: str = "group-sums"):
    """Randomized-exact equality of two sum-of-products expressions.

    Factors are evaluated individually at each sample point, so large
    products never get expanded.
    """
    cols = colors_of(*(f for side in (lhs, rhs) for g in side for f in g))
    worst, _ = sample_max_deviation(
        lambda asg, cache: (_group_sum_at(lhs, asg, cache)
                            - _group_sum_at(rhs, asg, cache)),
        cols, trials, seed, roots_per_color, n_inhom)
    return IdentityReport(name=name, mode="randomized-exact", samples=trials,
                          max_deviation=worst, passed=(worst == 0), details={},
                          seed=seed)


def exact_det(matrix: list[list[Fraction]]) -> Fraction:
    """Determinant of an exact rational matrix by Gaussian elimination."""
    n = len(matrix)
    m = [row[:] for row in matrix]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                factor = m[r][col] * inv
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


# ---------------------------------------------------------------------------
# residues


def _term_residue(t: SymTerm, color: int, root_index: int, shift: int,
                  at: Assignment, cache: dict, tol: float = 1e-9) -> complex:
    """Simple-pole residue of one term at the pole ``at``, with its cache."""
    roots = at.roots.get(color, ())
    u_k = roots[root_index]

    match_exp = next((e for c, s, e in t.qs if c == color and s == -shift), 0)
    if match_exp >= 0:
        # no matching simple-pole factor: term is regular here (numerator
        # zeros of other factors only push the value to 0)
        return 0j
    if match_exp <= -2:
        raise HigherOrderPole(
            f"Q_{color}(u + {-shift}) appears with exponent {match_exp}")

    deriv = complex(1)
    for j, other in enumerate(roots):
        if j == root_index:
            continue
        d = u_k - other
        if abs(d) < tol:
            raise GenericityViolation(
                f"color {color} roots {root_index} and {j} coincide")
        deriv *= d

    rest = complex(t.coeff)
    # phi as color None, as in _compile and PoleHit
    for c, s, e in (*t.qs, *((None, *f) for f in t.phis)):
        if c == color and s == -shift:
            continue                    # the simple pole, divided out by deriv
        base = _factor_value(at, c, s, cache)
        if base == 0 or (e < 0 and abs(base) < tol):
            if e < 0:
                what = "phi" if c is None else f"Q_{c}"
                raise GenericityViolation(
                    f"pole of {what}(u + {s}) coincides with the residue point")
            return 0j
        rest *= base ** e
    return rest / deriv


def residue_breakdown(x: SymSum, color: int, root_index: int, shift: int,
                      asg: Assignment) -> list[complex]:
    """Per-term simple-pole residues of x at u = u_{root_index}^(color) + shift."""
    s = _shift(shift)
    pole = asg.roots.get(color, ())[root_index] + complex(s)
    at = Assignment(pole, asg.roots, asg.inhoms, exact=False)
    cache: dict = {}
    return [_term_residue(t, color, root_index, s, at, cache) for t in x.terms]


# ---------------------------------------------------------------------------
# serialization


def term_to_json(t: SymTerm) -> dict:
    return {"coeff": str(t.coeff),
            "Q": [[c, str(s), e] for c, s, e in t.qs],
            "phi": [[str(s), e] for s, e in t.phis]}


def term_from_json(d: Mapping) -> SymTerm:
    return SymTerm.make(Fraction(d["coeff"]), d.get("Q", []), d.get("phi", []))


def sum_to_json(x: SymSum) -> dict:
    return {"schema": 1, "terms": [term_to_json(t) for t in x.terms]}


def sum_from_json(d: Mapping) -> SymSum:
    return SymSum.make([term_from_json(t) for t in d["terms"]])


def dumps(x: SymSum, indent: int | None = None) -> str:
    return json.dumps(sum_to_json(x), indent=indent, sort_keys=True)


def loads(text: str) -> SymSum:
    return sum_from_json(json.loads(text))


# ---------------------------------------------------------------------------
# display


def _arg_str(shift: int) -> str:
    if shift == 0:
        return "u"
    sign = "+" if shift > 0 else "-"
    return f"u{sign}{abs(shift)}"


def _split_factors(t: SymTerm, phi_fmt: str,
                   q_fmt: str) -> tuple[list[str], list[str]]:
    """Numerator and denominator factor strings, phi factors first.

    ``phi_fmt`` is formatted with the argument, ``q_fmt`` with the color and
    the argument; a factor with exponent e appears |e| times.
    """
    num, den = [], []
    for s, e in t.phis:
        (num if e > 0 else den).extend([phi_fmt.format(_arg_str(s))] * abs(e))
    for c, s, e in t.qs:
        (num if e > 0 else den).extend([q_fmt.format(c, _arg_str(s))] * abs(e))
    return num, den


def term_to_latex(t: SymTerm) -> str:
    num, den = _split_factors(t, r"\phi({})", "Q_{{{}}}({})")
    coeff = "" if t.coeff == 1 else "-" if t.coeff == -1 else f"{t.coeff} "
    if den:
        return rf"{coeff}\frac{{{''.join(num) or '1'}}}{{{''.join(den)}}}"
    return coeff + ("".join(num) or "1")


def _sum_lines(x: SymSum, term_str: Callable[[SymTerm], str],
               first: str) -> str:
    """One line per term, its sign split off as "- " or "+ ", a leading
    "+ " replaced by ``first``; "0" for the zero sum."""
    lines = ["- " + s[1:] if s.startswith("-") else "+ " + s
             for s in map(term_str, x.terms)] or ["0"]
    if lines[0].startswith("+ "):
        lines[0] = first + lines[0][2:]
    return "\n".join(lines)


def sum_to_latex(x: SymSum) -> str:
    return _sum_lines(x, term_to_latex, "")


def term_to_text(t: SymTerm) -> str:
    num, den = _split_factors(t, "phi({})", "Q{}({})")
    head = "" if t.coeff == 1 else ("-" if t.coeff == -1 else f"{t.coeff}*")
    body = "*".join(num) or "1"
    if den:
        body += " / (" + "*".join(den) + ")"
    return head + body


def sum_to_text(x: SymSum) -> str:
    return _sum_lines(x, term_to_text, "+ ")
