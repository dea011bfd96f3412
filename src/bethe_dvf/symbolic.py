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

``evaluate`` values a term or a sum at a point, which keeps its values in
its own memo.  Exact evaluation has one path, ``_run``, over a form that
``_compile`` makes for a sum on its first exact evaluation and keeps on the
sum.  With u = p/q and each zero a/b, the unreduced Q_c(u + s) is n_s / D_c,
D_c = q^N_c prod b whatever s is (likewise phi), so a term is
coeff prod n^e prod_c D_c^-net_c: D_c drops out where the net exponent of c
is 0, as in every box.  Over one common denominator the sum is a polynomial
with int coefficients in these slot values; ``_form`` factors it by greedy
Horner and compiles it once into a straight-line function, shared by every
sum of the same structure (shifted copies share one).  At a point each slot
value is made once, and a sum is one call.

Determinant expansions are built on packed codes (``Codec``), a transient
form like the compiled one: one int per monomial, so a product of monomials
is one integer add; each result is decoded once.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, count
from math import lcm, prod
from random import Random
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

from .reports import IdentityReport, exact_report

RatLike = Union[Fraction, int, str]

SAMPLE_BOUND = 10**4     # numerators/denominators of random sample points
SAMPLE_RETRY_CAP = 100   # resampling attempts before SamplingExhausted
POLE_TOL = 1e-9          # |root gap| or |pole base| that is a residue collision


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
        """The sum's compiled form, made on first use and kept in the
        instance ``__dict__``: ==, hash, repr and ``dumps`` never read it."""
        return _compile(self.terms)

    def __getstate__(self) -> dict:
        """Pickle state: the terms, not the compiled ``_plan``, whose
        function is made at run time and cannot be pickled."""
        return {k: v for k, v in vars(self).items() if k != "_plan"}

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
    implied by the tuple length).  A point is exact when u is a Fraction,
    valued in bit-exact Fraction arithmetic; otherwise values are complex
    floats.
    """

    u: object
    roots: Mapping[int, tuple]
    inhoms: tuple = ()

    @staticmethod
    def exact_point(u: RatLike, roots: Mapping[int, Sequence[RatLike]],
                    inhoms: Sequence[RatLike] = ()) -> Assignment:
        return Assignment(_rat(u),
                          {c: tuple(_rat(v) for v in vs) for c, vs in roots.items()},
                          tuple(_rat(w) for w in inhoms))

    @staticmethod
    def float_point(u, roots: Mapping[int, Sequence], inhoms: Sequence = ()) -> Assignment:
        return Assignment(complex(u),
                          {c: tuple(complex(v) for v in vs) for c, vs in roots.items()},
                          tuple(complex(w) for w in inhoms))

    @cached_property
    def _memo(self) -> dict:
        """The point's values, made on first use and kept in the instance
        ``__dict__`` as ``SymSum._plan`` is: ==, repr and the fields skip it."""
        return {}


def poly_at(zeros: Iterable, v, start):
    """Q_a(v) or phi(v): prod_z (v - z), multiplied left to right onto start.

    ``complex(1)`` gives the float values, and the fixed order keeps them
    bit-identical between callers; ``Fraction(1)`` gives the plain reference
    for the exact values of ``_base_int``.
    """
    prod = start
    for z in zeros:
        prod *= v - z
    return prod


def _factor_value(asg: Assignment, color: int | None, shift: int):
    """Float value of Q_color(u + shift) or phi(u + shift), memoized in the
    point's memo under (color, shift)."""
    key = (color, shift)
    val = asg._memo.get(key)
    if val is None:
        zeros = asg.inhoms if color is None else asg.roots.get(color, ())
        val = asg._memo[key] = poly_at(zeros, asg.u + complex(shift), complex(1))
    return val


def _base_int(asg: Assignment, color: int | None, shift: int) -> int:
    """The unreduced numerator n of Q_color(u + shift) or phi(u + shift) at
    an exact point: n = prod (p b - a q) for u + shift = p/q and each zero
    a/b, so the value is n / D_c with D_c = q^N prod b, whatever the shift."""
    zeros = asg.inhoms if color is None else asg.roots.get(color, ())
    q = asg.u.denominator
    p, n = asg.u.numerator + shift * q, 1
    for z in zeros:
        n *= p * z.denominator - z.numerator * q
    return n


_BASES: dict = {}   # one (color, shift) key per base, shared by all forms
_FORMS: dict = {}   # structure text -> fn, for the latest 256 structures
_SCALED = object()   # memo key of the point's slot values: n per base, D_c


def _compile(terms: Sequence[SymTerm], rows: bool = False) -> tuple:
    """The compiled form (keys, poles, fn) of the terms.  ``keys`` name the
    ints ``fn`` takes: each base (color, shift), for its unreduced n, in scan
    order (term order, Q before phi), and each color whose D_c a term keeps.
    ``poles`` are the slots of denominator bases in scan order.  ``fn`` is
    ``_form``'s for the terms' structure, which shifted copies share;
    ``_FORMS`` keys it by the structure's text, far smaller than its tuples."""
    slots: dict = {}
    poles: dict = {}
    shape = []
    for t in terms:
        mono, net = [], {}
        # no joined tuple: freed ones would stay on the tuple free lists
        for c, s, e in chain(t.qs, ((None, *f) for f in t.phis)):
            i = slots.setdefault((c, s), len(slots))
            if e < 0:
                poles.setdefault(i)
            net[c] = net.get(c, 0) + e
            mono += (i, e)
        for c, e in net.items():
            if e:
                mono += (slots.setdefault(c, len(slots)), -e)   # D_c^-net_c
        shape.append((t.coeff, *mono))
    key = repr((rows, shape))
    fn = _FORMS.get(key)
    if fn is None:
        if len(_FORMS) == 256:
            del _FORMS[next(iter(_FORMS))]
        fn = _FORMS[key] = _form(rows, len(slots), shape)
    return tuple(_BASES.setdefault(k, k) for k in slots), tuple(poles), fn


def _form(rows: bool, n: int, shape: list) -> Callable:
    """The straight-line function of the n slot values for a ``shape`` of
    ``_compile``, (coefficient, slot, exponent, slot, ...) per term.  Over one
    common denominator D = L prod v_i^m_i, m_i the largest denominator
    exponent of slot i and L the lcm of the coefficient denominators, each
    term is a monomial with an int coefficient.  It returns (P, D), or with
    ``rows`` ([each term's numerator], D).  P is the greedy Horner scheme
    (Ceberio & Kreinovich 2004) of the monomials' sum: a node splits on the
    slot x in most of its monomials (the lowest on a tie) into Q + R, x in
    every monomial of Q; each part moves the factor common to its monomials
    into its reference and is then a constant, inline, or a child node.
    Slot counts are made for the smaller part, the larger's follow from the
    node's.  Nodes wait on a stack and each statement follows its
    children's, so no depth meets a recursion limit.  The source is made
    from ints and fixed templates and then dropped."""
    lines: list[str] = []
    names = count()
    todo: list = []

    def mul(exps: dict, coeff: int = 1, node: tuple = ()) -> str:
        # compile() recurses on a long operator chain: the leading factors,
        # never a node's value, go 64 at a time to statements of their own
        factors = [str(coeff)] if coeff != 1 else []
        factors += [f"v{i}" if e == 1 else f"v{i}**{e}" for i, e in exps.items()]
        factors += node
        while len(factors) > 64:
            name = f"t{next(names)}"
            lines.append(f"{name} = " + "*".join(factors[:64]))
            factors = [name] + factors[64:]
        return "*".join(factors) or "1"

    def counts(monos: list) -> Counter:
        return Counter(chain.from_iterable(exps for exps, _ in monos))

    def part(monos: list, freq: dict) -> str:
        if len(monos) == 1:
            return mul(*monos[0])
        size, ds = len(monos), [exps for exps, _ in monos]
        common = {x: min([d[x] for d in ds])
                  for x, c in freq.items() if c == size}
        for x, k in common.items():
            for d in ds:        # each monomial is in one part: edit in place
                if d[x] == k:
                    del d[x]
                    freq[x] -= 1
                else:
                    d[x] -= k
        # only constants are left where a sum not made by SymSum.make
        # repeats a term: they add up
        if not any(freq.values()):
            return mul(common, sum(c for _, c in monos))
        todo.append((monos, f"t{next(names)}", freq))
        return mul(common, 1, (todo[-1][1],))

    exps = [dict(zip(term[1::2], term[2::2])) for term in shape]
    top: dict = {}
    for i, e in chain.from_iterable(x.items() for x in exps):
        if -e > top.get(i, 0):
            top[i] = -e
    big_l = lcm(*(term[0].denominator for term in shape))
    monos = []
    for x, (c, *_) in zip(exps, shape):
        num = dict(top)
        for i, e in x.items():
            if num.setdefault(i, 0) + e:
                num[i] += e
            else:
                del num[i]
        monos.append((num, c.numerator * (big_l // c.denominator)))
    if rows:
        value = "[" + ", ".join(mul(*mono) for mono in monos) + "]"
    else:
        value = part(monos, counts(monos)) if monos else "0"
    while todo:
        node = todo.pop()
        if type(node) is str:
            lines.append(node)
            continue
        monos, name, freq = node
        most = max(freq.values())
        x = min(i for i, c in freq.items() if c == most)
        q = [mono for mono in monos if x in mono[0]]
        r = [mono for mono in monos if x not in mono[0]]
        small = q if len(q) <= len(r) else r
        fs, big = counts(small), dict(freq)
        for i, c in fs.items():     # a slot may stay in big with count 0
            big[i] -= c
        fq, fr = (fs, big) if small is q else (big, fs)
        at = len(todo)          # the statement waits below its children
        todo.insert(at, f"{name} = {part(q, fq)} + {part(r, fr)}")
    den = mul(top, big_l)
    body = "".join(f"    {line}\n" for line in lines)
    scope: dict = {}
    exec(compile(f"def fn({', '.join(f'v{i}' for i in range(n))}):\n"
                 f"{body}    return {value}, {den}\n", "<horner>", "exec"),
         scope)
    return scope["fn"]


def _run(plan: tuple, asg: Assignment, memo: dict):
    """The one exact path: the compiled form ``plan`` at ``asg``, (P, D), or
    (numerators, D) for a form of rows.  Each slot value is made once per
    point and kept in the one slot table of ``memo``: D_c = q^N_c prod b per
    color, and each base's n from ``_base_int``.  The first vanishing
    denominator base in scan order raises PoleHit before any product is
    taken."""
    keys, poles, fn = plan
    vals = memo.get(_SCALED) or memo.setdefault(_SCALED, {
        c: asg.u.denominator ** len(zs) * prod(z.denominator for z in zs)
        for c, zs in (*asg.roots.items(), (None, asg.inhoms))})
    args = list(map(vals.get, keys))
    if None in args:
        for i, key in enumerate(keys):
            if args[i] is None and type(key) is tuple:
                args[i] = vals[key] = _base_int(asg, *key)
            elif args[i] is None:
                args[i] = vals[key] = 1     # a color with no zeros here
    if not all(map(args.__getitem__, poles)):
        raise PoleHit(*keys[next(i for i in poles if not args[i])])
    return fn(*args)


def evaluate(x: SymSum, asg: Assignment, _cache: dict | None = None):
    """Value of the rational expression at the assignment (0 for the empty
    sum; a term t is valued as ``SymSum((t,))``), memoized in the point's
    memo or, where one is given, in ``_cache`` in its place.

    Exact values come from ``_run`` on the sum's compiled form, made on its
    first exact evaluation and kept on the sum: one Horner scheme over one
    common denominator, reduced to a Fraction once.  A float term is its
    coefficient times its Q, then its phi factors; the terms add from 0j.
    PoleHit names the first denominator factor, in term order and then
    factor order, that vanishes at the point, also where 0/0 would result.
    """
    if isinstance(asg.u, Fraction):
        return Fraction(*_run(x._plan, asg,
                              asg._memo if _cache is None else _cache))
    if _cache is not None:      # the same point, with the given memo
        asg = Assignment(asg.u, asg.roots, asg.inhoms)
        vars(asg)["_memo"] = _cache
    total = complex(0)
    for t in x.terms:
        val = complex(t.coeff)
        # phi as color None, as in _compile and PoleHit
        for color, shift, exp in (*t.qs, *((None, *f) for f in t.phis)):
            base = _factor_value(asg, color, shift)
            if exp < 0 and base == 0:
                raise PoleHit(color, shift)
            val *= base if exp == 1 else 1 / base if exp == -1 else base ** exp
        total += val
    return total


# ---------------------------------------------------------------------------
# randomized-exact identity checking


def colors_of(*sums: SymSum) -> set[int]:
    return {c for x in sums for t in x.terms for c, _, _ in t.qs}


def random_rational(rng: Random) -> Fraction:
    # small denominators keep exact arithmetic cheap over long products
    return Fraction(rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND), rng.randint(1, 8))


def random_assignment(rng: Random, colors: Iterable[int],
                      roots_per_color: int = 2, n_inhom: int = 2) -> Assignment:
    roots = {c: tuple(random_rational(rng) for _ in range(roots_per_color))
             for c in sorted(set(colors))}
    inhoms = tuple(random_rational(rng) for _ in range(n_inhom))
    return Assignment.exact_point(random_rational(rng), roots, inhoms)


def sample_max_deviation(value_at: Callable[[Assignment], Fraction],
                         colors: set[int], trials: int,
                         seed: int, roots_per_color: int = 2,
                         n_inhom: int = 2) -> tuple[Fraction, list[str]]:
    """The one sampling loop behind every randomized-exact check.

    Calls ``value_at(asg)`` at ``trials`` random exact-rational
    assignments of u, all roots of ``colors`` (color 1 when empty) and all
    inhomogeneities, each a new point with an empty memo, and draws again on
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
                val = value_at(asg)
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
        lambda asg: evaluate(diff, asg), colors_of(diff),
        trials, seed)
    return IdentityReport(name="equal-as-rational-functions",
                          mode="randomized-exact", samples=trials,
                          max_deviation=worst, passed=(worst == 0),
                          details={"points_u": points}, seed=seed)


def _group_sum_at(groups: Sequence[Sequence[SymSum]],
                  asg: Assignment) -> Fraction:
    """Exact value of a sum of products, each factor valued unexpanded by
    ``_run``: a group's integer pairs multiply, the groups add on integers,
    and one Fraction is built."""
    tn, td = 0, 1
    for group in groups:
        pairs = [_run(f._plan, asg, asg._memo) for f in group]
        n, d = prod(n for n, _ in pairs), prod(d for _, d in pairs)
        tn, td = tn * d + n * td, td * d
    return Fraction(tn, td)


def equal_group_sums(lhs: Sequence[Sequence[SymSum]],
                     rhs: Sequence[Sequence[SymSum]], trials: int = 20, *,
                     seed: int = 0, roots_per_color: int = 2,
                     n_inhom: int = 2):
    """Randomized-exact equality of two sum-of-products expressions.

    Factors are evaluated individually at each sample point, so large
    products never get expanded.
    """
    cols = colors_of(*(f for side in (lhs, rhs) for g in side for f in g))
    worst, _ = sample_max_deviation(
        lambda asg: _group_sum_at(lhs, asg) - _group_sum_at(rhs, asg),
        cols, trials, seed, roots_per_color, n_inhom)
    return IdentityReport(name="group-sums", mode="randomized-exact", samples=trials,
                          max_deviation=worst, passed=(worst == 0), details={},
                          seed=seed)


def exact_det(matrix: list[list[Fraction]]) -> Fraction:
    """Determinant of an exact rational matrix, fraction-free: each row is
    scaled to integers by the lcm of its denominators, Bareiss elimination
    with row swaps runs on the ints, and one Fraction is built at the end."""
    dens = [lcm(*(x.denominator for x in row)) for row in matrix]
    m = [[x.numerator * (d // x.denominator) for x in row]
         for row, d in zip(matrix, dens)]
    n, sign, prev = len(m), 1, 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        top, p = m[k], m[k][k]
        for r in range(k + 1, n):
            # exact: Bareiss's divisions by the previous pivot leave no rest
            a = m[r][k]
            m[r] = [(p * x - a * y) // prev for x, y in zip(m[r], top)]
        prev = p
    return Fraction(sign * prev, prod(dens))


# ---------------------------------------------------------------------------
# residues


def _term_residue(t: SymTerm, color: int, root_index: int, shift: int,
                  at: Assignment) -> complex:
    """Simple-pole residue of one term at the pole ``at``."""
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
        if abs(d) < POLE_TOL:
            raise GenericityViolation(
                f"color {color} roots {root_index} and {j} coincide")
        deriv *= d

    rest = complex(t.coeff)
    # phi as color None, as in _compile and PoleHit
    for c, s, e in (*t.qs, *((None, *f) for f in t.phis)):
        if c == color and s == -shift:
            continue                    # the simple pole, divided out by deriv
        base = _factor_value(at, c, s)
        if base == 0 or (e < 0 and abs(base) < POLE_TOL):
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
    at = Assignment(pole, asg.roots, asg.inhoms)
    return [_term_residue(t, color, root_index, s, at) for t in x.terms]


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
