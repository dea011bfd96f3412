from __future__ import annotations

import hashlib
import json
import math
from functools import lru_cache, partial
from random import Random

import numpy as np
import pytest

from bethe_dvf import bae, newton
from bethe_dvf.algebra import (ZERO_LABEL, AlgebraSpec, bilinear_form,
                               parse_spec, root_degree)
from bethe_dvf.bae import (BetheRootSet, BetheSystem, NoSolutionFound,
                           _pair_relations, assert_generic, bae_parts,
                           check_lemma_products, check_pole_free,
                           check_residue_pairs, max_residual, solve_bae)
from bethe_dvf.cli import FIXTURE_COUNTS, FIXTURE_W, solved_fixture
from bethe_dvf.dvf import BoxContext, column_dvf, signed_box
from bethe_dvf.newton import _equation_table, _parts
from bethe_dvf.symbolic import (Assignment, GenericityViolation, SymSum,
                                SymTerm, evaluate)


def sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def test_empty_system_trivially_solved():
    spec = parse_spec("B(1|1)")
    system = BetheSystem(spec, 2, (0.5, -0.5), (0, 0))
    sols = solve_bae(system, seed=0)
    assert len(sols) == 1
    assert sols[0].roots == ((), ())
    assert max_residual(system, sols[0]) == 0


def test_single_root_solution_is_midpoint():
    # for a lone color-1 root of B(0|1) the equation forces the centroid
    spec = parse_spec("B(0|1)")
    system = BetheSystem(spec, 2, (2.0, -1.0), (1,))
    sols = solve_bae(system, seed=3)
    assert any(abs(s.roots[0][0] - 0.5) < 1e-9 for s in sols)


def test_degenerate_instance_has_no_solution():
    # inhomogeneities 2 apart put the forced root on a zero of phi(u -+ 1)
    spec = parse_spec("B(0|1)")
    system = BetheSystem(spec, 2, (1.0, -1.0), (1,))
    with pytest.raises(NoSolutionFound):
        solve_bae(system, seed=3, n_starts=16)


def test_generic_rejection():
    spec = parse_spec("B(0|1)")
    system = BetheSystem(spec, 2, (2.0, -1.0), (2,))
    clashing = BetheRootSet(((0.5 + 0j, 0.5 + 0j),))
    with pytest.raises(GenericityViolation):
        assert_generic(system, clashing)


def test_b0s_dispatch_differs_from_generic_form():
    # the color-s equation of B(0|s) is NOT the generic root-system form
    spec = parse_spec("B(0|2)")
    system = BetheSystem(spec, 2, (0.9, -0.2), (1, 1))
    roots = BetheRootSet(((0.31 + 0.2j,), (-0.77 + 0.1j,)))
    ln, ld, rn, rd = bae_parts(system, roots, 2, 1)
    lhs, rhs = ln / ld, rn / rd
    # generic expression for comparison
    from bethe_dvf.algebra import bilinear_form, root_degree

    u = roots.roots[1][0]
    gen = (-1) ** root_degree(spec, 2)
    for b in (1, 2):
        c = complex(bilinear_form(spec, 2, b))
        if c == 0:
            continue
        q = lambda v: np.prod([v - r for r in roots.roots[b - 1]])
        gen *= q(u + c) / q(u - c)
    assert abs((lhs - rhs) - (-1 - gen)) > 1e-3


def test_residual_zero_iff_solution():
    spec, system, sol = solved_fixture("B(0|1)")
    assert max_residual(system, sol) < 1e-10


@pytest.mark.parametrize("roots", [((math.nan, 0.5), (0.1, 0.2)),
                                   ((0.3, 0.5), (0.1, math.nan))])
def test_a_nan_residual_is_the_maximum(roots):
    # max() keeps its running value against a NaN: these once read 0.0,
    # while the same roots without the NaN read 3.93
    system = BetheSystem(parse_spec("B(0|2)"), 3, (1.7, -0.4, 0.3), (2, 2))
    rs = BetheRootSet(tuple(tuple(map(complex, vs)) for vs in roots))
    assert math.isnan(max_residual(system, rs))


def test_a_nan_residual_is_rejected(monkeypatch):
    # a finite iterate whose residual is NaN fails the residual filter
    system = BetheSystem(parse_spec("B(0|1)"), 2, (2.0, -1.0), (1,))
    monkeypatch.setattr(newton, "search",
                        lambda *args: [(np.array([0.5 + 0j]), math.nan)])
    stats: dict = {}
    with pytest.raises(NoSolutionFound):
        solve_bae(system, stats=stats)
    assert stats["residual_rejected"] == 1


def test_solutions_permutation_invariant():
    spec, system, sol = solved_fixture("B(0|1)")
    flipped = BetheRootSet((tuple(reversed(sol.roots[0])),))
    assert abs(max_residual(system, flipped) - max_residual(system, sol)) < 1e-12


def test_root_set_json_round_trip():
    rs = BetheRootSet(((0.5 + 1j, -0.25j), (1.5 + 0j,)))
    assert BetheRootSet.from_json(rs.to_json()) == rs


@pytest.mark.parametrize("name", sorted(FIXTURE_COUNTS))
def test_residue_pairs_cancel(name):
    spec, system, sol = solved_fixture(name)
    rep = check_residue_pairs(spec, system, sol)
    assert rep.passed, rep.details
    assert rep.max_deviation < 1e-8


@pytest.mark.parametrize("name,moved", [
    *((name, "odd-up") for name in sorted(FIXTURE_COUNTS)), ("D(2|1)", "fork-b")])
def test_a_relation_off_its_pole_fails(monkeypatch, name, moved):
    # moved by 2, the relation's boxes have no residue to cancel there: the
    # check must fail rather than pass with nothing tested
    spec, system, sol = solved_fixture(name)
    relations = bae._pair_relations
    monkeypatch.setattr(bae, "_pair_relations", lambda sp: [
        (rel, d, shift + 2 * (rel == moved), labels)
        for rel, d, shift, labels in relations(sp)])
    rep = check_residue_pairs(spec, system, sol)
    assert not rep.passed
    assert {row["relation"] for row in rep.details["cases"]
            if not row["residue"] < bae.RESIDUE_EPS} == {moved}


def test_a_relation_with_one_box_off_its_pole_fails(monkeypatch):
    # the box of 0 has no residue where those of 1 and 2 in B(1|1) have
    # theirs: the relation's total residue is all of its scale
    spec, system, sol = solved_fixture("B(1|1)")
    relations = bae._pair_relations
    monkeypatch.setattr(bae, "_pair_relations", lambda sp: [
        (rel, d, shift, [labels[0], ZERO_LABEL] if rel == "odd-up" else labels)
        for rel, d, shift, labels in relations(sp)])
    rep = check_residue_pairs(spec, system, sol)
    assert not rep.passed
    assert [row["residue"] for row in rep.details["cases"]
            if row["relation"] == "odd-up"] == [1.0, 1.0]


@pytest.mark.parametrize("name", sorted(FIXTURE_COUNTS))
def test_pole_freeness(name):
    spec, system, sol = solved_fixture(name)
    ctx = BoxContext(spec)
    for a in (1, 2, 3, 4):
        rep = check_pole_free(column_dvf(ctx, a), system, sol,
                              name=f"T^{a}")
        assert rep.passed, (a, rep.max_deviation)


def test_pole_free_trivial_t0():
    spec, system, sol = solved_fixture("B(0|1)")
    from bethe_dvf.symbolic import ONE
    rep = check_pole_free(ONE, system, sol)
    assert rep.passed and rep.samples == 0


def test_negative_control():
    # the theorem's hypothesis is necessary: random roots leave residues
    spec = parse_spec("B(1|1)")
    system = BetheSystem(spec, 3, FIXTURE_W, (2, 2))
    rng = np.random.default_rng(4)
    bad = BetheRootSet(tuple(
        tuple(complex(x, y) for x, y in zip(rng.uniform(-2, 2, n),
                                            rng.uniform(-2, 2, n)))
        for n in system.root_counts))
    rep = check_pole_free(column_dvf(BoxContext(spec), 1), system, bad)
    assert rep.max_deviation > 1e-3


def test_b21_solution_satisfies_printed_system():
    # independent oracle: the specialized three-equation system for B(2|1)
    spec = parse_spec("B(2|1)")
    system = BetheSystem(spec, 3, FIXTURE_W, (2, 2, 2))
    sols = solve_bae(system, tol=1e-10, seed=21, n_starts=200, max_iter=150,
                     start_radius=5.0)
    sol = sols[0]
    # the exact floats of the search, recorded before the equation table
    assert sha(sol) == "3a8aedb36e921001b08819ef8262ed43a9212872ba56f9321afdcb570b34a595"

    def q(b, v):
        return np.prod([v - r for r in sol.roots[b - 1]])

    def phi(v):
        return np.prod([v - w for w in FIXTURE_W])

    for k in range(2):
        u = sol.roots[0][k]
        assert abs(phi(u - 1) / phi(u + 1)
                   - q(2, u - 1) / q(2, u + 1)) < 1e-8
    for k in range(2):
        u = sol.roots[1][k]
        assert abs(-1 - (q(1, u - 1) * q(2, u + 2) * q(3, u - 1))
                   / (q(1, u + 1) * q(2, u - 2) * q(3, u + 1))) < 1e-8
    for k in range(2):
        u = sol.roots[2][k]
        assert abs(-1 - (q(2, u - 1) * q(3, u + 1))
                   / (q(2, u + 1) * q(3, u - 1))) < 1e-8


@pytest.mark.parametrize("name", ["B(2|1)", "B(3|2)", "B(0|1)", "B(0|2)",
                                  "B(0|3)", "B(1|1)", "D(2|1)", "D(3|1)",
                                  "D(2|2)"])
def test_lemma_products(name):
    rep = check_lemma_products(parse_spec(name))
    failed = [c for c in rep.details["cases"] if not c["passed"]]
    assert rep.passed, failed


# every B(r|s) with r + s <= 6 and every D(r|s) with r + s <= 7
FAMILY_RULE_SPECS = ([AlgebraSpec("B", r, s) for s in range(1, 7)
                      for r in range(7 - s)]
                     + [AlgebraSpec("D", r, s) for s in range(1, 6)
                        for r in range(2, 8 - s)])


def test_family_rules_are_pinned():
    # recorded before each family rule of bae.py was written once for all
    # families: the relations and the lemma checks must keep every name,
    # color, shift and result (the relations re-pinned once, when their
    # hand-written signs gave way to the signed boxes)
    assert sha([_pair_relations(spec) for spec in FAMILY_RULE_SPECS]) == (
        "9aa8d0429ffb649c23935b99a4db7e3271faafa7b0b07a2b65f2d6c879b20514")
    text = json.dumps([check_lemma_products(spec).to_json()
                       for spec in FAMILY_RULE_SPECS], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "7b74850e33f0c0dcf9de43342db8937f1c930805701a801733bc81de290ff8a0")


def test_pair_relations_take_the_signed_box_signs():
    # recorded before check_residue_pairs summed signed boxes, when each
    # label carried a hand-written sign: every label with the coefficient of
    # its signed box, the sign each residue now carries
    assert sha([[(name, d, shift,
                  [(lab, signed_box(BoxContext(spec), lab).coeff)
                   for lab in labels])
                 for name, d, shift, labels in _pair_relations(spec)]
                for spec in FAMILY_RULE_SPECS]) == (
        "cf9541c533be571493827c9cc5087d983f668033cc19addebea884ecda0ab62b")


PAIR_SPECS = ([AlgebraSpec("B", r, s) for r in range(7) for s in range(1, 7)]
              + [AlgebraSpec("D", r, s) for r in range(2, 8)
                 for s in range(1, 7)])


def _bethe_term(spec: AlgebraSpec, d: int, minus: bool = True,
                self_coupling: bool = True) -> SymTerm:
    """RHS/LHS of Bethe equation d as one term: c_d prod Q_b(u + x) /
    Q_b(u - x) over the couplings (b, x) that the solver's table reads off
    bilinear_form, times phi(u + 1)/phi(u - 1) for d = 1.  c_d is
    -(-1)^deg on a signed row and 1 on the unsigned row of an odd root with
    (alpha_d|alpha_d) = c != 0, which couples to itself at -c and 2c.  The
    flags leave out the signed rows' minus or the 2c self-coupling."""
    c, deg = bilinear_form(spec, d, d), root_degree(spec, d)
    signed = not (deg and c)
    xs = [(b, bilinear_form(spec, d, b) if signed or b != d else -c)
          for b in range(1, spec.rank + 1)]
    if not signed and self_coupling:
        xs.append((d, 2 * c))
    qs = [f for b, x in xs if x for f in ((b, x, 1), (b, -x, -1))]
    coeff = (-1) ** deg * (-1 if minus else 1) if signed else 1
    return SymTerm.make(coeff, qs, [(1, 1), (-1, -1)] if d == 1 else [])


def _pair_ratio(spec: AlgebraSpec, d: int, shift: int, labels) -> SymTerm:
    """(-r2 / r1)(u + shift), r1 and r2 the relation's signed boxes without
    their pole factor Q_d(u - shift): the two residues at u = u_k + shift
    cancel exactly where this is 1 at u = u_k."""
    pole = (d, -shift, -1)
    r1, r2 = [signed_box(BoxContext(spec), lab) for lab in labels]
    assert pole in r1.qs and pole in r2.qs
    r1, r2 = [SymTerm(t.coeff, tuple(f for f in t.qs if f != pole), t.phis)
              for t in (r1, r2)]
    return (SymTerm.make(-1) * r2 * r1.inverse()).shifted(shift)


def test_each_residue_pair_relation_is_its_bethe_equation():
    # the paper's central claim, exactly: each pair's residues cancel at a
    # root of color d by Bethe equation d, for 1,122 relations of 78
    # algebras; leaving out the signed rows' minus fails every signed row,
    # leaving out the 2c self-coupling fails the 12 odd-root rows of B(0|s)
    rels = [(spec, d, _pair_ratio(spec, d, shift, labels))
            for spec in PAIR_SPECS
            for _, d, shift, labels in _pair_relations(spec)]
    assert len(rels) == 1122
    assert all(got == _bethe_term(spec, d) for spec, d, got in rels)
    unsigned = [(spec, d) for spec, d, _ in rels
                if root_degree(spec, d) and bilinear_form(spec, d, d)]
    assert len(unsigned) == 12
    assert sum(got == _bethe_term(spec, d, minus=False)
               for spec, d, got in rels) == 12
    assert sum(got == _bethe_term(spec, d, self_coupling=False)
               for spec, d, got in rels) == 1122 - 12


def test_the_bethe_terms_are_the_solver_equations():
    # at u = u_k^(d) on random complex roots, the term of equation d is
    # (rn/rd)/(ln/ld) of the solver's table
    rng, w = Random(5), (0.9, -0.3, 0.4)
    for spec in PAIR_SPECS:
        system = BetheSystem(spec, 3, w, (2,) * spec.rank)
        roots = BetheRootSet(tuple(
            tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                  for _ in range(2)) for _ in range(spec.rank)))
        for d in range(1, spec.rank + 1):
            term = SymSum((_bethe_term(spec, d),))
            for k in (1, 2):
                ln, ld, rn, rd = bae_parts(system, roots, d, k)
                at = Assignment.float_point(roots.roots[d - 1][k - 1],
                                            roots.as_mapping(), w)
                want = (rn / rd) / (ln / ld)
                assert abs(evaluate(term, at) - want) <= 1e-12 * abs(want)


# sha256 of the solver's exact output, recorded before the equations were
# compiled into a table: the solver must reproduce every float bit for bit
FIXTURE_ROOTS_SHA = {
    "B(0|1)": "7f42b9ce98cba0f8030aa9ea0a1338423813eb7b14d4f7f2f72091e6475ba6ee",
    "B(0|2)": "2a9b5db5378650126b3c5af825408d72fe98d0b67053ce01af9c8e728b50c2da",
    "B(1|1)": "75179540e3aba9c5d999170f4fa432c1cbc0655dc642eb491f1cb0cf8814e4d2",
    "D(2|1)": "97d7a17af5127046c58d0bf4c9dc08296538fc76bdf74203c7865de219eab2e2",
}


@pytest.mark.parametrize("name", sorted(FIXTURE_COUNTS))
def test_fixture_roots_are_pinned(name):
    assert sha(solved_fixture(name)[2].roots) == FIXTURE_ROOTS_SHA[name]


def test_b01_search_is_pinned():
    system = BetheSystem(parse_spec("B(0|1)"), 3, FIXTURE_W, FIXTURE_COUNTS["B(0|1)"])
    stats: dict = {}
    sols = solve_bae(system, tol=1e-10, seed=21, n_starts=200, max_iter=150,
                     start_radius=5.0, stats=stats)
    assert (hashlib.sha256((repr(sols) + repr(stats)).encode()).hexdigest()
            == "cf175a989695b4e688ac529d1b42f332b677b7d72a145303405e3b3e545cc197")


# rows no fixture reaches: the a < s and exceptional colors of B(0|3), and
# the generic rows of B(2|1), D(3|1) and D(2|2)
PARTS_SHA = {
    "B(0|3)": ("da25874f7d92e010f31c83553295cce18e9806248540bca9cb1399e7e0e49fd3", (2, 2, 2)),
    "B(2|1)": ("bf70ebf37810adb415faca34d681564fe6b3c323ad28a0daa2c418fe9ec14a5a", (2, 2, 2)),
    "D(3|1)": ("d9aaeced1c36b44c0e6485f5208d74e55bae1c731f628636f2f07ae1c3ba12f7", (2, 2, 1, 1)),
    "D(2|2)": ("22559d905cbbe3a06247030576ed89873cf27a4a2b216a8ba54b098274402f75", (2, 2, 1, 1)),
}


def _fixed_roots(counts, m):
    return BetheRootSet(tuple(
        tuple(complex(0.37 * a - 0.61 * k + 0.29 * m,
                      0.23 * k - 0.17 * a + 0.11 * m * m)
              for k in range(1, n + 1))
        for a, n in enumerate(counts, start=1)))


@pytest.mark.parametrize("name", sorted(PARTS_SHA))
def test_bae_parts_are_pinned(name):
    digest, counts = PARTS_SHA[name]
    system = BetheSystem(parse_spec(name), 3, FIXTURE_W, counts)
    vals = [bae_parts(system, _fixed_roots(counts, m), a, k)
            for m in (1, 2) for a, n in enumerate(counts, start=1)
            for k in range(1, n + 1)]
    assert sha(vals) == digest


# sha256 of repr(sols) + repr(stats) from 40 starts, recorded before the
# starts were batched: systems no fixture reaches, all of whose floats the
# batched search must reproduce.  D(2|2) (2, 2, 1, 1) accepts no root set
# (sols is None), so its pin covers how each of its 40 starts ended.
SEARCH_SHA = {
    ("B(2|1)", (2, 2, 2)): "f36aa1ebeeb2b2ed4804672c408aebe3116a49304fff16041f3e9756defe6a7b",
    ("D(3|1)", (2, 2, 1, 1)): "6493b374962e5b3c1e0bff2104bfdc5eddd6c4bb8ce0d80f9171984e530c3f6e",
    ("B(0|3)", (2, 2, 2)): "ab7920ec889638e1742c90ae2a3367263a23d6fcf0fd03412c45f03875479838",
    ("D(2|2)", (2, 2, 1, 1)): "411b0749e0dc150672652c007bb9c39dc10e6663a8e05e5d916875c10cadd735",
    ("D(2|2)", (2, 2, 1, 0)): "4d8f0976ef941b02eac1f8fb1009ad322b75853fa39436bdcb379f31af67e67e",
}


def _search(system, **kw):
    stats: dict = {}
    try:
        sols = solve_bae(system, stats=stats, **kw)
    except NoSolutionFound:
        sols = None
    return sols, stats


@pytest.mark.parametrize("name,counts", sorted(SEARCH_SHA))
def test_search_is_pinned(name, counts):
    system = BetheSystem(parse_spec(name), 3, FIXTURE_W, counts)
    sols, stats = _search(system, tol=1e-10, seed=21, n_starts=40,
                          max_iter=150, start_radius=5.0)
    assert (hashlib.sha256((repr(sols) + repr(stats)).encode()).hexdigest()
            == SEARCH_SHA[name, counts])


@pytest.mark.parametrize("kw", [{"n_starts": 0}, {"n_starts": -2},
                                {"max_iter": 0}, {"max_iter": -1},
                                {"tol": math.nan}, {"tol": 0.0},
                                {"tol": -1.0}])
def test_solver_refuses_bad_arguments(kw):
    # res >= nan is False, so a NaN tol once let every converged start pass
    # the residual filter; a tol <= 0 ended in NoSolutionFound, as if the
    # search had failed
    for counts in ((1,), (0,)):
        system = BetheSystem(parse_spec("B(0|1)"), 2, (2.0, -1.0), counts)
        stats: dict = {}
        with pytest.raises(ValueError):
            solve_bae(system, stats=stats, **kw)
        assert stats == {}


def test_starts_do_not_affect_each_other():
    # the first 10 of 200 starts are the 10 starts: each root set they give
    # comes out of the 200-start search float for float
    system = BetheSystem(parse_spec("B(0|2)"), 3, FIXTURE_W,
                         FIXTURE_COUNTS["B(0|2)"])
    kw = dict(tol=1e-10, seed=0, max_iter=150, start_radius=5.0)
    few = solve_bae(system, n_starts=10, **kw)
    many = solve_bae(system, n_starts=200, **kw)
    assert len(few) == 2 and all(sol in many for sol in few)


class _Draws:
    """Stands in for the start draw: returns the given one-root starts' real
    and imaginary parts as the one draw of shape (starts, 2, 1)."""

    def __init__(self, starts):
        self.parts = [[[z.real], [z.imag]] for z in starts]

    def uniform(self, low, high, size):
        assert size == (len(self.parts), 2, 1)
        return np.array(self.parts)


def test_singular_starts_stop_alone(monkeypatch):
    # the lone root of B(0|1) with phi of degree 2: far up the imaginary
    # axis every bump rounds away and the Jacobian is exactly zero
    system = BetheSystem(parse_spec("B(0|1)"), 2, (2.0, -1.0), (1,))
    regular = [complex(-0.25, 0.125), complex(0.375, -0.5)]
    singular = [complex(0, 2.0 ** 60), complex(0.25, -2.0 ** 61)]
    refused = []
    solve = np.linalg.solve

    def spy(a, b):
        try:
            return solve(a, b)
        except np.linalg.LinAlgError:
            refused.append(np.shape(a))
            raise

    monkeypatch.setattr(np.linalg, "solve", spy)

    def search(starts):
        # center 0.5 and radius 1: the drawn parts land exactly on ``starts``
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: _Draws([z - 0.5 for z in starts]))
        return _search(system, n_starts=len(starts), start_radius=1.0)

    assert search(singular[:1]) == (None, dict(
        starts=1, converged=0, residual_rejected=0, genericity_rejected=0,
        runaway_rejected=0, distinct=0))
    alone = search(regular)
    refused.clear()
    sols, stats = search([regular[0], singular[0], regular[1], singular[1]])
    assert (4, 1, 1) in refused  # the stacked solve refused the batch
    assert sols == alone[0]
    assert stats == dict(alone[1], starts=4)


# every B(r|s) with r + s <= 4 and every D(r|s) with r + s <= 5
PARTS_SPECS = ([AlgebraSpec("B", r, s) for s in range(1, 5) for r in range(5 - s)]
               + [AlgebraSpec("D", r, s) for s in range(1, 4)
                  for r in range(2, 6 - s)])


def _parts_rows(n: int) -> np.ndarray:
    # two generic root vectors, and one on a small integer grid whose factor
    # values hit exact zeros, so that the signs of zeros are pinned too
    j = np.arange(1, n + 1)
    return np.array([0.37 * j - 0.61 + 0.29j * j + 0.11j * (j % 3),
                     -0.53 * j + 0.41 + 1j * (0.23 - 0.17 * j),
                     (j % 3) - 1.0 + 0j])


def test_parts_over_small_ranks_are_pinned():
    # recorded before the equation table became one flat plan: every float
    # (and the sign of every zero) of _parts, with root counts that leave a
    # color without roots and with N = 0, 1 and 3 sites, which reach the
    # empty products and the phi boundaries that no fixture reaches
    w = [complex(1.7, 0.0), complex(-0.4, 0.25), complex(0.3, -0.5)]
    h = hashlib.sha256()
    for spec in PARTS_SPECS:
        for counts in (tuple(1 + a % 2 for a in range(1, spec.rank + 1)),
                       tuple(a % 3 for a in range(1, spec.rank + 1))):
            x = _parts_rows(sum(counts))
            for n_sites in (0, 1, 3):
                out = _parts(_equation_table(spec, counts), w[:n_sites], x)
                h.update(repr((str(spec), counts, n_sites, out.shape)).encode())
                h.update(out.tobytes())
    assert h.hexdigest() == (
        "ddafe68236a72e865da0486b38b6d0f4a5983fcfb12b58c5286f246a9d3f2ff4")


def test_b0s_parts_are_pinned():
    # recorded before the B(0|s) rows below alpha_s were read off the
    # bilinear form: every float of _parts for B(0|1)..B(0|7), past the
    # s <= 4 of PARTS_SPECS, so that every row shape of color_row is reached
    w = [complex(1.7, 0.0), complex(-0.4, 0.25), complex(0.3, -0.5)]
    h = hashlib.sha256()
    for s in range(1, 8):
        spec = AlgebraSpec("B", 0, s)
        for counts in (tuple(1 + a % 2 for a in range(1, s + 1)),
                       tuple(a % 3 for a in range(1, s + 1)), (2,) * s):
            x = _parts_rows(sum(counts))
            for n_sites in (0, 1, 3):
                out = _parts(_equation_table(spec, counts), w[:n_sites], x)
                h.update(repr((str(spec), counts, n_sites, out.shape)).encode())
                h.update(out.tobytes())
    assert h.hexdigest() == (
        "be17c992b668a2d7d483085463f3edb0fd80e6faf5c6be955c53101047096ccf")


_FIXTURE_SOLVER = dict(tol=1e-10, seed=21, max_iter=150, start_radius=5.0)


@lru_cache(maxsize=None)
def _fixture_searches(n_starts: int) -> tuple[dict, int, int]:
    """The fixture searches at ``n_starts`` starts, name -> (sols, stats),
    how many times they called newton._residuals and how many root vectors
    they passed it."""
    calls = rows = 0
    residuals = newton._residuals

    def counted(table, w, x):
        nonlocal calls, rows
        calls += 1
        rows += len(x)
        return residuals(table, w, x)

    newton._residuals = counted
    try:
        out = {name: _search(BetheSystem(parse_spec(name), len(FIXTURE_W),
                                         FIXTURE_W, counts),
                             n_starts=n_starts, **_FIXTURE_SOLVER)
               for name, counts in FIXTURE_COUNTS.items()}
    finally:
        newton._residuals = residuals
    return out, calls, rows


# sha256 of repr(sols) + repr(stats) of the fixture searches, recorded
# before the equation table became one flat plan and before line-search
# rounds were merged: 200 starts as the fixtures and the bethe benchmark
# solve them, and 8 starts, where few enough starts are live that the
# merged rounds apply from the first iteration
FIXTURE_SEARCH_SHA = {
    ("B(0|1)", 200): "cf175a989695b4e688ac529d1b42f332b677b7d72a145303405e3b3e545cc197",
    ("B(0|2)", 200): "89c2fc544a8c5064e5a9eb546e676f84ca58b4990a547bb719ba195c145a8651",
    ("B(1|1)", 200): "b31da73e4a6857c1f2d9805ef1f8d8b4406a22184a5a07999b00b6d495b84d99",
    ("D(2|1)", 200): "93651941861b60f68a443fc3d0b792283ec7164d580f5dfb5bde1725d9fa01f4",
    ("B(0|1)", 8): "1aa81b0fcf95a72707264d89b8da1f86e99f7b3a3792d4fb3c2f022d55c34574",
    ("B(0|2)", 8): "626cb23846ff6c38a322f29b5209f051a1b06a7e405c684b5a01cfa3cb1493a7",
    ("B(1|1)", 8): "382e0540dfaae262598da2b721d151ff243cc786b4cc19530bcc26a2e9daaa65",
    ("D(2|1)", 8): "367de07c9c687ada6d21eb04b04c4faa103d974f5ac238fec36cb76681408966",
}


@pytest.mark.parametrize("name,n_starts", sorted(FIXTURE_SEARCH_SHA))
def test_fixture_searches_are_pinned(name, n_starts):
    sols, stats = _fixture_searches(n_starts)[0][name]
    assert (hashlib.sha256((repr(sols) + repr(stats)).encode()).hexdigest()
            == FIXTURE_SEARCH_SHA[name, n_starts])


def test_fixture_search_residual_calls():
    # a deterministic work count: the four 200-start fixture searches made
    # 1,924 calls of _residuals before the line search evaluated the rounds
    # left in one call whenever they fit in one batch, and 1,391 before each
    # start searched from the window its last step suggests, each round in
    # one call
    assert _fixture_searches(200)[1] == 1118


def test_fixture_search_residual_rows():
    # the root vectors those calls evaluated: 185,545 before the windows
    assert _fixture_searches(200)[2] == 163462


def _plain_norm(row: np.ndarray) -> float:
    re = im = 0.0
    for z in row.tolist():
        re += z.real * z.real
    for z in row.tolist():
        im += z.imag * z.imag
    return math.sqrt(re + im)


def _bits(a) -> np.ndarray:
    # float64 and complex128 values as their 64-bit patterns
    return np.asarray(a).view(np.uint64)


def test_norms_are_plain_python_sums():
    # every accept or reject of the search compares _norms of trial rows:
    # each norm is the float of a plain left-to-right loop on its row, alone
    # or in any batch, zeros, infinities and nans included
    for n in range(1, 8):
        rng = np.random.default_rng(n)
        scale = 10.0 ** rng.integers(-12, 13, size=(40, 1))
        f = scale * (rng.normal(size=(40, n)) + 1j * rng.normal(size=(40, n)))
        f[0] = 0
        f[1, 0] = complex(np.inf, 1.0)
        f[2, -1] = complex(0.5, -np.inf)
        f[3, 0] = complex(np.nan, 0.0)
        f[4, -1] = complex(1.0, np.nan)
        f[5, 0] = complex(np.inf, np.nan)
        expected = _bits([_plain_norm(row) for row in f])
        assert (_bits(newton._norms(f)) == expected).all()
        for row, bits in zip(f, expected):
            assert _bits(newton._norms(row[None]))[0] == bits
        batch = newton._norms(f[::-1].reshape(4, 10, n))
        assert (_bits(batch) == expected[::-1].reshape(4, 10)).all()


def _plain_line_search(residuals, x, norm, step) -> list:
    # one start at a time, step lengths in order: the first trial whose
    # norm is below the start's, as (index, trial, residual, norm)
    out = []
    for xi, n0, si in zip(x, norm, step):
        for j, lam in enumerate(newton._LAMBDAS):
            trial = xi + lam * si
            ft = residuals(trial[None])[0]
            if newton._norms(ft) < n0:
                out.append((j, trial, ft, newton._norms(ft)))
                break
        else:
            out.append(None)
    return out


@pytest.mark.parametrize("n_starts", [1, 7, 30, 150])
def test_windowed_line_search_matches_plain_search(n_starts):
    # the search of each start, whatever its hint (too small, exact or too
    # large) and however its trials are batched (150 starts put more than
    # _ROWS trials in a round), moves it where the plain search does
    spec = parse_spec("D(2|1)")
    counts = FIXTURE_COUNTS["D(2|1)"]
    residuals = partial(newton._residuals, _equation_table(spec, counts),
                        [complex(w) for w in FIXTURE_W])
    n = sum(counts)
    rng = np.random.default_rng(n_starts)
    x = 3 * (rng.uniform(-1, 1, (n_starts, n))
             + 1j * rng.uniform(-1, 1, (n_starts, n)))
    f = residuals(x)
    norm = newton._norms(f)
    # Newton steps stretched up to 1000-fold, so that the first descending
    # step length varies; one start gets a random direction and one none
    h = 1e-7
    jac = np.stack([(residuals(x + h * np.eye(n)[k]) - f) / h
                    for k in range(n)], axis=-1)
    step = np.linalg.solve(jac, -f[..., None])[..., 0]
    step *= 10.0 ** rng.uniform(0, 3, (n_starts, 1))
    step[n_starts // 2] = rng.normal(size=n) + 1j * rng.normal(size=n)
    step[-1] = 0
    ref = _plain_line_search(residuals, x, norm, step)
    assert ref[-1] is None
    exact = np.array([25 if r is None else r[0] for r in ref])
    for hint in (np.zeros(n_starts, dtype=int), exact.clip(0, 24),
                 (exact + rng.integers(1, 6, n_starts)).clip(0, 24),
                 rng.integers(0, 25, n_starts)):
        xs, fs, norms, hints = x.copy(), f.copy(), norm.copy(), hint.copy()
        moved = newton._line_search(residuals, xs, fs, norms, step, hints)
        assert moved.tolist() == [r is not None for r in ref]
        for i, r in enumerate(ref):
            j, xi, fi, ni = (hint[i], x[i], f[i], norm[i]) if r is None else r
            assert hints[i] == j
            assert (_bits(xs[i]) == _bits(xi)).all()
            assert (_bits(fs[i]) == _bits(fi)).all()
            assert _bits(norms[i]) == _bits(ni)
