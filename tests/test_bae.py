from __future__ import annotations

import numpy as np
import pytest

from bethe_dvf.algebra import parse_spec
from bethe_dvf.bae import (BetheRootSet, BetheSystem, NoSolutionFound,
                           assert_generic, bae_residual, bae_sides,
                           check_lemma_products, check_pole_free,
                           check_residue_pairs, max_residual, solve_bae)
from bethe_dvf.cli import FIXTURE_COUNTS, FIXTURE_W, solved_fixture
from bethe_dvf.dvf import BoxContext, column_dvf
from bethe_dvf.symbolic import GenericityViolation


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
    lhs, rhs = bae_sides(system, roots, 2, 1)
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
    for a, n_a in enumerate(system.root_counts, start=1):
        for k in range(1, n_a + 1):
            assert abs(bae_residual(system, sol, a, k)) < 1e-10


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
