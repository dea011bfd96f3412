"""Acceptance gate: every headline capability at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion, including wall time.
"""

from __future__ import annotations

import hashlib
import json
import time
from fractions import Fraction

import numpy as np

from bethe_dvf.algebra import KacDynkinLabel, dimension_b0s, parse_spec
from bethe_dvf.bae import BetheRootSet, BetheSystem, check_pole_free
from bethe_dvf.cli import FIXTURE_W, SUITE_TABLE, SUITES, run_cases
from bethe_dvf.dvf import BoxContext, build_dvf, column_dvf
from bethe_dvf.relations import (check_duality, det_formula, verify_const,
                                 verify_modi, verify_modi1)
from bethe_dvf.tableaux import SkewDiagram, count_tableaux

from conftest import partitions_up_to


def run_suites(*names, seed=0):
    """Reports of the named ``cli.SUITES`` suites, as ``verify`` runs them."""
    return [rep for name in names for rep in SUITES[name](seed)]


def all_passed(reports, count: int) -> bool:
    assert len(reports) == count, f"{len(reports)} reports, expected {count}"
    return all(rep.passed for rep in reports)


def report(num: int, label: str, passed: bool, t0: float, budget: float):
    elapsed = time.time() - t0
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{status}] {label} ({elapsed:.2f}s, "
          f"budget {budget:.0f}s)")
    assert passed, f"criterion {num}: {label}"
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.1f}s"


def test_criterion_01_golden_expansions():
    t0 = time.time()
    ok = all_passed(run_suites("golden"), 3)
    report(1, "golden expansions match termwise", ok, t0, 1.0)


def test_criterion_02_term_counts():
    t0 = time.time()
    ok = all_passed(run_suites("counts"), 12)
    report(2, "tableaux counts reproduce the tables", ok, t0, 10.0)


def test_criterion_03_dimension_formula():
    t0 = time.time()
    table = {(0, 0): 1, (1, 0): 5, (2, 0): 14, (3, 0): 30,
             (0, 2): 10, (0, 4): 35, (0, 6): 84, (2, 2): 81}
    ok = all(dimension_b0s(2, KacDynkinLabel((Fraction(b1), Fraction(b2)))) == d
             for (b1, b2), d in table.items())
    report(3, "module dimensions reproduce the table", ok, t0, 0.1)


def test_criterion_04_term_count_identities():
    t0 = time.time()
    ok = all_passed(run_suites("conjecture"), 6)
    report(4, "six worked count/dimension identities", ok, t0, 10.0)


# sha256 of json.dumps([report.to_json(), ...], sort_keys=True) over the
# 116 determinant reports of criterion 5, in loop order
CRITERION_05_SHA256 = \
    "153ddbe2de922332020fae96b8ea41b5f06a220d08c825d866f541322b310c4e"


def test_criterion_05_determinant_formulas():
    t0 = time.time()
    check, _ = SUITE_TABLE["determinant"]
    cases = [(name, mu, variant) for name in ("B(1|1)", "B(2|1)")
             for mu in partitions_up_to(6) for variant in ("column", "row")]
    reports = run_cases(check, cases + [("D(2|1)", (2,), "column")], seed=17)
    ok = all_passed(reports, 117)
    ok &= all(rep.max_deviation == 0 for rep in reports)
    text = json.dumps([rep.to_json() for rep in reports[:116]], sort_keys=True)
    ok &= hashlib.sha256(text.encode()).hexdigest() == CRITERION_05_SHA256
    report(5, "determinant formulas at 20 exact points per shape", ok, t0, 60.0)


def test_criterion_06_hirota_and_t_system():
    t0 = time.time()
    ok = all_passed(run_suites("hirota", "tsystem", seed=6), 20)
    report(6, "bilinear recursion and closed relation family", ok, t0, 120.0)


def test_criterion_07_duality():
    t0 = time.time()
    ok = True
    for s in (1, 2):
        for a in (1, 2):
            for m in range(0, 2 * s + 2):
                rep = check_duality(s, a, m, trials=8, seed=7)
                ok &= rep.passed and rep.max_deviation == 0
        ok &= verify_const(s)
        ok &= all(verify_modi1(s, a) and verify_modi(s, a)
                  for a in range(1, s + 2))
    report(7, "normalized self-duality with exact helper identities", ok,
           t0, 60.0)


def test_criterion_08_pole_freeness():
    t0 = time.time()
    ok = all_passed(run_suites("polefree"), 16)
    # negative control at a non-solution root set
    spec = parse_spec("B(1|1)")
    system = BetheSystem(spec, 3, FIXTURE_W, (2, 2))
    rng = np.random.default_rng(4)
    bad = BetheRootSet(tuple(
        tuple(complex(x, y) for x, y in zip(rng.uniform(-2, 2, n),
                                            rng.uniform(-2, 2, n)))
        for n in system.root_counts))
    rep = check_pole_free(column_dvf(BoxContext(spec), 1), system, bad)
    ok &= rep.max_deviation > 1e-3
    report(8, "pole-freeness at solved instances, negative control fires",
           ok, t0, 120.0)


def test_criterion_09_residue_pairs_and_lemmas():
    t0 = time.time()
    ok = all_passed(run_suites("residues", "lemmas"), 11)
    report(9, "residue pairs vanish; cancellation lemmas exact", ok, t0, 60.0)


def test_criterion_10_generating_series():
    t0 = time.time()
    ok = all_passed(run_suites("genseries"), 30)
    report(10, "series coefficients equal shifted sums, orders 0..4", ok,
           t0, 60.0)


def test_criterion_11_crossing_symmetry():
    t0 = time.time()
    reports = run_suites("crossing")
    ok = all_passed(reports, 9)
    # exact-symbolic: each image equals its sum in canonical form
    ok &= all(rep.mode == "exact-symbolic" for rep in reports)
    report(11, "crossing transform fixes the sums", ok, t0, 30.0)


def test_criterion_12_vanishing_constraint():
    t0 = time.time()
    spec = parse_spec("B(1|1)")
    sd = SkewDiagram.straight((4, 4, 4))
    ok = count_tableaux(spec, sd) == 0
    ok &= build_dvf(BoxContext(spec), sd).is_zero()
    ok &= det_formula(spec, sd, "row").is_zero()
    report(12, "constrained rectangle collapses to the empty sum", ok, t0,
           60.0)
