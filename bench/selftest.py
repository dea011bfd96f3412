"""Show that every checker of the benchmark accepts good outputs and rejects
wrong ones.  Run from the root of a checkout:

    python3 bench/selftest.py

Exits 0 when every checker passes its good input and rejects its negative
control; prints one line per case.
"""

import os
import sys
from fractions import Fraction
from random import Random

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from bethe_dvf.algebra import parse_spec  # noqa: E402
from bethe_dvf.bae import BetheRootSet, check_pole_free  # noqa: E402
from bethe_dvf.dvf import BoxContext, build_dvf, column_dvf, row_dvf  # noqa: E402
from bethe_dvf.symbolic import (Assignment, SymSum, SymTerm,  # noqa: E402
                                evaluate, shift_u)
from bethe_dvf.tableaux import SkewDiagram, count_tableaux  # noqa: E402

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import NULL_TRACER  # noqa: E402

FAILURES = []


def case(what: str, ok: bool) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def random_point(rng: Random, colors, n_roots=2, n_inhom=2):
    """Roots and inhomogeneities with denominators up to 8; u has the prime
    denominator 9973, so no shifted u meets a root and no term has a pole."""
    roots = {c: tuple(Fraction(rng.randint(-99, 99), rng.randint(1, 8))
                      for _ in range(n_roots)) for c in colors}
    inhoms = tuple(Fraction(rng.randint(-99, 99), rng.randint(1, 8))
                   for _ in range(n_inhom))
    return Fraction(rng.randint(1, 9972), 9973), roots, inhoms


def reference_evaluator(rng: Random) -> None:
    ctx = BoxContext(parse_spec("B(2|1)"))
    x = build_dvf(ctx, SkewDiagram.straight((2, 1)))
    u, roots, inhoms = random_point(rng, (1, 2, 3))
    asg = Assignment.exact_point(u, roots, inhoms)
    case("reference evaluator agrees with evaluate on B(2|1) (2,1)",
         ref.ref_sum(x, u, roots, inhoms) == evaluate(x, asg))
    t = x.terms[0]
    c, s, e = t.qs[0]
    flipped = SymSum.from_term(SymTerm.make(t.coeff, [(c, s, -e)] + list(t.qs[1:]),
                                            t.phis))
    case("reference evaluator tells a flipped exponent apart",
         ref.ref_sum(flipped, u, roots, inhoms)
         != evaluate(SymSum.from_term(t), asg))
    pole = SymSum.from_term(SymTerm.make(1, [(1, 0, -1)]))
    try:
        ref.ref_sum(pole, roots[1][0], roots, inhoms)
        case("reference evaluator raises at a pole", False)
    except ref.RefPole:
        case("reference evaluator raises at a pole", True)


def jacobi_trudi(rng: Random) -> None:
    ctx = BoxContext(parse_spec("B(2|1)"))
    for mu in [(2, 1), (3, 1), (2, 2), (2, 1, 1)]:
        direct = build_dvf(ctx, SkewDiagram.straight(mu))
        u, roots, inhoms = random_point(rng, (1, 2, 3))
        want = ref.ref_sum(direct, u, roots, inhoms)
        for variant, mat, block in (("column", ref.jt_column_matrix(mu), column_dvf),
                                    ("row", ref.jt_row_matrix(mu), row_dvf)):
            def det(m):
                return ref.ref_det([[ref.ref_sum(shift_u(block(ctx, a), sh), u,
                                                 roots, inhoms)
                                     for a, sh in r] for r in m])
            case(f"Jacobi-Trudi {variant} matrix of {mu} equals the direct sum",
                 det(mat) == want)
            case(f"Jacobi-Trudi {variant} matrix of {mu} with a shifted entry "
                 f"does not", det(ref.shifted_control(mat)) != want)


def paper_counts() -> None:
    counts = {(name, mu): count_tableaux(parse_spec(name),
                                         SkewDiagram.straight(mu))
              for name, mu in ref.PAPER_COUNTS}
    case("paper counts hold", not ref.count_mismatches(counts))
    key = ("D(3|1)", (1, 1))
    case("a count off by one is caught",
         ref.count_mismatches({**counts, key: counts[key] + 1}) == [key])


def build_checker() -> None:
    w = wl.Build()
    st = w.setup(0, NULL_TRACER)
    result = w.round(st, NULL_TRACER, wl.Outcome())
    bad: list = []
    w.check_round(st, result, bad)
    case("build checker passes a real round", not bad)
    built, expanded = result
    n, x = built[("B(2|1)", (2, 1))]
    built[("B(2|1)", (2, 1))] = (n, SymSum(x.terms[1:]))
    bad = []
    w.check_round(st, (built, expanded), bad)
    case("build checker catches a missing term and the det mismatch it causes",
         len(bad) >= 2)


def sample_checker() -> None:
    w = wl.Sample()
    st = w.setup(0, NULL_TRACER)
    st["points"] = st["points"][:2]
    result = w.round(st, NULL_TRACER, wl.Outcome())
    bad: list = []
    w.check_round(st, result, bad)
    w.final_check(st, 0, bad)
    case("sample checker passes real points, reference and controls", not bad)
    jt, hir = result[0]
    direct, dets = jt[3]
    jt[3] = (direct, dict(dets, column=dets["column"] + 1))
    bad = []
    w.check_round(st, result, bad)
    case("sample checker catches a wrong determinant", len(bad) == 1)


def bethe_checker(rng: Random) -> None:
    w = wl.Bethe()
    w.FIXTURES = {"B(0|1)": (2,)}
    st = w.setup(0, NULL_TRACER)
    result = w.round(st, NULL_TRACER, wl.Outcome())
    bad: list = []
    w.check_round(st, result, bad)
    w.final_check(st, 0, bad)
    case("bethe checker passes a solved fixture and its controls", not bad)
    fx = st["fixtures"][0]
    fake = BetheRootSet(((complex(rng.uniform(-3, 3), rng.uniform(-3, 3)),
                          complex(rng.uniform(-3, 3), rng.uniform(-3, 3))),))
    rep = check_pole_free(fx["cols"][0], fx["system"], fake)
    sol, pairs, poles = result[0]
    bad = []
    w.check_round(st, [(sol, pairs, [rep] + poles[1:])], bad)
    case("bethe checker rejects residues at random roots", len(bad) == 1)
    case("reference contour residue is large at random roots",
         w._contour(fx["cols"][0], fake, fx["system"]) > w.CONTROL_FLOOR)


def verify_checker() -> None:
    w = wl.VerifyAll()
    st = {"first_stdout": '[{"name": "a", "passed": true}]'}
    good = (0, st["first_stdout"], {"a": 1}, ["a"])
    bad: list = []
    w.check_round(st, good, bad)
    case("verify_all checker passes a good invocation", not bad)
    wrong = [
        ("a nonzero exit code", (1,) + good[1:]),
        ("a failed report", (0, '[{"name": "a", "passed": false}]', {"a": 1}, ["a"])),
        ("a suite without reports", good[:2] + ({"a": 1, "b": 0}, ["a", "b"])),
        ("stdout that differs between rounds",
         (0, '[{"name": "a", "passed": true} ]', {"a": 1}, ["a"])),
    ]
    for what, res in wrong:
        bad = []
        w.check_round(st, res, bad)
        case(f"verify_all checker catches {what}", bool(bad))


def main() -> int:
    rng = Random(2024)
    reference_evaluator(rng)
    jacobi_trudi(rng)
    paper_counts()
    build_checker()
    sample_checker()
    bethe_checker(rng)
    verify_checker()
    print(f"{len(FAILURES)} failing cases")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
