"""Batch command-line interface.

Subcommands: build | count | solve | verify | export.  All structured output
is JSON with a "schema": 1 field; reports embed the sampling seed so any run
can be reproduced bit for bit.  Exit codes: 0 success, 1 verification
failure, 2 bad input or unwritable output, 3 no Bethe solution found.

Shape grammar: "m^a" for an a-row rectangle of width m, a comma list
"3,2,1" for a general partition, and "3,1/1" for the skew shape mu/lambda.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from functools import partial

from .algebra import parse_spec
from .bae import (BetheSystem, NoSolutionFound,
                  check_lemma_products, check_pole_free, check_residue_pairs,
                  max_residual, solve_bae)
from .dvf import (BoxContext, build_dvf, column_dvf, crossing_transform,
                  generating_series, row_dvf)
from .goldens import GOLDENS
from .relations import (check_det_vs_tableaux, check_duality_suite,
                        check_hirota, check_t_system,
                        check_term_count_conjecture)
from .reports import IdentityReport, exact_report
from .symbolic import (dumps, equal_as_rational_functions, shift_u,
                       sum_to_json, sum_to_latex, sum_to_text)
from .tableaux import SkewDiagram, count_tableaux


def parse_shape(text: str) -> SkewDiagram:
    """Parse the documented shape grammar into a skew diagram."""
    mu_part, _, lam_part = text.strip().partition("/")
    lam = tuple(int(p) for p in lam_part.split(",") if p)
    if "^" in mu_part:
        m, a = (int(p) for p in mu_part.split("^", 1))
        if a < 0 or m < 0:
            raise ValueError(f"negative row count or length in shape {text!r}")
        mu = (m,) * a
    else:
        mu = tuple(int(p) for p in mu_part.split(",") if p)
    return SkewDiagram.make(lam, mu)


_FORMATS = {"json": partial(dumps, indent=1), "latex": sum_to_latex,
            "text": sum_to_text}


def cmd_build(args) -> int:
    spec = parse_spec(args.spec)
    shape = parse_shape(args.shape)
    ctx = BoxContext(spec, include_vacuum=not args.no_vacuum)
    x = build_dvf(ctx, shape)
    with _open_out(args.out) as out:
        out.write(_FORMATS[args.format](x) + "\n")
    return 0


def cmd_count(args) -> int:
    spec = parse_spec(args.spec)
    shape = parse_shape(args.shape)
    n = count_tableaux(spec, shape)
    print(json.dumps({"schema": 1, "spec": str(spec),
                      "mu": list(shape.mu.parts), "lambda": list(shape.lam.parts),
                      "count": n}, sort_keys=True))
    return 0


def cmd_solve(args) -> int:
    spec = parse_spec(args.spec)
    w = tuple(float(x) for x in args.w.split(",")) if args.w else ()
    na = tuple(int(x) for x in args.na.split(","))
    system = BetheSystem(spec, args.n_sites, w, na)
    stats: dict = {}
    sols = solve_bae(system, tol=args.tol, n_starts=args.starts,
                     seed=args.seed, stats=stats)
    payload = {"schema": 1, "spec": str(spec), "N": args.n_sites,
               "w": list(w), "Na": list(na), "seed": args.seed,
               "search": stats,
               "solutions": [dict(s.to_json(),
                                  residual=max_residual(system, s))
                             for s in sols]}
    with _open_out(args.out) as out:
        out.write(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    return 0


# ---------------------------------------------------------------------------
# verification suites: one row per suite, a check and the cases it runs


def run_cases(check, cases, seed: int) -> list[IdentityReport]:
    """Reports of ``check(*case, seed=seed)`` for each case in order; a check
    returns one report or a list of them."""
    out = []
    for case in cases:
        rep = check(*case, seed=seed)
        out.extend(rep if isinstance(rep, list) else [rep])
    return out


def _golden(name: str, mu: tuple, *, seed: int) -> IdentityReport:
    built = build_dvf(BoxContext(parse_spec("B(2|1)")), SkewDiagram.straight(mu))
    return exact_report(f"golden {name}", built == GOLDENS[name](),
                        details={"terms": len(built)}, seed=seed)


def _count(name: str, mu: tuple, want: int, *, seed: int) -> IdentityReport:
    got = count_tableaux(parse_spec(name), SkewDiagram.straight(mu))
    return IdentityReport(
        name=f"count {name} {mu}", mode="exact-symbolic", samples=1,
        max_deviation=Fraction(abs(got - want)), passed=got == want,
        details={"expected": want, "got": got}, seed=seed)


def _determinant(name: str, mu: tuple, variant: str, *,
                 seed: int) -> IdentityReport:
    spec = parse_spec(name)
    rep = check_det_vs_tableaux(spec, SkewDiagram.straight(mu), variant,
                                trials=20, seed=seed)
    if spec.family == "D" and variant == "column" and len(mu) == 1:
        # a D row over the T^n keeps its published name, by m alone
        rep = replace(rep, name=f"determinant[d_row] {name} m={mu[0]}")
    return rep


# The Bethe fixtures: inhomogeneities and root counts that admit generic
# solutions (found by multi-start search and kept as regression anchors).
FIXTURE_W = (1.7, -0.4, 0.3)
FIXTURE_COUNTS = {"B(1|1)": (2, 2), "B(0|1)": (2,), "B(0|2)": (2, 2),
                  "D(2|1)": (2, 2, 1)}
_FIXTURE_CACHE: dict = {}


def solved_fixture(name: str):
    """(spec, system, first solution) of the named fixture, solved once per
    process with 200 starts and seed 21 whatever seed a caller runs with."""
    if name not in _FIXTURE_CACHE:
        spec = parse_spec(name)
        system = BetheSystem(spec, len(FIXTURE_W), FIXTURE_W,
                             FIXTURE_COUNTS[name])
        sols = solve_bae(system, tol=1e-10, seed=21, n_starts=200,
                         max_iter=150, start_radius=5.0)
        _FIXTURE_CACHE[name] = (spec, system, sols[0])
    return _FIXTURE_CACHE[name]


def _pole_free(name: str, a: int, *, seed: int) -> IdentityReport:
    spec, system, sol = solved_fixture(name)
    return check_pole_free(column_dvf(BoxContext(spec), a), system, sol,
                           name=f"pole-free {name} T^{a}")


def _crossing(name: str, label: str, mu: tuple, *, seed: int) -> IdentityReport:
    spec = parse_spec(name)
    t = build_dvf(BoxContext(spec), SkewDiagram.straight(mu))
    rep = equal_as_rational_functions(crossing_transform(spec, t), t,
                                      trials=8, seed=seed)
    return replace(rep, name=f"crossing {name} {label}", details={})


def _series(name: str, kind: str, *, seed: int) -> list[IdentityReport]:
    ctx = BoxContext(parse_spec(name))
    direct = column_dvf if kind == "column" else row_dvf
    series = generating_series(ctx, kind, 5)
    return [exact_report(f"series {name} {kind} n={n}",
                         series[n] == shift_u(direct(ctx, n), n - 1), seed=seed)
            for n in range(5)]


# suite name -> (check, cases); ``verify`` runs the suites in this order
SUITE_TABLE = {
    "golden": (_golden, [("B(2|1) column height 1", (1,)),
                         ("B(2|1) column height 2", (1, 1)),
                         ("B(2|1) row length 2", (2,))]),
    "counts": (_count, [
        ("B(0|2)", (1,), 5), ("B(0|2)", (1,) * 2, 15),
        ("B(0|2)", (1,) * 3, 35), ("B(0|2)", (1,) * 4, 70),
        ("B(0|2)", (2,), 10), ("B(0|2)", (2, 2), 50),
        ("B(0|2)", (2,) * 3, 175), ("B(0|2)", (2,) * 4, 490),
        ("B(2|1)", (1,), 7), ("D(3|1)", (1, 1), 31), ("D(2|2)", (1, 1), 33),
        ("B(1|1)", (4, 4, 4), 0)]),
    "determinant": (_determinant, [
        (name, mu, variant) for name in ("B(1|1)", "B(2|1)")
        for mu in [(1,), (2,), (1, 1), (2, 1), (3,), (2, 2), (3, 2, 1)]
        for variant in ("column", "row")]
        + [("D(2|1)", (2,), "column")]),
    "hirota": (lambda name, a, m, *, seed: check_hirota(
        parse_spec(name), a, m, trials=8, seed=seed),
        [(name, a, m) for name in ("B(1|1)", "B(0|2)")
         for a in (1, 2, 3) for m in (1, 2, 3)]),
    "duality": (partial(check_duality_suite, trials=8), [(1,), (2,)]),
    "tsystem": (partial(check_t_system, trials=8), [(1, 3), (2, 3)]),
    "residues": (lambda name, *, seed: check_residue_pairs(*solved_fixture(name)),
                 [(name,) for name in FIXTURE_COUNTS]),
    "polefree": (_pole_free, [(name, a) for name in FIXTURE_COUNTS
                              for a in (1, 2, 3, 4)]),
    "lemmas": (lambda name, *, seed: check_lemma_products(parse_spec(name)),
               [(name,) for name in ("B(2|1)", "B(0|1)", "B(0|2)", "B(1|1)",
                                     "D(2|1)", "D(3|1)", "D(2|2)")]),
    "crossing": (_crossing, [(name, label, mu)
                             for name in ("B(2|1)", "B(0|2)", "D(2|1)")
                             for label, mu in [("T^1", (1,)), ("T^2", (1, 1)),
                                               ("T_2", (2,))]]),
    "genseries": (_series, [(name, kind) for name in ("B(1|1)", "B(0|2)", "D(2|1)")
                            for kind in ("column", "row")]),
    "conjecture": (lambda a, m, *, seed: check_term_count_conjecture(2, a, m),
                   [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]),
}
# suite name -> callable of the seed returning the suite's reports; looked
# up at call time, so that a wrapped entry (as bench/ times them) is run
SUITES = {name: partial(run_cases, *row) for name, row in SUITE_TABLE.items()}


def cmd_verify(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    if args.jobs > 1 and len(names) > 1:
        from concurrent.futures import ProcessPoolExecutor
        # the suites that read the solved Bethe fixtures share one task, the
        # longest, so that one worker solves the fixtures, and only once
        shared = [n for n in names if n in ("residues", "polefree")]
        tasks = ([shared] if shared else []) + [[n] for n in names
                                                if n not in shared]
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            reports = [rep for batch in pool.map(_run_suites, tasks,
                                                 [args.seed] * len(tasks))
                       for rep in batch]
    else:
        reports = _run_suites(names, args.seed)
    reports.sort(key=lambda r: r.name)
    print(json.dumps([r.to_json() for r in reports], sort_keys=True, indent=1))
    failed = [r.name for r in reports if not r.passed]
    if failed:
        print(f"FAILED: {len(failed)} checks: {failed[:10]}", file=sys.stderr)
        return 1
    return 0


def _run_suites(names: list[str], seed: int) -> list[IdentityReport]:
    return [rep for name in names for rep in SUITES[name](seed)]


def cmd_export(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    for name, make in GOLDENS.items():
        fname = name.replace("(", "").replace(")", "").replace("|", "-")
        fname = fname.replace(" ", "_") + ".json"
        with open(os.path.join(args.out, fname), "w") as f:
            json.dump(dict(sum_to_json(make()), description=name),
                      f, sort_keys=True, indent=1)
    print(f"wrote {len(GOLDENS)} expansions to {args.out}")
    return 0


@contextmanager
def _open_out(path: str | None):
    """The file at ``path`` opened for writing; stdout for None or "-"."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bethe-dvf",
        description="Build and verify tableaux-sum transfer-matrix "
                    "eigenvalues for osp superalgebra spin chains.")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct a tableaux sum")
    b.add_argument("spec", help='algebra, e.g. "B(2|1)"')
    b.add_argument("--shape", required=True,
                   help='shape: "m^a", "3,2,1" or "3,1/1" (mu/lambda)')
    b.add_argument("--no-vacuum", action="store_true",
                   help="drop the vacuum (phi) factors")
    b.add_argument("--format", choices=("json", "latex", "text"),
                   default="json")
    b.add_argument("--out", default=None, help="output file (default stdout)")
    b.set_defaults(func=cmd_build)

    c = sub.add_parser("count", help="count admissible tableaux")
    c.add_argument("spec")
    c.add_argument("--shape", required=True)
    c.set_defaults(func=cmd_count)

    s = sub.add_parser("solve", help="solve a Bethe system numerically")
    s.add_argument("spec")
    s.add_argument("--N", dest="n_sites", type=int, required=True)
    s.add_argument("--w", default="", help="comma list of inhomogeneities")
    s.add_argument("--Na", dest="na", required=True,
                   help="comma list of root counts per color")
    s.add_argument("--tol", type=float, default=1e-10)
    s.add_argument("--starts", type=int, default=64)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_solve)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=sorted(SUITES) + ["all"])
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--jobs", type=int, default=1,
                   help="worker processes (default 1)")
    v.set_defaults(func=cmd_verify)

    e = sub.add_parser("export", help="write the frozen reference expansions")
    e.add_argument("--out", required=True, help="output directory")
    e.set_defaults(func=cmd_export)
    return p


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # UnsupportedShape and WrongAlgebra are ValueErrors; an --out path
        # that cannot be written raises OSError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NoSolutionFound as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
