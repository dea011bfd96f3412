"""The four workloads: build, sample, bethe and verify_all.

Each workload has a ``setup(seed, tr)`` that makes its inputs, a ``round``
that does the timed work once (every round of a run does the same work), a
``check_round`` that checks one round's outputs, and a ``final_check`` that
runs the negative controls and the reference comparisons once per run.
Checks are never timed.  ``tr`` is a tracer from ``tracing.py``; every call
into a program layer sits inside a span named after the layer.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from fractions import Fraction
from random import Random

from bethe_dvf import cli
from bethe_dvf.algebra import parse_spec
from bethe_dvf.bae import (BetheRootSet, BetheSystem, check_pole_free,
                           check_residue_pairs, solve_bae)
from bethe_dvf.dvf import BoxContext, build_dvf, column_dvf, rect_dvf, row_dvf
from bethe_dvf.relations import det_formula
from bethe_dvf.symbolic import (Assignment, SymSum, equal_group_sums,
                                evaluate, exact_det, shift_u)
from bethe_dvf.tableaux import SkewDiagram, count_tableaux

import reference as ref


def partitions(n: int, largest: int | None = None):
    """Partitions of n, largest part first, in reverse lexicographic order."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def shapes_up_to(cells: int) -> list:
    return [mu for n in range(1, cells + 1) for mu in partitions(n)]


def _clear_block_caches() -> None:
    """Forget memoized single-column and single-row sums, so that every
    round and every set-up builds them again."""
    column_dvf.cache_clear()
    row_dvf.cache_clear()


class Outcome:
    """One round's tally: operations attempted, failures with their reasons."""

    def __init__(self):
        self.attempted = 0
        self.errors: list[str] = []

    def run(self, what: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.errors.append(f"{what}: {type(exc).__name__}: {exc}")
            return None


# ---------------------------------------------------------------------------
# build: term construction and canonicalisation, no evaluation


class Build:
    name = "build"
    # straight shapes, per algebra, up to this many cells: the direct sums
    # and the det_formula column and row expansions
    DIRECT_CELLS = {"B(1|1)": 5, "B(2|1)": 4}
    DET_CELLS = {"B(1|1)": 4, "B(2|1)": 3}
    PAPER_SHAPES = [("B(0|2)", (1,) * a) for a in range(1, 5)] \
        + [("B(0|2)", (2,) * a) for a in range(1, 5)] \
        + [("D(3|1)", (1,) * a) for a in range(1, 5)] \
        + [("D(2|2)", (1,) * a) for a in range(1, 5)] \
        + [("B(1|1)", (4, 4, 4))]

    def setup(self, seed: int, tr):
        items = [(name, mu) for name, cells in self.DIRECT_CELLS.items()
                 for mu in shapes_up_to(cells)]
        items += self.PAPER_SHAPES
        direct = [(name, mu, parse_spec(name), SkewDiagram.straight(mu))
                  for name, mu in items]
        dets = [(name, mu, parse_spec(name), SkewDiagram.straight(mu), variant)
                for name, cells in self.DET_CELLS.items()
                for mu in shapes_up_to(cells) if sum(mu) > 1
                for variant in ("column", "row")]
        return {"direct": direct, "dets": dets}

    def round(self, st, tr, out: Outcome):
        _clear_block_caches()
        built, expanded = {}, {}
        for name, mu, spec, shape in st["direct"]:
            with tr.span("tableaux.enumerate"):
                n = out.run(f"count {name} {mu}", count_tableaux, spec, shape)
            tr.count("tableaux.tableaux", n or 0)
            with tr.span("dvf.build"):
                x = out.run(f"build {name} {mu}", build_dvf,
                            BoxContext(spec), shape)
            tr.count("dvf.terms", len(x) if x is not None else 0)
            built[(name, mu)] = (n, x)
        for name, mu, spec, shape, variant in st["dets"]:
            with tr.span("relations.det_expand"):
                expanded[(name, mu, variant)] = out.run(
                    f"det_formula {name} {mu} {variant}", det_formula,
                    spec, shape, variant)
        return built, expanded

    def check_round(self, st, result, bad: list) -> None:
        built, expanded = result
        counts = {}
        for (name, mu), (n, x) in built.items():
            if n is None or x is None:
                continue
            counts[(name, mu)] = n
            # every tableau contributes one +-1 monomial; B-family monomials
            # are distinct, D-family ones may merge but never cancel
            weight = sum(abs(t.coeff) for t in x.terms)
            if weight != n or (name.startswith("B") and len(x) != n):
                bad.append(f"{name} {mu}: {len(x)} terms, weight {weight}, "
                           f"{n} tableaux")
        for key in ref.count_mismatches(counts):
            bad.append(f"paper count {key}: got {counts.get(key)}, "
                       f"want {ref.PAPER_COUNTS[key]}")
        empty = built[("B(1|1)", (4, 4, 4))][1]
        if empty is not None and not empty.is_zero():
            bad.append("B(1|1) (4,4,4) is not the empty sum")
        for (name, mu, variant), d in expanded.items():
            if d is not None and d != built[(name, mu)][1]:
                bad.append(f"det_formula {variant} {name} {mu} != direct sum")

    def final_check(self, st, seed: int, bad: list) -> None:
        pass


# ---------------------------------------------------------------------------
# sample: exact evaluation at many random points


def _rat(rng: Random) -> Fraction:
    return Fraction(rng.randint(-10**4, 10**4), rng.randint(1, 8))


class Sample:
    name = "sample"
    JT_SHAPES = [("B(1|1)", mu) for mu in shapes_up_to(5)] \
        + [("B(2|1)", mu) for mu in shapes_up_to(4)]
    HIROTA = [(name, a, m) for name in ("B(1|1)", "B(0|2)")
              for a in (1, 2) for m in (1, 2)]
    POINTS = 10         # points per round; every round uses the same points
    MAX_ROOTS = 4       # N_a and N are drawn from 0..MAX_ROOTS
    REF_POINTS = 2      # points where evaluate is compared with the reference

    def setup(self, seed: int, tr):
        _clear_block_caches()

        def built(fn, *args):
            with tr.span("dvf.build"):
                x = fn(*args)
            tr.count("dvf.terms", len(x))
            return x

        jt, blocks = [], {}
        for name, mu in self.JT_SHAPES:
            ctx = BoxContext(parse_spec(name))
            direct = built(build_dvf, ctx, SkewDiagram.straight(mu))
            mats = {"column": (ref.jt_column_matrix(mu), column_dvf),
                    "row": (ref.jt_row_matrix(mu), row_dvf)}
            for v, (m, block) in mats.items():
                for a in sorted({a for r in m for a, _ in r}):
                    if (name, v, a) not in blocks:
                        blocks[(name, v, a)] = built(block, ctx, a)
            entries = {v: [[shift_u(blocks[(name, v, a)], sh) for a, sh in r]
                           for r in m] for v, (m, _) in mats.items()}
            jt.append({"name": name, "mu": mu, "direct": direct,
                       "entries": entries})
        hirota = []
        for name, a, m in self.HIROTA:
            ctx = BoxContext(parse_spec(name))
            t = built(rect_dvf, ctx, m, a)
            lhs = [[shift_u(t, -1), shift_u(t, 1)]]
            rhs = [[built(rect_dvf, ctx, m - 1, a), built(rect_dvf, ctx, m + 1, a)],
                   [built(rect_dvf, ctx, m, a - 1), built(rect_dvf, ctx, m, a + 1)]]
            hirota.append({"name": f"{name} a={a} m={m}", "lhs": lhs,
                           "rhs": rhs})

        rng = Random(seed)
        # no denominator of any sum may vanish at a point, nor any factor of
        # the term the negative control leaves out
        keys = ref.factor_keys(
            [t for it in jt for t in it["direct"].terms]
            + [t for it in jt for m in it["entries"].values()
               for r in m for e in r for t in e.terms])
        keys |= ref.factor_keys([it["direct"].terms[0] for it in jt],
                                denominators_only=False)
        # every value of N_a (per colour) and of N in 0..MAX_ROOTS occurs
        # equally often; the seed decides which point gets which, and the
        # root values themselves
        sizes = range(self.MAX_ROOTS + 1)

        def balanced() -> list:
            draw = list(sizes) * (self.POINTS // len(sizes))
            rng.shuffle(draw)
            return draw

        n_roots = {c: balanced() for c in (1, 2, 3)}
        n_inhom, hirota_roots, hirota_inhom = balanced(), balanced(), balanced()
        points = []
        for i in range(self.POINTS):
            # a point that puts a denominator of any sum on a zero is drawn
            # again, with the same numbers of roots
            while True:
                u = _rat(rng)
                roots = {c: tuple(_rat(rng) for _ in range(k[i]))
                         for c, k in n_roots.items()}
                inhoms = tuple(_rat(rng) for _ in range(n_inhom[i]))
                if not ref.vanishes(keys, u, roots, inhoms):
                    break
                tr.count("symbolic.pole_resamples")
            points.append({"asg": Assignment.exact_point(u, roots, inhoms),
                           "u": u, "roots": roots, "inhoms": inhoms,
                           "hirota_seed": rng.randrange(2**31),
                           "hirota_roots": hirota_roots[i],
                           "hirota_inhom": hirota_inhom[i]})
        return {"jt": jt, "hirota": hirota, "points": points}

    def _eval(self, tr, x, asg, cache):
        with tr.span("symbolic.eval"):
            val = evaluate(x, asg, cache)
        tr.count("symbolic.term_points", len(x))
        return val

    def _det_value(self, tr, entries, asg, cache):
        vals = [[self._eval(tr, e, asg, cache) for e in row] for row in entries]
        with tr.span("symbolic.det_eval"):
            return exact_det(vals)

    def _jt_point(self, tr, item, asg, cache):
        direct = self._eval(tr, item["direct"], asg, cache)
        return direct, {v: self._det_value(tr, e, asg, cache)
                        for v, e in item["entries"].items()}

    def round(self, st, tr, out: Outcome):
        values = []
        for p in st["points"]:
            cache: dict = {}
            jt = [out.run(f"jt {it['name']} {it['mu']}", self._jt_point,
                          tr, it, p["asg"], cache) for it in st["jt"]]
            tr.count("symbolic.factor_values", len(cache))
            hir = []
            for h in st["hirota"]:
                with tr.span("symbolic.group_eval"):
                    hir.append(out.run(
                        f"hirota {h['name']}", equal_group_sums, h["lhs"],
                        h["rhs"], 1, seed=p["hirota_seed"],
                        roots_per_color=p["hirota_roots"],
                        n_inhom=p["hirota_inhom"]))
            values.append((jt, hir))
        return values

    def check_round(self, st, result, bad: list) -> None:
        for p_idx, (jt, hir) in enumerate(result):
            for it, val in zip(st["jt"], jt):
                if val is None:
                    continue
                direct, dets = val
                for v, d in dets.items():
                    if d != direct:
                        bad.append(f"point {p_idx}: {it['name']} {it['mu']} "
                                   f"{v} determinant - direct = {d - direct}")
            for h, rep in zip(st["hirota"], hir):
                if rep is not None and not (rep.passed
                                            and rep.max_deviation == 0):
                    bad.append(f"point {p_idx}: hirota {h['name']} deviates "
                               f"by {rep.max_deviation}")
        st.setdefault("first_values", result)

    def final_check(self, st, seed: int, bad: list) -> None:
        values = st["first_values"]
        for p_idx, p in enumerate(st["points"]):
            for it, val in zip(st["jt"], values[p_idx][0]):
                if val is None:
                    continue
                direct, dets = val
                if p_idx < self.REF_POINTS:
                    self._reference_point(it, p, direct, dets, bad)
                # negative control: the direct sum with one tableau left out
                # differs from the determinant by that tableau's term, which
                # no point lets vanish
                short = SymSum(it["direct"].terms[1:])
                if evaluate(short, p["asg"]) == dets["column"]:
                    bad.append(f"negative control passed at point {p_idx}: "
                               f"{it['name']} {it['mu']}")
        h = st["hirota"][0]
        rep = equal_group_sums(h["lhs"], h["rhs"][:1], 4, seed=seed)
        if rep.passed:
            bad.append("hirota negative control (one group dropped) passed")

    @staticmethod
    def _reference_point(it, p, direct, dets, bad: list) -> None:
        u, roots, inhoms = p["u"], p["roots"], p["inhoms"]
        if ref.ref_sum(it["direct"], u, roots, inhoms) != direct:
            bad.append(f"evaluate disagrees with the reference: {it['name']} "
                       f"{it['mu']}")
        for v, entries in it["entries"].items():
            mat = [[ref.ref_sum(e, u, roots, inhoms) for e in r]
                   for r in entries]
            if ref.ref_det(mat) != dets[v]:
                bad.append(f"exact_det disagrees with the reference: "
                           f"{it['name']} {it['mu']} {v}")


# ---------------------------------------------------------------------------
# bethe: Newton solves, residue pairs and pole-freeness


class Bethe:
    name = "bethe"
    W = (1.7, -0.4, 0.3)
    FIXTURES = {"B(1|1)": (2, 2), "B(0|1)": (2,), "B(0|2)": (2, 2),
                "D(2|1)": (2, 2, 1)}
    SOLVER = dict(tol=1e-10, seed=21, n_starts=200, max_iter=150,
                  start_radius=5.0)
    HEIGHTS = (1, 2, 3, 4)
    EPS = 1e-8              # pole-free residues at solved roots stay below
    CONTROL_FLOOR = 1e-3    # and at random roots rise above this
    CONTOUR_EPS = 1e-6      # reference contour residue at solved roots
    CONTOUR_HEIGHTS = 2     # T^1 and T^2 get the contour cross-check

    def setup(self, seed: int, tr):
        _clear_block_caches()
        fixtures = []
        for name, counts in self.FIXTURES.items():
            spec = parse_spec(name)
            ctx = BoxContext(spec)
            with tr.span("dvf.build"):
                cols = [column_dvf(ctx, a) for a in self.HEIGHTS]
            tr.count("dvf.terms", sum(len(c) for c in cols))
            fixtures.append({"name": name, "spec": spec, "cols": cols,
                             "system": BetheSystem(spec, len(self.W), self.W,
                                                   counts)})
        return {"fixtures": fixtures}

    def _one(self, tr, fx):
        stats: dict = {}
        with tr.span("bae.solve"):
            sols = solve_bae(fx["system"], stats=stats, **self.SOLVER)
        tr.count("bae.starts", stats["starts"])
        tr.count("bae.converged", stats["converged"])
        tr.count("bae.accepted", stats["converged"] - stats["residual_rejected"]
                 - stats["genericity_rejected"] - stats["runaway_rejected"])
        sol = sols[0]
        with tr.span("bae.residue"):
            pairs = check_residue_pairs(fx["spec"], fx["system"], sol)
        poles = []
        for a, col in zip(self.HEIGHTS, fx["cols"]):
            with tr.span("bae.polefree"):
                rep = check_pole_free(col, fx["system"], sol,
                                      name=f"pole-free {fx['name']} T^{a}")
            tr.count("bae.poles_probed", rep.samples)
            poles.append(rep)
        return sol, pairs, poles

    def round(self, st, tr, out: Outcome):
        return [out.run(f"bethe {fx['name']}", self._one, tr, fx)
                for fx in st["fixtures"]]

    def check_round(self, st, result, bad: list) -> None:
        first = st.setdefault("first_solutions",
                              [r[0] if r else None for r in result])
        for fx, r, sol0 in zip(st["fixtures"], result, first):
            if r is None:
                continue
            sol, pairs, poles = r
            if sol != sol0:
                bad.append(f"{fx['name']}: solution differs between rounds")
            if not (pairs.passed and pairs.max_deviation < self.EPS):
                bad.append(f"{fx['name']}: residue pairs {pairs.max_deviation}")
            for rep in poles:
                if not (rep.passed and rep.max_deviation < self.EPS):
                    bad.append(f"{rep.name}: residue {rep.max_deviation}")

    def final_check(self, st, seed: int, bad: list) -> None:
        rng = Random(seed)
        for fx, sol in zip(st["fixtures"], st["first_solutions"]):
            if sol is None:
                continue
            system = fx["system"]
            fake = BetheRootSet(tuple(
                tuple(complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                      for _ in range(n)) for n in system.root_counts))
            rep = check_pole_free(fx["cols"][0], system, fake)
            if not rep.max_deviation > self.CONTROL_FLOOR:
                bad.append(f"{fx['name']}: random-roots control reads "
                           f"{rep.max_deviation}")
            for a, col in zip(self.HEIGHTS[:self.CONTOUR_HEIGHTS], fx["cols"]):
                worst = self._contour(col, sol, system)
                if not worst < self.CONTOUR_EPS:
                    bad.append(f"{fx['name']} T^{a}: reference contour "
                               f"residue {worst}")
            if not self._contour(fx["cols"][0], fake, system) > self.CONTROL_FLOOR:
                bad.append(f"{fx['name']}: reference contour control too small")

    @staticmethod
    def _contour(col, roots_set: BetheRootSet, system) -> float:
        roots = roots_set.as_mapping()
        inhoms = [complex(w) for w in system.inhoms]
        return max((ref.contour_residue(col, roots[c][k] + complex(s), roots,
                                        inhoms)
                    for c, k, s in ref.pole_locations(col, roots)), default=0.0)


# ---------------------------------------------------------------------------
# verify_all: the command users run


class VerifyAll:
    name = "verify_all"

    def setup(self, seed: int, tr):
        os.environ.pop("BETHE_DVF_JOBS", None)   # serial: no process pool
        return {"argv": ["verify", "all", "--seed", str(seed)]}

    def round(self, st, tr, out: Outcome):
        # start from the state of a fresh process: no memoized sums and no
        # solved Bethe fixtures left over from an earlier round
        _clear_block_caches()
        getattr(cli, "_FIXTURE_CACHE", {}).clear()
        emitted: dict[str, int] = {}
        original = dict(cli.SUITES)

        def wrap(name, fn):
            def suite(seed):
                with tr.span(f"cli.suite.{name}"):
                    reports = fn(seed)
                emitted[name] = len(reports)
                return reports
            return suite

        cli.SUITES.update({n: wrap(n, f) for n, f in original.items()})
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = out.run("verify all", cli.main, st["argv"])
        finally:
            cli.SUITES.update(original)
        tr.count("cli.reports", sum(emitted.values()))
        return code, buf.getvalue(), emitted, list(original)

    def check_round(self, st, result, bad: list) -> None:
        code, text, emitted, suites = result
        if code is None:
            return
        if code != 0:
            bad.append(f"verify all exited with {code}")
        first = st.setdefault("first_stdout", text)
        if text != first:
            bad.append("verify all stdout differs between rounds")
        try:
            reports = json.loads(text)
        except ValueError:
            bad.append("verify all stdout is not JSON")
            return
        failed = [r["name"] for r in reports if r.get("passed") is not True]
        if failed:
            bad.append(f"failed reports: {failed[:5]}")
        silent = [n for n in suites if emitted.get(n, 0) < 1]
        if silent:
            bad.append(f"suites without reports: {silent}")
        if len(reports) != sum(emitted.values()):
            bad.append("report count differs from what the suites returned")

    def final_check(self, st, seed: int, bad: list) -> None:
        pass


WORKLOADS = {w.name: w for w in (Build(), Sample(), Bethe(), VerifyAll())}
