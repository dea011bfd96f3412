"""Benchmark of bethe-dvf: end-to-end and per-layer figures for one workload.

    python3 bench/run.py --workload build --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
A run sets the workload up, repeats identical rounds of its timed work for
about ``--seconds`` seconds (at least one round), checks every round's
outputs, runs the workload's negative controls, and prints one JSON object
as the last line of stdout.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones and writes the spans to ``bench/results/``.
See bench/README.md for the workloads and the meaning of every metric.
"""

import time

_T0 = time.perf_counter()   # before any import of the program

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
SETUP_REPEATS = 2    # extra fresh processes that time set-up alone

# one thread per process: the solver's linear algebra must not fan out
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

LAYER_TIMES = {   # per-layer time metric -> span name
    "tableaux.enumerate_s": "tableaux.enumerate",
    "dvf.build_s": "dvf.build",
    "relations.det_expand_s": "relations.det_expand",
    "symbolic.eval_s": "symbolic.eval",
    "symbolic.det_eval_s": "symbolic.det_eval",
    "symbolic.group_eval_s": "symbolic.group_eval",
    "bae.solve_s": "bae.solve",
    "bae.residue_s": "bae.residue",
    "bae.polefree_s": "bae.polefree",
}
LAYER_COUNTS = ["tableaux.tableaux", "dvf.terms", "symbolic.term_points",
                "symbolic.factor_values", "symbolic.pole_resamples",
                "bae.starts", "bae.converged", "bae.accepted",
                "bae.poles_probed", "cli.reports"]
SUITE_NAMES = ["golden", "counts", "determinant", "hirota", "duality",
               "tsystem", "residues", "polefree", "lemmas", "crossing",
               "genseries", "conjecture"]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit")
    return p.parse_args(argv)


def import_program():
    """Put the checkout's src/ first on the path; refuse any other copy."""
    pkg = os.path.join(SRC, "bethe_dvf", "__init__.py")
    if not os.path.isfile(pkg):
        sys.exit(f"bench: no program at {pkg}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import bethe_dvf
    if os.path.abspath(bethe_dvf.__file__) != pkg:
        sys.exit(f"bench: imported {bethe_dvf.__file__}, not {pkg}")
    import workloads
    return workloads


def setup_elsewhere(args) -> list:
    """Set-up time of fresh processes that set up and exit."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"bench: set-up process failed:\n{proc.stderr}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def per_layer(tracer) -> dict:
    """One set-up plus one round: self times (median over rounds) and counts."""
    selfs = tracer.self_times()
    rounds = [v for k, v in selfs.items() if k.startswith("round:")]
    setup = selfs.get("setup", {})

    def layer_time(span: str) -> float:
        per_round = statistics.median(r.get(span, 0.0) for r in rounds)
        return setup.get(span, 0.0) + per_round

    counts = dict(tracer.counts.get("setup", {}))
    for k, v in tracer.counts.get("round:0", {}).items():
        counts[k] = counts.get(k, 0) + v

    m = {}
    for metric, span in LAYER_TIMES.items():
        m[metric] = (layer_time(span), "s")
    for name in LAYER_COUNTS:
        m[name] = (counts.get(name, 0), "count")
    for suite in SUITE_NAMES:
        m[f"cli.suite_s.{suite}"] = (layer_time(f"cli.suite.{suite}"), "s")

    def ratio(a, b, scale=1.0):
        return a * scale / b if b else 0.0

    m["dvf.build_us_per_term"] = (
        ratio(m["dvf.build_s"][0], counts.get("dvf.terms", 0), 1e6), "us")
    m["symbolic.eval_us_per_term_point"] = (
        ratio(m["symbolic.eval_s"][0], counts.get("symbolic.term_points", 0),
              1e6), "us")
    m["bae.ms_per_start"] = (
        ratio(m["bae.solve_s"][0], counts.get("bae.starts", 0), 1e3), "ms")
    m["bae.accepted_per_start"] = (
        ratio(counts.get("bae.accepted", 0), counts.get("bae.starts", 0)),
        "ratio")
    return m


def report_layers(m: dict, workload: str) -> None:
    print(f"per-layer figures, {workload}: one set-up plus one round",
          file=sys.stderr)
    for name in sorted(m):
        value, unit = m[name]
        if value:
            print(f"  {name:34s} {value:14.6g} {unit}", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    wl_mod = import_program()
    from tracing import NULL_TRACER, Tracer

    if args.workload not in wl_mod.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(wl_mod.WORKLOADS)}")
    wl = wl_mod.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else NULL_TRACER

    with tracer.phase("setup"):
        state = wl.setup(args.seed, tracer)
    setup_here = time.perf_counter() - _T0
    if args.setup_only:
        print(repr(setup_here))
        return 0

    walls, cpus, attempted, errors, bad = [], [], 0, [], []
    started = time.perf_counter()
    while not walls or time.perf_counter() - started < args.seconds:
        out = wl_mod.Outcome()
        c0, t0 = time.process_time(), time.perf_counter()
        with tracer.phase(f"round:{len(walls)}"):
            result = wl.round(state, tracer, out)
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        attempted += out.attempted
        errors += out.errors
        wl.check_round(state, result, bad)
        del result
    wl.final_check(state, args.seed, bad)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace and any(
            tracer.counts.get(f"round:{i}") != tracer.counts.get("round:0")
            for i in range(len(walls))):
        bad.append("per-round counts differ between rounds")

    for line in errors + bad:
        print(f"bench: {line}", file=sys.stderr)

    os.makedirs(RESULTS, exist_ok=True)
    if args.trace:
        tracer.dump(os.path.join(
            RESULTS, f"trace-{args.workload}-seed{args.seed}.json"))
        layers = per_layer(tracer)
        report_layers(layers, args.workload)
        print(f"bench: traced round walls {walls}", file=sys.stderr)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        setups = [setup_here] + setup_elsewhere(args)
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
        print(f"bench: {args.workload} seed {args.seed}: {len(walls)} rounds "
              f"of {attempted // len(walls)} operations; round walls "
              f"{[round(t, 4) for t in walls]}; set-ups "
              f"{[round(t, 4) for t in setups]}", file=sys.stderr)

    result = {"correct": not bad, "attempted": attempted,
              "failed": len(errors), "metrics": metrics}
    with open(os.path.join(RESULTS, f"result-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as f:
        json.dump(result, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
