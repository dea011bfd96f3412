from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

import bethe_dvf
from bethe_dvf import cli
from bethe_dvf.cli import main, parse_shape

# the subprocess runs the package these tests import, installed or not
PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(bethe_dvf.__file__)))


def run_cli(*argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (PKG_ROOT, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "bethe_dvf", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def test_parse_shape_grammar():
    assert parse_shape("1^3").mu.parts == (1, 1, 1)
    assert parse_shape("2^2").mu.parts == (2, 2)
    assert parse_shape("3,2,1").mu.parts == (3, 2, 1)
    sd = parse_shape("3,1/1")
    assert sd.mu.parts == (3, 1) and sd.lam.parts == (1,)


def test_negative_row_count_is_refused(capsys):
    # m^a with a < 0 once read as the empty shape and counted 1 tableau
    assert parse_shape("2^0").mu.parts == ()
    with pytest.raises(ValueError, match="negative row count"):
        parse_shape("2^-1")
    assert main(["count", "B(0|2)", "--shape", "2^-1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "negative row count" in err


def test_build_latex_golden_term_count():
    code, out, _ = run_cli("build", "B(2|1)", "--shape", "1^1",
                           "--format", "latex")
    assert code == 0
    assert len([line for line in out.strip().splitlines() if line]) == 7
    assert r"\phi(u-2)\phi(u+1)Q_{1}(u+1)" in out


def test_build_no_vacuum_count():
    code, out, _ = run_cli("build", "B(0|2)", "--shape", "2", "--no-vacuum")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert len(payload["terms"]) == 10
    assert all(not t["phi"] for t in payload["terms"])


def test_build_unsupported_shape_exit_2():
    code, _, err = run_cli("build", "D(2|1)", "--shape", "2,1")
    assert code == 2
    assert "error" in err


def test_malformed_spec_exit_2():
    code, _, _ = run_cli("count", "B(-1|0)", "--shape", "1")
    assert code == 2


def test_count_matches_library():
    code, out, _ = run_cli("count", "D(3|1)", "--shape", "1^2")
    assert code == 0
    assert json.loads(out)["count"] == 31


def test_solve_trivial_system():
    code, out, _ = run_cli("solve", "B(1|1)", "--N", "2", "--w", "0.5,-0.5",
                           "--Na", "0,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["solutions"][0]["roots"] == [[], []]


def test_solve_fixture_residual():
    code, out, _ = run_cli("solve", "B(0|1)", "--N", "2", "--w", "2,-1",
                           "--Na", "1", "--seed", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["solutions"]
    assert all(s["residual"] < 1e-10 for s in payload["solutions"])


def test_solve_no_solution_exit_3():
    # the forced root collides with a zero of phi for this degenerate w
    code, _, err = run_cli("solve", "B(0|1)", "--N", "2", "--w", "1,-1",
                           "--Na", "1", "--starts", "8")
    assert code == 3


def test_solve_zero_starts_exit_2():
    # a search without starts is bad input, not a failed search
    code, out, err = run_cli("solve", "B(0|1)", "--N", "2", "--w", "2,-1",
                             "--Na", "1", "--starts", "0")
    assert code == 2 and out == ""
    assert "n_starts" in err


@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_verify_jobs_below_one_exit_2(jobs):
    # a pool without workers is bad input, as a search without starts is
    code, out, err = run_cli("verify", "counts", "--jobs", jobs)
    assert code == 2 and out == ""
    assert "--jobs" in err


@pytest.mark.parametrize("argv", [
    ["build", "B(2|1)", "--shape", "1^2", "--format", "latex"],
    ["solve", "B(0|1)", "--N", "2", "--w", "2,-1", "--Na", "1", "--seed", "5"],
])
def test_out_file_holds_the_stdout_bytes(argv, tmp_path, capsys):
    assert main(argv) == 0
    want = capsys.readouterr().out
    path = tmp_path / "out.txt"
    assert main([*argv, "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == want.encode()
    assert main([*argv, "--out", "-"]) == 0
    assert capsys.readouterr().out == want


def test_verify_golden_deterministic():
    code1, out1, _ = run_cli("verify", "golden", "--seed", "42")
    code2, out2, _ = run_cli("verify", "golden", "--seed", "42")
    assert code1 == code2 == 0
    assert out1 == out2
    reports = json.loads(out1)
    assert len(reports) == 3
    assert all(r["passed"] for r in reports)
    assert all(r["seed"] == 42 for r in reports)


def test_verify_counts_suite():
    code, out, _ = run_cli("verify", "counts")
    assert code == 0
    reports = json.loads(out)
    assert all(r["passed"] for r in reports)


def test_export_writes_expansions(tmp_path):
    code, out, _ = run_cli("export", "--out", str(tmp_path / "goldens"))
    assert code == 0
    files = sorted((tmp_path / "goldens").glob("*.json"))
    assert len(files) == 3
    payload = json.loads(files[0].read_text())
    assert payload["schema"] == 1 and payload["terms"]


@pytest.mark.parametrize("argv", [
    ["build", "B(2|1)", "--shape", "1^1", "--out", "{missing}/x.json"],
    ["solve", "B(1|1)", "--N", "2", "--w", "0.5,-0.5", "--Na", "0,0",
     "--out", "{missing}/x.json"],
    ["export", "--out", "{file}"],
], ids=["build", "solve", "export"])
def test_unwritable_out_exit_2(argv, tmp_path, capsys):
    # a directory that does not exist, or a file where export wants one
    (tmp_path / "file").write_text("")
    paths = {"missing": tmp_path / "missing", "file": tmp_path / "file"}
    assert main([a.format(**paths) for a in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_main_callable_directly():
    assert main(["count", "B(0|2)", "--shape", "1^4"]) == 0


# sha256 of `verify <suite> --seed 42` stdout for the suites that take
# about a second or less: reports are reproducible byte for byte, so a
# refactor must leave these unchanged
VERIFY_SEED42_SHA256 = {
    "golden": "76ae49c3686abf8158e8f56d07560ef970265503d6108fc718b917fb6ecf60e5",
    "counts": "dcc1c5b9e322000f2b9dabcf17760f247c48fa812d0fa9c5983ec545179c5592",
    "determinant": "dea9771f894a67d60f433228364ed21cacdb2456bae773dadc8f4015af7d3ef5",
    "hirota": "87172fffd8924a5adea7fb2547bc57222098e4e54d5c31062633f14ab48cad21",
    "duality": "fd41a6ef4bdbad8a04cd82dbfdc26a7437741d00f99829a7298fdf3e280e8c86",
    "lemmas": "d49e7f1b5224cfb5ac28c8f3ed3a30cbfe40adefbd6513963935e66fe249f11b",
    "crossing": "b362b491af819240d90e65018e6022ef97a3d5748ee20f326650097e494906df",
    "conjecture": "157d21aa547cd61eff61d90c7df0d65f213fadc80105deedf55ae303e4add376",
    "tsystem": "0ca20b2bfa80fee83681b50fc67406cdcfc5e69642a8cae92f073581cc5b7a57",
    "genseries": "f6a53e724eac07a94dd2b219dd99fd1c7f8aebae322fd365a00db2a1426a232e",
}


@pytest.mark.parametrize("suite", sorted(VERIFY_SEED42_SHA256))
def test_verify_stdout_is_byte_stable(suite, capsys):
    assert main(["verify", suite, "--seed", "42"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SEED42_SHA256[suite]


VERIFY_ALL_SEED42_SHA256 = \
    "54471fbd6e8e92dc5d67d71de554d62898c688fe404b53675f42b87d57ebf291"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_all_stdout_is_byte_stable(jobs, capsys):
    # every suite, numeric ones included, in registry order; a process pool
    # prints the same bytes
    assert main(["verify", "all", "--seed", "42", "--jobs", jobs]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_SEED42_SHA256


def test_verify_all_reads_the_registry_at_call_time(monkeypatch, capsys):
    # the benchmark's verify_all round times each suite by wrapping the
    # entries of cli.SUITES, and empties cli._FIXTURE_CACHE so that every
    # round solves the Bethe fixtures again; both names are its contract
    assert list(cli.SUITES) == [
        "golden", "counts", "determinant", "hirota", "duality", "tsystem",
        "residues", "polefree", "lemmas", "crossing", "genseries",
        "conjecture"]
    calls: dict[str, list] = {}

    def wrap(name, fn):
        def suite(seed):
            reports = fn(seed)
            calls.setdefault(name, []).append((seed, len(reports)))
            return reports
        return suite

    for name, fn in list(cli.SUITES.items()):
        monkeypatch.setitem(cli.SUITES, name, wrap(name, fn))
    cli._FIXTURE_CACHE.clear()
    assert main(["verify", "all", "--seed", "42"]) == 0
    out = capsys.readouterr().out
    assert list(calls) == list(cli.SUITES)
    assert all(len(c) == 1 and c[0][0] == 42 for c in calls.values())
    assert sum(c[0][1] for c in calls.values()) == len(json.loads(out)) == 138
    assert sorted(cli._FIXTURE_CACHE) == sorted(cli.FIXTURE_COUNTS)
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_SEED42_SHA256


# sha256 of `build` stdout in each format, and of the three `export` files:
# the rendered sums are reproducible byte for byte
BUILD_SHA256 = {
    ("B(2|1)", "2,1", "json"):
        "ef372255948e2a38777d1fbe88b90155a49ec48086ae24572361c2412c8abc7c",
    ("B(2|1)", "2,1", "latex"):
        "084a0f4cb9e50ee82c3f6b0d806bf94101ee6942ad9b25b16e6619a70a556ccd",
    ("B(2|1)", "2,1", "text"):
        "3b4238228b6d6a36a668464e69b0dbe5df1f0b139aec58ac6cf26a7373a8bb54",
    ("B(0|2)", "2^2", "json"):
        "d82613a7428d2c2021b0741a1447626b53e639c06f967a027c759891a086ed4c",
    ("B(0|2)", "2^2", "latex"):
        "1d75d87c7753c4cf71ef3fcfa420697a8c3d57cc144c727a7361180f62b6aef4",
    ("B(0|2)", "2^2", "text"):
        "9a6b30aa38a2e6896a7b42544d874d2bbebed88648e740ffc812aceb6d0d6c0a",
    ("D(3|1)", "1^2", "json"):
        "4d8b1c2290c350f81d9c2ee8ba02c907ba7df660219771257ec1834c0480a53b",
    ("D(3|1)", "1^2", "latex"):
        "fd9efaeaa5b704e178d0c4e0ad3f67eb7b0e1ef0a512292a9a23ca8c8ac6e64e",
    ("D(3|1)", "1^2", "text"):
        "2f6a939fc25e96b989f56fa4ad0305057a258cffe941f4042f978da622ebb4b1",
    ("B(2|1)", "3,1/1", "json"):
        "6910c8e3b7b3d169dd0e862933f73424829a5059f1ebdc46da15a72539c1fd57",
    ("B(2|1)", "3,1/1", "latex"):
        "80964481817e1b387c9209011228e220f81a9911900025279e8bef0e16b01d9a",
    ("B(2|1)", "3,1/1", "text"):
        "552cce7dbd91193851b72ba5bc310a4383abec0aca685c9e3363a8dfe45a6656",
}
EXPORT_SHA256 = {
    "B2-1_column_height_1.json":
        "642827434304f0eb8778d8add4a497e0ec98a70953bb0ce997064614ca273c32",
    "B2-1_column_height_2.json":
        "d363ca8b8c7d8ed4abf7f5c857067c751f7c0c29730748772c41c517dce35905",
    "B2-1_row_length_2.json":
        "a071345aaf9b2cf1789418d632cab248ca30def76c16e1239501fb69b798f50e",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("spec,shape,fmt", sorted(BUILD_SHA256))
def test_build_stdout_is_byte_stable(spec, shape, fmt, capsys):
    assert main(["build", spec, "--shape", shape, "--format", fmt]) == 0
    assert _sha256(capsys.readouterr().out) == BUILD_SHA256[spec, shape, fmt]


def test_build_no_vacuum_stdout_is_byte_stable(capsys):
    assert main(["build", "B(0|2)", "--shape", "2^2", "--no-vacuum",
                 "--format", "text"]) == 0
    assert _sha256(capsys.readouterr().out) == (
        "4777b053c42db42814186d527eb7b12a8f05ea262b4fdcc108ca747e6d5a9efe")


def test_export_files_are_byte_stable(tmp_path, capsys):
    assert main(["export", "--out", str(tmp_path)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in tmp_path.glob("*.json")}
    assert got == EXPORT_SHA256
