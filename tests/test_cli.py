"""Command-line contract: exit codes, JSON schema stability, round-trips."""
import io
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from functools import partial
from itertools import groupby
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import enum_oracles as oracles
from sheaf_census import SUBSETS, __version__, census, cli, diagrams as dg, groups, verify
from sheaf_census.cli import _CHUNK, _json_pieces, _row_template, main
from sheaf_census.qseries import FormalSeries


SRC = Path(__file__).resolve().parent.parent / "src"


def child_env(**extra) -> dict:
    """The environment for a child interpreter, with src/ first on its path
    (as for the demos), so that it runs from a checkout too."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


def test_orbits_bdi_rows(capsys):
    code, data, _ = run_json(capsys, "orbits", "bdi", "--p", "3", "--q", "2")
    assert code == 0
    assert len(data["payload"]["orbits"]) == 8


def test_orbits_richardson(capsys):
    code, data, _ = run_json(capsys, "orbits", "bdi", "--p", "3", "--q", "2",
                             "--richardson")
    assert code == 0
    rows = data["payload"]["orbits"]
    assert [r["diagram"] for r in rows] == ["5+", "3- 1+^2"]


def test_orbits_class_filter(capsys):
    code, data, _ = run_json(capsys, "orbits", "bdi", "--p", "3", "--q", "2",
                             "--class", "sigma1")
    assert code == 0
    assert {r["diagram"] for r in data["payload"]["orbits"]} == \
        {"3+ 1+ 1-", "1+^3 1-^2"}


def test_orbits_diii(capsys):
    code, data, _ = run_json(capsys, "orbits", "diii", "--n", "3")
    assert code == 0
    assert len(data["payload"]["orbits"]) == 4


def test_census_anchors(capsys):
    code, data, _ = run_json(capsys, "census", "bdi", "--p", "3", "--q", "2",
                             "--central", "k0")
    assert code == 0
    (report,) = data["payload"]["reports"]
    assert report["total"] == 11
    code, data, _ = run_json(capsys, "census", "bdi", "--p", "3", "--q", "2",
                             "--central", "k1")
    assert data["payload"]["reports"][0]["total"] == 6
    code, data, _ = run_json(capsys, "census", "diii", "--n", "4",
                             "--central", "k1")
    assert data["payload"]["reports"][0]["total"] == 5


def test_census_check_passes(capsys):
    code, _, _ = run_json(capsys, "census", "bdi", "--p", "4", "--q", "3",
                          "--central", "both", "--check")
    assert code == 0
    for subset in ("all", "full"):  # the empty diii pair has no k1 stratum
        code, _, _ = run_json(capsys, "census", "diii", "--n", "0", "--central", "k1",
                              "--subset", subset, "--check")
        assert code == 0, subset


def test_census_schema_keys(capsys):
    code, data, _ = run_json(capsys, "census", "bdi", "--p", "3", "--q", "2",
                             "--central", "k0")
    (report,) = data["payload"]["reports"]
    assert report["pair"] == {"type": "bdi", "p": 3, "q": 2}
    assert set(report) == {"pair", "central", "strata", "total", "warnings"}
    for s in report["strata"]:
        assert set(s) == {"support", "delta", "m", "k", "mu", "family", "count"}
        assert isinstance(s["count"], int)


def test_census_json_round_trip(capsys):
    # every printed diagram string parses back to an equal diagram and the
    # totals are the sums of the strata
    for args in (("census", "bdi", "--p", "5", "--q", "3", "--central", "both"),
                 ("census", "diii", "--n", "6", "--central", "both")):
        code, data, _ = run_json(capsys, *args)
        assert code == 0
        for report in data["payload"]["reports"]:
            total = 0
            for s in report["strata"]:
                support = dg.parse_diagram(s["support"])
                assert dg.format_diagram(support) == s["support"]
                mu = dg.parse_diagram(s["mu"])
                assert dg.format_diagram(mu) == s["mu"]
                total += s["count"]
            assert total == report["total"]


def test_census_formats_agree(capsys):
    code, data, _ = run_json(capsys, "census", "bdi", "--p", "4", "--q", "2",
                             "--central", "k0")
    json_total = data["payload"]["reports"][0]["total"]
    code, out, _ = run_cli(capsys, "census", "bdi", "--p", "4", "--q", "2",
                           "--central", "k0", "--format", "csv")
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    csv_total = next(int(r[-1]) for r in rows if r[1] == "TOTAL")
    assert csv_total == json_total
    code, out, _ = run_cli(capsys, "census", "bdi", "--p", "4", "--q", "2",
                           "--central", "k0", "--format", "table")
    assert str(json_total) in out


def test_census_low_rank_warning(capsys):
    code, data, _ = run_json(capsys, "census", "bdi", "--p", "2", "--q", "1")
    assert data["warnings"]


def test_table_ends_with_its_warnings(capsys):
    code, out, _ = run_cli(capsys, "census", "bdi", "--p", "2", "--q", "1", "--central", "k0",
                           "--format", "table")
    assert code == 0
    assert out.endswith("\nwarning: low-rank pair: outside the stable range (total size < 5)\n")


def test_verify_pass_and_exit_codes(capsys):
    code, data, _ = run_json(capsys, "verify", "--suite", "euler-smoke",
                             "--order", "60")
    assert code == 0
    assert data["payload"]["all_pass"] is True
    code, _, err = run_cli(capsys, "verify", "--suite", "nope")
    assert code == 2


def test_verify_multiple_ids(capsys):
    code, data, _ = run_json(capsys, "verify", "--suite", "tb1", "psi1-a",
                             "--order", "14", "--sweep", "8")
    assert code == 0
    assert [c["id"] for c in data["payload"]["checks"]] == ["tb1", "psi1-a"]


def test_series_examples(capsys):
    code, data, _ = run_json(capsys, "series", "--expr",
                             "prod(1+x^{2s})(1+x^{1s})", "--order", "2")
    assert code == 0
    assert data["payload"]["coefficients"] == {"0": "1", "1": "1", "2": "2"}
    code, data, _ = run_json(capsys, "series", "--expr",
                             "1/2 * prod(1+x^{2s-1})(1+x^{1s})", "--order", "4",
                             "--coeff", "0")
    assert data["payload"]["coefficients"] == {"0": "1/2"}
    code, data, _ = run_json(capsys, "series", "--expr", "x^0", "--order", "3")
    assert list(data["payload"]["coefficients"].values()) == ["1", "0", "0", "0"]


@given(st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 12))
def test_series_coefficients_read_as_fractions_do(num, den):
    assert cli._fraction_text(num, den) == str(Fraction(num, den))


def test_series_parse_error_exit_2(capsys):
    code, out, err = run_cli(capsys, "series", "--expr", "prod(1+y^{2s})")
    assert code == 2
    assert "^" in err


def test_usage_error_exit_2(capsys):
    assert run_cli(capsys, "census", "bdi", "--p", "3")[0] == 2
    assert run_cli(capsys, "orbits", "bdi")[0] == 2
    assert run_cli(capsys, "census", "bdi", "--p", "1", "--q", "1",
                   "--central", "k9")[0] == 2


def test_out_file_atomic(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "census", "bdi", "--p", "3", "--q", "2",
                           "--central", "k0", "--out", str(target))
    assert code == 0
    assert out == ""
    data = json.loads(target.read_text())
    assert data["payload"]["reports"][0]["total"] == 11


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
@pytest.mark.parametrize("argv", [["orbits", "bdi", "--p", "6", "--q", "5"],
                                  ["census", "bdi", "--p", "5", "--q", "4", "--check"],
                                  ["orbits", "diii", "--n", "6"]], ids=["orbits", "census", "diii"])
def test_out_writes_the_bytes_of_stdout(tmp_path, capsys, argv, fmt):
    # the same bytes, but for the command line that json and table output echo
    target = tmp_path / "out.txt"
    argv = [*argv, "--format", fmt]
    code, out, _ = run_cli(capsys, *argv)
    assert run_cli(capsys, *argv, "--out", str(target)) == (code, "", "")
    command = " ".join(["sheaf-census", *argv])
    with open(target, newline="") as handle:  # csv rows end in \r\n
        assert handle.read() == out.replace(command, f"{command} --out {target}")


def test_a_failed_out_write_leaves_no_file(tmp_path, capsys, monkeypatch):
    def refuse(src, dst):
        raise OSError(28, "No space left on device")
    monkeypatch.setattr(os, "replace", refuse)
    code, out, err = run_cli(capsys, "census", "bdi", "--p", "3", "--q", "2",
                             "--out", str(tmp_path / "report.json"))
    assert (code, out) == (2, "")
    assert err.startswith("sheaf-census: ")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_env_var_sets_default_order(capsys, monkeypatch):
    monkeypatch.setenv("SHEAF_CENSUS_ORDER", "12")
    code, data, _ = run_json(capsys, "series", "--expr", "x^0")
    assert code == 0
    assert data["payload"]["order"] == 12


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "sheaf_census.cli",
                           "census", "bdi", "--p", "3", "--q", "2",
                           "--central", "k1"],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["payload"]["reports"][0]["total"] == 6


def test_the_readme_command_lines_run(capsys):
    # each sheaf-census line of README's "Command line" block, as a shell splits it
    readme = (SRC.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.splitlines()
                if line.startswith("sheaf-census ")]
    assert len(commands) == 11
    for argv in commands:
        assert run_cli(capsys, *argv[1:])[0] == 0, argv


def _broken_formula(p, q):
    raise ArithmeticError(f"non-integer count 1/2 at ({p},{q})")


# (argv, env, patched census attributes) -> (exit code, stderr prefix);
# "{tmp}" in argv is replaced by a fresh temporary directory
ERROR_CASES = {
    "bad-order-env": (["series", "--expr", "x^0"], {"SHEAF_CENSUS_ORDER": "abc"}, {},
                      2, "sheaf-census: bad SHEAF_CENSUS_ORDER 'abc'"),
    "orbits-missing-q": (["orbits", "bdi", "--p", "3"], {}, {},
                         2, "sheaf-census: orbits bdi needs --q"),
    "orbits-missing-p-q": (["orbits", "bdi"], {}, {},
                           2, "sheaf-census: orbits bdi needs --p and --q"),
    "orbits-missing-n": (["orbits", "diii"], {}, {},
                         2, "sheaf-census: orbits diii needs --n"),
    "orbits-diii-class": (["orbits", "diii", "--n", "3", "--class", "sigma1"], {}, {},
                          2, "sheaf-census: --class applies to the bdi family only"),
    "orbits-bdi-stray-n": (["orbits", "bdi", "--p", "3", "--q", "2", "--n", "5"], {}, {},
                           2, "sheaf-census: --n applies to the diii family only"),
    "orbits-diii-stray-q": (["orbits", "diii", "--n", "3", "--q", "2"], {}, {},
                            2, "sheaf-census: --q applies to the bdi family only"),
    "census-diii-stray-p": (["census", "diii", "--n", "3", "--p", "2"], {}, {},
                            2, "sheaf-census: --p applies to the bdi family only"),
    "census-bdi-stray-n": (["census", "bdi", "--p", "3", "--q", "2", "--n", "5",
                            "--check"], {}, {},
                           2, "sheaf-census: --n applies to the diii family only"),
    "census-missing-q": (["census", "bdi", "--p", "3"], {}, {},
                         2, "sheaf-census: census bdi needs --q"),
    "census-missing-n": (["census", "diii"], {}, {},
                         2, "sheaf-census: census diii needs --n"),
    "out-missing-dir": (["census", "bdi", "--p", "3", "--q", "2", "--out",
                         "{tmp}/missing/report.json"], {}, {},
                        2, "sheaf-census: cannot write {tmp}/missing/report.json"),
    "unknown-check": (["verify", "--suite", "nope"], {}, {}, 2,
                      "sheaf-census: unknown check ids: nope\n"),
    "verify-all-not-alone": (["verify", "--suite", "all", "tb1"], {}, {}, 2,
                             "sheaf-census: verify --suite all must stand alone: "
                             "--suite is 'all tb1'\n"),
    "series-negative-order": (["series", "--order", "-1", "--expr", "x^0"], {}, {}, 2,
                              "sheaf-census: series needs a nonnegative order: --order is -1"),
    "series-negative-order-env": (["series", "--expr", "x^0"], {"SHEAF_CENSUS_ORDER": "-1"},
                                  {}, 2, "sheaf-census: series needs a nonnegative order: "
                                  "SHEAF_CENSUS_ORDER is -1"),
    "verify-small-order": (["verify", "--suite", "psi1-a", "--order", "5"], {}, {}, 2,
                           "sheaf-census: verify needs an order of at least 10: --order is 5"),
    "verify-small-order-env": (["verify", "--suite", "psi1-a"], {"SHEAF_CENSUS_ORDER": "5"},
                               {}, 2, "sheaf-census: verify needs an order of at least 10: "
                               "SHEAF_CENSUS_ORDER is 5"),
    "verify-empty-suite": (["verify", "--suite", ","], {}, {}, 2,
                           "sheaf-census: verify needs at least one check id: --suite is ','"),
    "verify-zero-sweep": (["verify", "--sweep", "0"], {}, {}, 2,
                          "sheaf-census: verify needs a sweep of at least 1: --sweep is 0"),
    "series-negative-coeff": (["series", "--expr", "x^0", "--coeff", "-2"], {}, {}, 2,
                              "sheaf-census: series needs a nonnegative coefficient: "
                              "--coeff is -2\n"),
    "series-coeff-beyond-order": (["series", "--expr", "x^0", "--order", "3", "--coeff", "4"],
                                  {}, {}, 2, "sheaf-census: coefficient 4 beyond order 3\n"),
    # orders no list of coefficients can hold: they fail before allocating
    "series-order-out-of-memory": (["series", "--expr", "x^0", "--order", "1000000000000000000"],
                                   {}, {}, 2, "sheaf-census: series order 1000000000000000000 "
                                   "is too large to expand\n"),
    "series-order-past-index": (["series", "--expr", "x^0", "--order", "10000000000000000000"],
                                {}, {}, 2, "sheaf-census: series order 10000000000000000000 "
                                "is too large to expand\n"),
    # and a product at those orders refuses before its packed int is allocated
    "series-product-order-out-of-memory": (["series", "--expr", "prod(1+x^{2s})", "--order",
                                            "1000000000000000000"], {}, {}, 2,
                                           "sheaf-census: series order 1000000000000000000 "
                                           "is too large to expand\n"),
    "series-product-order-past-index": (["series", "--expr", "prod(1+x^{2s})", "--order",
                                         "10000000000000000000"], {}, {}, 2,
                                        "sheaf-census: series order 10000000000000000000 "
                                        "is too large to expand\n"),
    "series-parse": (["series", "--expr", "prod(1+y^{2s})"], {}, {},
                     2, "sheaf-census: series parse error"),
    "arithmetic-guard": (["census", "bdi", "--p", "3", "--q", "2", "--central", "k0",
                          "--check"], {}, {"count_formula_k0": _broken_formula},
                         1, "sheaf-census: non-integer count 1/2 at (3,2)"),
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_error_paths(case, capsys, monkeypatch, tmp_path):
    argv, env, patches, code, prefix = ERROR_CASES[case]
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    for name, value in patches.items():
        monkeypatch.setattr(census, name, value)
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    assert err.startswith(prefix.replace("{tmp}", str(tmp_path))), err
    assert "Traceback" not in err
    assert out == ""


def test_only_csv_and_table_build_their_rows(capsys, monkeypatch):
    # _finish calls the rows builder it is given for csv and table output only
    built = []
    real = cli._finish
    monkeypatch.setattr(cli, "_finish", lambda args, payload, warnings, headers, rows: real(
        args, payload, warnings, headers, lambda: built.append(args.format) or rows()))
    for fmt in ("json", "csv", "table"):
        for argv in (["orbits", "bdi", "--p", "3", "--q", "2"], ["census", "diii", "--n", "4"],
                     ["verify", "--suite", "psi1-a"]):
            assert run_cli(capsys, *argv, "--format", fmt)[0] == 0
    assert built == ["csv"] * 3 + ["table"] * 3


@pytest.fixture
def refill(request):
    """refill(*caches) empties cached tables, now and again after the test,
    so that a patched helper feeds them and leaves nothing wrong behind."""
    def clear(*caches):
        for cache in caches:
            cache.cache_clear()
            request.addfinalizer(cache.cache_clear)
    return clear


# the memoised census totals and Richardson pi sums that verify reads, the
# Richardson and Lambda_b count DPs they read, and the census's columns of the
# sigma_b and Lambda_b listings: every test that patches a helper feeding them
# refills them too
TOTALS = (census.census_k0_total, census.census_diii_totals, census.diii_closure_total,
          census.richardson_pi_sums, dg._richardson_block, dg._lambda_b_counts,
          census._sigma_b_column, census._lambda_b_column)


def test_diii_nilpotent_check_catches_a_broken_enumerator(capsys, monkeypatch, refill):
    # the check's p(n) does not come from enum_lambda_b, so an enumerator that
    # loses the minus signing of even lengths fails it
    argv = ["census", "diii", "--n", "4", "--subset", "nilpotent", "--check"]
    assert run_cli(capsys, *argv)[0] == 0
    plus_only = dg._lambda_b_rows
    monkeypatch.setattr(dg, "_lambda_b_rows", lambda length, mult: (
        plus_only(length, mult)[:1] if length % 2 == 0 else plus_only(length, mult)))
    refill(dg.lambda_b_listing, *TOTALS)
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert "nilpotent" in err


def test_python_dash_m_entry_point():
    base = [sys.executable, "-m", "sheaf_census"]
    proc = subprocess.run(base + ["census", "bdi", "--p", "3", "--q", "2", "--central", "k1"],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["payload"]["reports"][0]["total"] == 6
    # the exit code of the process itself, not only of main()
    proc = subprocess.run(base + ["series", "--expr", "x^0"], capture_output=True, text=True,
                          env=child_env(SHEAF_CENSUS_ORDER="abc"))
    assert proc.returncode == 2
    assert proc.stderr == "sheaf-census: bad SHEAF_CENSUS_ORDER 'abc'\n"


@pytest.mark.parametrize("command", ["orbits", "census"])
def test_a_stdout_closed_mid_write_ends_the_command_quietly(command):
    # the output (over 100 KB) outgrows a pipe's buffer, so the command is
    # still writing when its reader leaves
    proc = subprocess.Popen([sys.executable, "-m", "sheaf_census", command, "bdi",
                             "--p", "12", "--q", "12"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")


@pytest.mark.parametrize("argv", [["series", "--expr", "prod(1+x^{2s})", "--order", "10"],
                                  ["--help"], ["--version"], ["census", "--help"],
                                  ["verify", "--help"]],
                         ids=["series", "help", "version", "census-help", "verify-help"])
def test_a_stdout_closed_before_the_first_write_ends_the_command_quietly(argv):
    # a short output stays in a buffered stdout (the default) after the
    # failed write, and the flush at exit must not fail again; argparse's
    # help and version text too
    env = {k: v for k, v in child_env().items() if k != "PYTHONUNBUFFERED"}
    reader, writer = os.pipe()
    os.close(reader)
    try:
        proc = subprocess.run([sys.executable, "-m", "sheaf_census", *argv],
                              stdout=writer, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(writer)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_k1_cuspidal_and_full_checks_catch_a_broken_theta(capsys, monkeypatch):
    # the expected totals come from the series route, not from theta_k1_count
    argvs = [["census", "bdi", "--p", "3", "--q", "2", "--central", "k1", "--subset", subset,
              "--check"] for subset in ("cuspidal", "full")]
    for argv in argvs:
        assert run_cli(capsys, *argv)[0] == 0
    real = census.theta_k1_count
    monkeypatch.setattr(census, "theta_k1_count", lambda m, t: 2 * real(m, t))
    for argv in argvs:
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert argv[-2] in err


def test_k1_nilpotent_check_catches_a_broken_eta(capsys, monkeypatch):
    # the expected total comes from the component-group route (the orbits
    # over the staircase times their kappa1 count), not from eta(0, t)
    argv = ["census", "bdi", "--p", "3", "--q", "1", "--central", "k1", "--subset",
            "nilpotent", "--check"]
    assert run_cli(capsys, *argv)[0] == 0
    real = groups.eta
    monkeypatch.setattr(census, "eta", lambda m, t: real(m, t) + (m == 0))
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err == "('bdi', 3, 1) k1 nilpotent: census 2 != formula 1\n"


def test_an_uneven_orbit_share_is_an_internal_error(capsys, monkeypatch):
    # eta(0, 0) + 1 local systems cannot be shared by the 4 orbits over the
    # empty support: the census refuses, where a floor would hide the error
    argv = ["census", "bdi", "--p", "0", "--q", "0", "--central", "k1", "--subset",
            "nilpotent", "--check"]
    assert run_cli(capsys, *argv)[0] == 0
    real = groups.eta
    monkeypatch.setattr(census, "eta", lambda m, t: real(m, t) + (m == 0))
    assert run_cli(capsys, *argv) == (
        1, "", "sheaf-census: 5 local systems do not share evenly among the 4 orbits over 0\n")


def test_diii_k1_check_catches_a_broken_bipartition_count(capsys, monkeypatch):
    # the expected k1 total counts the all-even diagrams of Lambda^{n,n}, not
    # the census's bipartition count
    argv = ["census", "diii", "--n", "4", "--central", "k1", "--check"]
    assert run_cli(capsys, *argv)[0] == 0
    real = census.count_bipartitions
    monkeypatch.setattr(census, "count_bipartitions", lambda x: real(x) + (x == 2))
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err == "('diii', 4) k1 all: census 6 != formula 5\n"


def test_a_subset_without_check_reads_no_route(capsys, monkeypatch):
    argv = ["census", "bdi", "--p", "4", "--q", "2", "--subset", "nilpotent"]
    expected = run_cli(capsys, *argv)
    assert expected[0] == 0

    def broken(t, order):
        raise ArithmeticError("the nilpotent route was read")
    monkeypatch.setattr(census, "_nilcoro_series", broken)
    assert run_cli(capsys, *argv) == expected


def test_k0_nilpotent_check_catches_a_broken_pi(capsys, monkeypatch, refill):
    # the nilpotent total comes from the closed nilcoro series, not from the
    # Richardson character counts the census strata carry
    argvs = [["census", "bdi", "--p", "3", "--q", "2", "--central", "k0", "--subset", subset,
              "--check"] for subset in ("all", "nilpotent")]
    for argv in argvs:
        assert run_cli(capsys, *argv)[0] == 0
    real = dg._pi
    monkeypatch.setattr(dg, "_pi", lambda d, cls, omega, n: 3 * real(d, cls, omega, n))
    refill(dg._sigma_b_by_signature, *TOTALS)
    for argv in argvs:
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert argv[-2] in err


def test_verify_reads_a_broken_pi_through_its_refilled_totals(capsys, monkeypatch, refill):
    # number1-k0 reads the memoised k0 totals; once refilled they carry the
    # broken character counts, so the warm memo masks nothing
    argv = ["verify", "--suite", "number1-k0", "--order", "12", "--sweep", "8"]
    assert run_cli(capsys, *argv)[0] == 0
    real = dg._pi
    monkeypatch.setattr(dg, "_pi", lambda d, cls, omega, n: 3 * real(d, cls, omega, n))
    refill(dg._sigma_b_by_signature, *TOTALS)
    code, data, _ = run_json(capsys, *argv)
    assert code == 1
    assert data["payload"]["checks"][0]["status"] == "FAIL"


# the checks that reach _pi on an even-size Richardson diagram (the sigma_b
# table of a size computes every pi of that size)
PI_EVEN_CHECKS = {"number1-k0", "numbert-closure", "bb-even", "tb1", "b2-even",
                  "b2-weighted-oracle", "nilcoro-k0-even"}


def _failed_checks(capsys) -> dict[str, str]:
    """Run the whole suite at a small scope, which must exit 1 with a full
    report and no traceback; the error of each check that did not pass."""
    code, data, err = run_json(capsys, "verify", "--suite", "all", "--order", "12",
                               "--sweep", "8")
    assert code == 1
    assert "Traceback" not in err
    checks = data["payload"]["checks"]
    assert [c["id"] for c in checks] == verify.suite_ids()
    return {c["id"]: c["detail"].get("error", "") for c in checks if c["status"] != "PASS"}


def test_a_check_that_raises_fails_alone(capsys, monkeypatch, refill):
    # index 1 is in the omega set exactly on even sizes; without it, _pi's
    # exponent guard trips inside the checks that reach it, which fail with
    # the error while every other check still runs and passes
    real = dg._richardson_in_omega
    monkeypatch.setattr(dg, "_richardson_in_omega", lambda row, start, above, bit, mu: (
        above is not None and real(row, start, above, bit, mu)))
    refill(dg._sigma_b_by_signature, *TOTALS)
    failed = _failed_checks(capsys)
    assert set(failed) == PI_EVEN_CHECKS
    for error in failed.values():
        assert error.startswith("ArithmeticError: negative character-count exponent")
    # the census is an internal inconsistency too: exit 1, a message, no report
    code, out, err = run_cli(capsys, "census", "bdi", "--p", "4", "--q", "4", "--central",
                             "k0", "--check")
    assert (code, out) == (1, "")
    assert err.startswith("sheaf-census: negative character-count exponent for ")
    assert "Traceback" not in err


# the checks that reach hecke_count's D-side halving
HECKE_D_CHECKS = {"number1-k0", "numbert-closure", "fn-split-D", "coro-cuspidal-k0",
                  "coro-cuspidal-k1"}


def test_the_hecke_halving_guard_fails_its_checks_alone(capsys, monkeypatch, refill):
    # a two-sided count made odd only where hecke_count halves it: the ind-D
    # variants, which read the count whole, stay right, so exactly the checks
    # that reach the halving fail, with the guard's error
    real = census._mixed_distinct_count
    monkeypatch.setattr(census, "_mixed_distinct_count", lambda n: real(n) + (
        sys._getframe(1).f_code.co_name == "hecke_count"))
    refill(census.hecke_count, census.theta_k0_count, *TOTALS)
    failed = _failed_checks(capsys)
    assert set(failed) == HECKE_D_CHECKS
    for error in failed.values():
        assert error.startswith("ArithmeticError: odd two-sided count 3 at n=1")


def test_the_integrality_guard_fails_its_checks_alone(capsys, monkeypatch):
    # a kappa1 base series off by 1/2 in every coefficient trips _as_count in
    # the closed kappa1 formula, and only the checks that read it fail
    real = census._k1_base
    monkeypatch.setattr(census, "_k1_base", lambda order: real(order) + FormalSeries.from_values(
        [Fraction(1, 2)] * (order + 1)))
    failed = _failed_checks(capsys)
    assert set(failed) == {"number1-k1", "kappa1-orbit-sum"}
    for error in failed.values():
        assert error.startswith("ArithmeticError: non-integer count ")


def test_a_class_3_diagram_of_odd_size_is_an_internal_error(capsys, monkeypatch, refill):
    # _kappa1_data's guard exits 1 like the others; the mutant class reaches
    # orbits through the sigma listing, which reads _class_of as it is built
    real = dg._class_of
    monkeypatch.setattr(dg, "_class_of", lambda a, b, repeated: (
        dg.DiagramClass(a, b, 3, 0) if a + b == 1 else real(a, b, repeated)))
    refill(dg._sigma_by_signature)
    code, out, err = run_cli(capsys, "orbits", "bdi", "--p", "1", "--q", "0")
    assert (code, out) == (1, "")
    assert err == "sheaf-census: class 3 cannot occur for odd total size\n"


_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
# json renders non-string keys as strings: 1 as "1", True as "true", None as "null"
_JSON = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=4)
                     | st.dictionaries(_SCALARS, inner, max_size=4), max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(_JSON)
def test_json_writer_matches_json_dumps(obj):
    assert "".join(_json_pieces(obj)) == json.dumps(obj, indent=2)


def row_chunks(rows, depth: int):
    """The JSON text of rows, nonempty dicts of scalars, as items at depth, one
    encode() per _CHUNK rows: the oracle for the streamed rows. Its raw newlines
    are all separators (strings escape theirs), so only its "},{" joins need
    indenting."""
    inner, deeper = "  " * depth, "  " * (depth + 1)
    encode = json.JSONEncoder(separators=(",\n" + deeper, ": ")).encode
    rows = list(rows)
    for start in range(0, len(rows), _CHUNK):
        body = encode(rows[start:start + _CHUNK])[2:-2].replace(
            "},\n" + deeper + "{", f"\n{inner}}},\n{inner}{{\n{deeper}")
        yield f"{{\n{deeper}{body}\n{inner}}}"


# the text a row chunk re-indents: braces, the join it replaces, quotes,
# newlines and non-ASCII
_TRICKY = st.lists(st.sampled_from(["}", "{", "},\n  {", "},\n    {", '"', "\n", "é", "→"])
                   | st.text(max_size=3), max_size=4).map("".join)
_FLAT = st.dictionaries(_TRICKY | st.integers() | st.none(),
                        st.none() | st.booleans() | st.integers() | st.floats() | _TRICKY,
                        min_size=1, max_size=4)
# each puts its argument one indent deeper, beside siblings
_WRAPS = st.sampled_from([lambda x: [x], lambda x: [0, x, "}"], lambda x: {"rows": x},
                          lambda x: {"a": "{", "rows": x, "z": [{"b": 1}, {}]}])


@settings(max_examples=300, deadline=None)
@given(st.lists(_FLAT, max_size=5), st.none() | st.lists(_FLAT, max_size=5),
       st.lists(_WRAPS, max_size=3))
def test_json_writer_matches_json_dumps_on_row_lists(rows, more, wraps):
    # streamed lists of flat nonempty dicts, maybe empty, their items at depths
    # 1 to 4, and a second stream beside them (census --central both writes two)
    def build(stream):
        obj = stream(rows)
        for wrap in wraps:
            obj = wrap(obj)
        return obj if more is None else [obj, stream(more)]
    assert "".join(_json_pieces(build(lambda r: partial(row_chunks, r)))) == \
        json.dumps(build(list), indent=2)


@settings(max_examples=300, deadline=None)
@given(_FLAT, st.integers(0, 4))
def test_row_template_matches_json_dumps(row, depth):
    # every other value cut out as a hole, its JSON text put back: the row's text
    assume("\0" not in row.values())
    holes = list(row)[::2]
    template = {**row, **dict.fromkeys(holes, "\0")}
    if "\0" in row:  # a "\0" key renders as a hole does: refused, not cut there
        with pytest.raises(ValueError, match="key renders as a hole"):
            _row_template(template, depth)
        return
    pieces = _row_template(template, depth)
    assert len(pieces) == len(holes) + 1
    filled = pieces[0] + "".join(json.dumps(row[key]) + piece
                                 for key, piece in zip(holes, pieces[1:]))
    assert filled == next(row_chunks([row], depth))


def test_json_writer_refuses_what_json_dumps_refuses():
    rows = partial(row_chunks, [{"a": 1}])
    for obj in (Fraction(1, 2), {"rows": rows, "x": [Fraction(1, 2)]}):
        with pytest.raises(TypeError, match="Fraction is not JSON serializable"):
            "".join(_json_pieces(obj))
    # a "\0" string renders as a stream's hole does: refused, not spliced
    assert "".join(_json_pieces({"x": "\0"})) == json.dumps({"x": "\0"}, indent=2)
    for obj in ({"x": "\0", "rows": rows}, {"rows": rows, "\0": 1}):
        with pytest.raises(ValueError, match="2 holes for 1 streamed lists"):
            "".join(_json_pieces(obj))


def orbit_rows(family: str, size, richardson: bool = False, orbit_class=None) -> list[dict]:
    """The orbit rows as dicts, one per (diagram, delta), built from the
    listings and the groups data: the oracle for the pieced orbit JSON."""
    if family == "diii":
        members = dg.enum_lambda_b(size) if richardson else dg.enum_lambda(size)
        return [{"diagram": dg.format_diagram(d), "delta": None, "a": None, "b": None, "r": 0,
                 "class": "lambda", "k0_irreps": 1, "k1_irreps": groups.kappa1_data_DIII(d).count}
                for d in members]
    p, q = size
    listing = dg.sigma_b_listing if richardson else dg.sigma_listing
    return [{"diagram": dg.format_diagram(dg.SignedYoungDiagram(rows)), "delta": delta, "a": cls.a,
             "b": cls.b, "r": cls.r, "class": f"sigma{cls.index}", "k0_irreps": 2 ** cls.r,
             "k1_irreps": groups._kappa1_data(cls, p, q).count}
            for rows, cls in zip(*listing(p, q)[:2]) if orbit_class in (None, f"sigma{cls.index}")
            for delta in ((None,) if richardson else cls.deltas)]


def orbit_cases():
    """(argv, orbit_rows arguments) for every bdi pair with p+q <= 12, bare,
    Richardson and by class, and every diii n <= 10, bare and Richardson."""
    for N in range(13):
        for p in range(N + 1):
            argv = ["orbits", "bdi", "--p", str(p), "--q", str(N - p)]
            yield argv, ("bdi", (p, N - p))
            yield argv + ["--richardson"], ("bdi", (p, N - p), True)
            for cls in ("sigma1", "sigma2", "sigma3"):
                yield argv + ["--class", cls], ("bdi", (p, N - p), False, cls)
    for n in range(11):
        yield ["orbits", "diii", "--n", str(n)], ("diii", n)
        yield ["orbits", "diii", "--n", str(n), "--richardson"], ("diii", n, True)


def test_orbits_json_matches_the_row_dict_oracle(capsys):
    empty = []
    for argv, oracle in orbit_cases():
        rows = orbit_rows(*oracle)
        envelope = {"tool": "sheaf-census", "version": __version__,
                    "command": " ".join(["sheaf-census", *argv]),
                    "payload": {"orbits": rows}, "warnings": []}
        assert run_cli(capsys, *argv)[:2] == (0, json.dumps(envelope, indent=2) + "\n"), argv
        if not rows:
            empty.append(" ".join(argv[1:]))
    assert {"bdi --p 1 --q 0 --class sigma3", "bdi --p 0 --q 0 --richardson"} <= set(empty)


class _Writes(io.StringIO):
    """A stdout that records the size of each write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


def test_listing_json_is_written_in_pieces(monkeypatch):
    # the JSON leaves in runs of rows or strata: no write holds a quarter of it
    orbits = ["orbits", "bdi", "--p", "16", "--q", "14"]
    reports = census.census_bdi_k0(15, 15), census.census_bdi_k1(15, 15)
    cases = [(orbits, {"orbits": orbit_rows("bdi", (16, 14))}),
             (["census", "bdi", "--p", "15", "--q", "15"],
              {"reports": [r.to_json_dict() for r in reports]})]
    for argv, payload in cases:
        stdout = _Writes()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(list(argv)) == 0
        envelope = {"tool": "sheaf-census", "version": __version__,
                    "command": " ".join(["sheaf-census", *argv]), "payload": payload,
                    "warnings": []}
        out = stdout.getvalue()
        assert out == json.dumps(envelope, indent=2) + "\n", argv
        assert max(stdout.sizes) <= len(out) // 4, argv


def test_listed_orbits_are_not_formatted_again(capsys, monkeypatch):
    # the sigma, sigma_b and Lambda_b tables carry each diagram's text
    bdi, diii = ["orbits", "bdi", "--p", "10", "--q", "10"], ["orbits", "diii", "--n", "12"]
    for argv in (bdi, [*bdi, "--richardson"], [*diii, "--richardson"]):
        assert run_cli(capsys, *argv)[0] == 0  # warm
        calls = []
        for module in (dg, census):
            real = module.format_diagram
            monkeypatch.setattr(module, "format_diagram",
                                lambda d, real=real: calls.append(d) or real(d))
        code, out, _ = run_cli(capsys, *argv)
        monkeypatch.undo()
        assert (code, calls) == (0, []), argv
        assert len(json.loads(out)["payload"]["orbits"]) >= 60


def test_orbits_and_census_json_match_json_dumps(capsys):
    census_cases = [["census", "bdi", "--check", "--p", str(p), "--q", str(N - p)]
                    for N in range(13) for p in range(N + 1)]
    census_cases += [["census", "diii", "--check", "--n", str(n)] for n in range(13)]
    census_cases += [[*argv, "--subset", subset] for argv in census_cases
                     for subset in ("cuspidal", "nilpotent", "full")]
    for argv in [argv for argv, _ in orbit_cases()] + census_cases:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv


def stratum_reports():
    """Both reports of every bdi pair with p+q <= 16 and of every diii n <= 12,
    each cut to each sub-census."""
    for N in range(17):
        for p in range(N + 1):
            for report in (census.census_bdi_k0(p, N - p), census.census_bdi_k1(p, N - p)):
                yield from (census.subset_report(report, subset) for subset in SUBSETS)
    for n in range(13):
        for report in census.census_diii(n):
            yield from (census.subset_report(report, subset) for subset in SUBSETS)


def test_census_strata_stream_matches_the_row_dict_oracle():
    # the row dicts of to_json_dict() through row_chunks are the oracle for
    # the templated strata stream: the same pieces at each depth
    keys = ["support", "delta", "m", "k", "mu", "family", "count"]
    assert list(census.ROW_KEYS) == keys
    empty = 0
    for report in stratum_reports():
        rows = report.to_json_dict()["strata"]
        assert all(list(row) == keys for row in rows)
        for depth in (1, 4):
            assert list(cli._strata_chunks(report, depth)) == \
                list(row_chunks(rows, depth)), (report.pair, report.central, depth)
        empty += not rows
    assert empty > 0


def _census_commands():
    """The census command of every bdi pair with p+q <= 20 (both centrals) and
    of every diii n <= 14, each with the reports it builds."""
    for N in range(21):
        for p in range(N + 1):
            yield (["census", "bdi", "--p", str(p), "--q", str(N - p)],
                   [census.census_bdi_k0(p, N - p), census.census_bdi_k1(p, N - p)])
    for n in range(15):
        yield ["census", "diii", "--n", str(n)], list(census.census_diii(n))


def _entry_rows(report) -> list[tuple]:
    """Each orbit's row of the report, in ROW_KEYS' order, off its checked
    entries: every diagram built by diagram() and formatted anew."""
    return [(dg.format_diagram(e.support.diagram), e.support.delta, e.m, e.k,
             dg.format_diagram(e.mu), e.family, e.count) for e in report.entries]


def test_census_rows_match_the_entry_and_record_oracles(capsys):
    # every census row, in every subset and all three formats, against the
    # rows of the checked entries; those against the per-stratum records' rows
    # with each support merged token by token, and the total against their sum
    headers = ["central", *census.ROW_KEYS]
    for command, built in _census_commands():
        for subset in SUBSETS:
            argv = [*command, "--subset", subset]
            reports = [census.subset_report(r, subset) for r in built]
            expected = [_entry_rows(r) for r in reports]
            for report, made, rows in zip(reports, built, expected):
                keep = census._subset_rule(made, subset)[0]
                records = [record for record in oracles.census_records(made.pair, made.central)
                           if keep(record[0], record[1], record[5])]
                assert oracles.record_rows(records) == rows == list(report.rows()), argv
                assert report.total == sum(row[-1] for row in rows), argv
                # one orbit count per stratum, 0 for a stratum the sub-census cut
                assert [n for n in report.orbit_counts() if n] == \
                    [len(record[3]) for record in records], argv
            code, out, _ = run_cli(capsys, *argv)
            data = json.loads(out)
            for listed, rows in zip(data["payload"]["reports"], expected):
                listed["strata"] = [dict(zip(census.ROW_KEYS, row)) for row in rows]
                listed["total"] = sum(row[-1] for row in rows)
            assert (code, out) == (0, json.dumps(data, indent=2) + "\n"), argv
            table = [[r.central, *row] for r, rows in zip(reports, expected)
                     for row in [*rows, ("TOTAL", None, None, None, None, subset,
                                         sum(row[-1] for row in rows))]]
            assert run_cli(capsys, *argv, "--format", "csv")[:2] == \
                (0, cli._render_csv(headers, table)), argv
            title = " ".join(["sheaf-census", *argv, "--format", "table"])
            warnings = "".join(f"\nwarning: {w}" for w in sorted({w for r in reports
                                                                  for w in r.warnings}))
            assert run_cli(capsys, *argv, "--format", "table")[:2] == \
                (0, cli._render_table(headers, table, title) + warnings + "\n"), argv


def test_a_census_total_is_summed_from_its_printed_rows(capsys, monkeypatch):
    # the count-only totals that verify reads are not the census's: with them
    # raising, a census still renders and passes --check, each total the sum
    # of its printed rows
    def raising(*args):
        raise AssertionError("a count-only total was read")
    for module, name in ((census, "census_k0_total"), (census, "richardson_pi_sums"),
                         (dg, "richardson_pi_sums")):
        monkeypatch.setattr(module, name, raising)
    for argv in (["census", "bdi", "--p", "9", "--q", "7", "--check"],
                 ["census", "bdi", "--p", "8", "--q", "8", "--subset", "nilpotent", "--check"]):
        code, data, _ = run_json(capsys, *argv)
        assert (code, data["payload"]["check"]["passed"]) == (0, True), argv
        totals = [report["total"] for report in data["payload"]["reports"]]
        assert totals == [sum(row["count"] for row in report["strata"])
                          for report in data["payload"]["reports"]], argv
        assert totals[0] > 0, argv


def _template_calls(capsys, monkeypatch, *argv) -> int:
    """The number of row templates, one encode() each, that one command
    renders; json.dumps renders the envelope around the rows."""
    calls = []
    template = cli._row_template
    monkeypatch.setattr(cli, "_row_template", lambda *args: calls.append(args) or template(*args))
    assert run_cli(capsys, *argv)[0] == 0
    monkeypatch.undo()
    return len(calls)


def test_row_lists_take_one_encode_each(capsys, monkeypatch):
    # each streamed report's strata fill one row template: one encode() per
    # report, for (6, 6) as for (3, 2), and for a report with no stratum
    census_check = ["census", "bdi", "--p", "6", "--q", "6", "--check"]
    small = census_check[:2] + ["--p", "3", "--q", "2"] + census_check[6:]
    assert _template_calls(capsys, monkeypatch, *census_check) == \
        _template_calls(capsys, monkeypatch, *small) == 2  # --central both
    assert _template_calls(capsys, monkeypatch, "census", "bdi", "--p", "6", "--q", "3",
                           "--central", "k0", "--subset", "cuspidal") == 1
    # orbit rows are joined from pieces written once for each distinct
    # (deltas, cells) of a diagram: one encode() each, however many rows share
    # them, and none for the envelope
    assert _template_calls(capsys, monkeypatch, "orbits", "bdi", "--p", "1", "--q", "0",
                           "--class", "sigma3") == 0  # lists no row
    for argv, oracle in ((["orbits", "bdi", "--p", "15", "--q", "15"], ("bdi", (15, 15))),
                         (["orbits", "bdi", "--p", "16", "--q", "15", "--richardson"],
                          ("bdi", (16, 15), True)),
                         (["orbits", "diii", "--n", "10"], ("diii", 10)),
                         (["orbits", "diii", "--n", "10", "--richardson"], ("diii", 10, True))):
        rows = orbit_rows(*oracle)  # 5,074 at (15, 15), from 25 pieces
        pieces = {(tuple(row["delta"] for row in same), tuple(same[0].values())[2:])
                  for same in (list(g) for _, g in groupby(rows, lambda row: row["diagram"]))}
        assert len(pieces) < 40 < len(rows), argv
        assert _template_calls(capsys, monkeypatch, *argv) == len(pieces), argv
