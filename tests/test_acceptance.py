"""Acceptance criteria.

Each test covers one numbered criterion, at exact (zero-tolerance) integer or
rational equality, and prints a single PASS/FAIL line. Run with
``pytest tests/test_acceptance.py -v -s`` to see the lines as they complete.
"""
import json
import time
from contextlib import contextmanager
from fractions import Fraction

import enum_oracles as oracles
from sheaf_census import census as cs
from sheaf_census import diagrams as dg
from sheaf_census import groups as gp
from sheaf_census import partitions as pt
from sheaf_census import verify
from sheaf_census.cli import main as cli_main


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS")


def test_01_anchor_values():
    with criterion(1, "anchor values by both paths"):
        start = time.monotonic()
        assert cs.census_bdi_k0(3, 2).total == 11
        assert cs.count_formula_k0(3, 2) == 11
        assert cs.census_bdi_k1(3, 2).total == 6
        assert cs.count_formula_k1(3, 2) == 6
        assert time.monotonic() - start < 1.0


def test_02_two_path_sweep():
    with criterion(2, "two-path equality, 5 <= p+q <= 24"):
        start = time.monotonic()
        cells = 0
        for total in range(5, 25):
            for p in range(total + 1):
                q = total - p
                assert cs.census_bdi_k0(p, q).total == cs.count_formula_k0(p, q), (p, q)
                assert cs.census_bdi_k1(p, q).total == cs.count_formula_k1(p, q), (p, q)
                cells += 1
        assert cells == sum(N + 1 for N in range(5, 25))
        assert time.monotonic() - start < 60.0


def test_03_three_path_kappa1():
    with criterion(3, "component-group loop, p+q <= 20"):
        for total in range(21):
            for p in range(total + 1):
                q = total - p
                assert cs.kappa1_orbit_sum(p, q) == cs.count_formula_k1(p, q), (p, q)


def test_04_closure_T():
    with criterion(4, "aggregated totals T'_N = T0_N, 5 <= N <= 24"):
        for N in range(5, 25):
            t0, tprime = cs.aggregate_T(N)
            assert t0 == tprime, N


def test_05_series_battery():
    with criterion(5, "series identity battery at order 40"):
        start = time.monotonic()
        ids = ["bb-odd", "bb-even", "tb1", "b2-odd", "b2-even",
               "b2-weighted-oracle", "lemma-n1", "lemma-n1-2var",
               "fn1B", "fn1D", "fn2B", "fn-split-D", "fn-ind2-D",
               "eqn-oeterms", "oe-split", "psi1-a", "psi1-b", "psi1-c",
               "jacobi-t", "k1-series-rewrite", "euler-smoke"]
        results = verify.run_suite(ids, order=40, sweep=24)
        for r in results:
            assert r.status == "PASS", (r.id, r.detail)
        # hand-checked anchor coefficients
        assert sum(cs.b_tilde(p, 3 - p) for p in range(4)) == 4
        assert sum(cs.b_tilde(p, 5 - p) for p in range(6)) == 10
        assert cs.b_tilde(3, 2) == 2
        assert sum(cs.richardson_pi_sums(p, 1 - p)[1] for p in range(2)) == 2
        assert sum(cs.richardson_pi_sums(p, 2 - p)[1] for p in range(3)) == 2
        assert cs.theta_k0_count("ind1-B", 2) == 5
        assert time.monotonic() - start < 120.0


def test_06_diii():
    with criterion(6, "equal-signature censuses and bijection, n <= 20"):
        k0, k1 = cs.census_diii(3)
        assert k0.total == 4
        _, k1 = cs.census_diii(4)
        assert k1.total == 5
        for n in range(21):
            k0, k1 = cs.census_diii(n)
            assert k0.total == cs.diii_closure_total(n), n
            if n % 2 == 0 and n >= 2:
                assert k1.total == pt.count_bipartitions(n // 2), n
                all_even = [d for d in dg.enum_lambda(n) if d.all_parts_even()]
                images = {(dg.diii_kappa1_bijection(d).first.parts,
                           dg.diii_kappa1_bijection(d).second.parts)
                          for d in all_even}
                assert len(images) == len(all_even) == pt.count_bipartitions(n // 2)
            else:
                assert k1.total == 0, n


def test_07_cuspidal_and_nilpotent():
    with criterion(7, "cuspidal and nilpotent-support counts, p+q <= 24"):
        results = verify.run_suite(
            ["coro-cuspidal-k0", "coro-cuspidal-k1",
             "nilcoro-k0-odd", "nilcoro-k0-even", "nilcoro-k1"],
            order=40, sweep=24)
        for r in results:
            assert r.status == "PASS", (r.id, r.detail)
        assert cs.nilpotent_support_counts(3, 2)[0] == 4
        assert cs.cuspidal_counts(4, 2)[1] == 4
        # the (3,1) staircase pair: all three routes give eta(0,2), whose
        # value under the defining congruence (m = t/2 + 1 mod 2) is 1
        assert cs.nilpotent_support_counts(3, 1)[1] == gp.eta(0, 2)
        assert cs.census_bdi_k1(3, 1).total == cs.count_formula_k1(3, 1) \
            == gp.eta(0, 2) == 1


def test_08_balanced_distinct_odd():
    with criterion(8, "balanced distinct-odd counts, N <= 60, |t| <= 5"):
        for N in range(61):
            for t in range(-5, 6):
                expected = pt.count_partitions(Fraction(N - (2 * t * t - t), 4))
                assert len(pt.enum_distinct_odd_balanced(N, t)) == expected, (N, t)


def test_09_property_suites(capsys):
    with criterion(9, "property suites and CLI round-trip"):
        for p in range(17):
            for q in range(17 - p):
                swapped = {oracles.sign_swap(d) for d in dg.enum_sigma(p, q)}
                assert swapped == set(dg.enum_sigma(q, p))
                swapped_b = {oracles.sign_swap(d) for d in dg.enum_sigma_b(p, q)}
                assert swapped_b == set(dg.enum_sigma_b(q, p))
                for d in dg.enum_sigma(p, q):
                    assert d.signature() == (p, q)
                    data = gp.kappa1_data_BDI(d)
                    if data.count:
                        assert data.count * data.dim ** 2 == 2 ** dg.classify(d).r
        for p, q in ((3, 2), (4, 4), (5, 2), (6, 1), (2, 2), (7, 3)):
            code = cli_main(["census", "bdi", "--p", str(p), "--q", str(q),
                             "--central", "both"])
            out = capsys.readouterr().out
            assert code == 0
            for report in json.loads(out)["payload"]["reports"]:
                for s in report["strata"]:
                    for key in ("support", "mu"):
                        parsed = dg.parse_diagram(s[key])
                        assert dg.format_diagram(parsed) == s[key]
                assert sum(s["count"] for s in report["strata"]) == report["total"]
        for n in (3, 4, 6, 8):
            code = cli_main(["census", "diii", "--n", str(n), "--central", "both"])
            out = capsys.readouterr().out
            assert code == 0
            for report in json.loads(out)["payload"]["reports"]:
                for s in report["strata"]:
                    assert dg.format_diagram(dg.parse_diagram(s["support"])) \
                        == s["support"]
