"""Census enumerators against the closed formulas and hand-checked anchors."""
import itertools
import json

import pytest

import enum_oracles as oracles
from sheaf_census import census as cs
from sheaf_census import diagrams as dg
from sheaf_census import groups as gp
from sheaf_census import partitions
from sheaf_census.partitions import count_bipartitions, count_partitions
from sheaf_census.verify import run_suite


def test_hecke_counts():
    assert cs.hecke_count("B", 2) == 2
    assert [cs.hecke_count("B", n) for n in range(5)] == [1, 1, 2, 3, 4]
    assert cs.hecke_count("D", 0) == 1
    assert [cs.hecke_count("D", n) for n in range(6)] == [1, 1, 1, 2, 3, 4]
    for n in (3, -1):  # the family is checked before the size
        with pytest.raises(ValueError, match="unknown Hecke family 'E'"):
            cs.hecke_count("E", n)


def test_theta_k0_examples():
    assert cs.theta_k0_count("ind1-B", 2) == 5
    assert cs.theta_k0_count("split-B", 0) == 1
    assert cs.theta_k0_count("split-B", 2) == 4
    # the class-2 induced family coincides with the split family on the B side
    for n in range(12):
        assert cs.theta_k0_count("ind2-B", n) == cs.theta_k0_count("split-B", n)
    assert cs.theta_k0_count("split-D", 2) == 5
    assert cs.theta_k0_count("ind2-D", 2) == 7
    assert cs.theta_k0_count("ind1-D", 1) == 4


def _split_d_by_cells(n):
    """split-D summed cell by cell: the k=0 cell singly, every other cell
    doubled, the middle cell's diagonal quadrupled."""
    if n == 0:
        return 1
    hD = lambda k: cs.hecke_count("D", k)
    total = hD(n)
    for m in range(1, (n + 1) // 2):
        total += 2 * hD(m) * hD(n - m)
    if n % 2 == 0:
        h = hD(n // 2)
        total += 2 * (h * (h - 1) // 2) + 4 * h
    return total


def test_split_d_is_doubled_paired_count():
    for n in range(60):
        assert cs.theta_k0_count("split-D", n) == _split_d_by_cells(n), n


def test_theta_k1_examples():
    assert cs.theta_k1_count(3, 1) == 4
    assert cs.theta_k1_count(2, 1) == 2
    assert cs.theta_k1_count(0, 2) == 1
    assert cs.theta_k1_count(0, 4) == 4
    assert cs.theta_k1_count(1, 2) == 4


def test_census_anchor_values():
    assert cs.census_bdi_k0(3, 2).total == 11
    assert cs.census_bdi_k1(3, 2).total == 6
    assert cs.count_formula_k0(3, 2) == 11
    assert cs.count_formula_k1(3, 2) == 6
    assert cs.census_bdi_k0(2, 3).total == 11  # sign-swap symmetry
    assert cs.census_bdi_k1(4, 1).total == 0
    assert cs.census_bdi_k1(6, 2).total == 0


def test_census_k1_strata_structure():
    report = cs.census_bdi_k1(3, 2)
    by_mk = {}
    for e in report.entries:
        by_mk.setdefault((e.m, e.k), 0)
        by_mk[e.m, e.k] += e.count
    assert by_mk == {(2, 0): 2, (0, 1): 4}


def test_census_low_rank_warning():
    assert cs.census_bdi_k0(2, 1).warnings
    assert not cs.census_bdi_k0(3, 2).warnings


def test_two_path_small_sweep():
    for total in range(15):
        for p in range(total + 1):
            q = total - p
            assert cs.census_bdi_k0(p, q).total == cs.count_formula_k0(p, q), (p, q)
            assert cs.census_bdi_k1(p, q).total == cs.count_formula_k1(p, q), (p, q)


def test_third_paths_small_sweep():
    for total in range(13):
        for p in range(total + 1):
            q = total - p
            assert cs.kappa0_orbit_sum(p, q) == cs.count_formula_k0(p, q)
            assert cs.kappa1_orbit_sum(p, q) == cs.count_formula_k1(p, q)


def test_formula_orientation_swap():
    assert cs.count_formula_k0(2, 5) == cs.count_formula_k0(5, 2)
    assert cs.count_formula_k1(2, 5) == cs.count_formula_k1(5, 2)


def test_census_diii():
    k0, k1 = cs.census_diii(3)
    assert (k0.total, k1.total) == (4, 0)
    k0, k1 = cs.census_diii(4)
    assert k1.total == count_bipartitions(2) == 5
    for n in range(13):
        k0, _ = cs.census_diii(n)
        assert k0.total == cs.diii_closure_total(n)
        assert k0.total == sum(count_partitions(k)
                               * (len(dg.enum_lambda_b(n - 2 * k)) if n - 2 * k else 1)
                               for k in range(n // 2 + 1))


def test_cuspidal_counts():
    assert cs.cuspidal_counts(3, 2)[0] == 4
    assert cs.cuspidal_counts(4, 2) == (0, 4)
    assert cs.cuspidal_counts(6, 1)[1] == 0
    assert cs.cuspidal_counts(2, 2)[0] == cs.theta_k0_count("split-D", 2) == 5
    # cuspidal sheaves are a subset of the census on every pair
    for total in range(12):
        for p in range(total + 1):
            q = total - p
            c0, c1 = cs.cuspidal_counts(p, q)
            assert c0 <= cs.census_bdi_k0(p, q).total
            assert c1 <= cs.census_bdi_k1(p, q).total


def test_nilpotent_counts():
    assert cs.nilpotent_support_counts(3, 2)[0] == 4
    # the staircase pair for t=2 carries eta(0,2) = 1 nontrivial sheaf; the
    # same value comes out of the census and the closed formula
    assert cs.nilpotent_support_counts(3, 1)[1] == 1
    assert cs.census_bdi_k1(3, 1).total == cs.count_formula_k1(3, 1) == 1
    assert cs.nilpotent_support_counts(6, 2)[1] == 0
    # both orbits over each class-2 diagram carry their characters
    assert cs.nilpotent_support_counts(1, 0)[0] == 2


def test_aggregate_T():
    for N in (5, 6, 7):
        t0, tprime = cs.aggregate_T(N)
        assert t0 == tprime


def test_report_json_shape():
    report = cs.census_bdi_k0(3, 2)
    data = report.to_json_dict()
    assert data["pair"] == {"type": "bdi", "p": 3, "q": 2}
    assert data["central"] == "k0"
    assert data["total"] == 11
    assert sum(s["count"] for s in data["strata"]) == 11
    for s in data["strata"]:
        parsed = dg.parse_diagram(s["support"])
        assert dg.format_diagram(parsed) == s["support"]
    json.dumps(data)  # serializable


def test_stratum_delta_structure():
    report = cs.census_bdi_k0(3, 2)
    for e in report.entries:
        mult = dg.classify(e.support.diagram).orbits
        assert (e.support.delta is not None) == (mult > 1)
    deltas = [e.support.delta for e in report.entries if e.m == 0 and e.k == 0]
    assert deltas == ["I", "II", "I", "II"]


def test_support_join_invariant():
    for report in (cs.census_bdi_k0(4, 3), cs.census_bdi_k1(5, 1), cs.census_diii(6)[0]):
        for e in report.entries:
            base = dg.diagram((1, e.m, e.m), (2, e.k, e.k))
            rebuilt = dg.diagram(*base.rows, *e.mu.rows)
            assert rebuilt == e.support.diagram


def test_bdi_censuses_match_hand_branched_oracles():
    for N in range(19):
        for p in range(N + 1):
            q = N - p
            assert (cs.census_bdi_k0(p, q).to_json_dict()
                    == oracles.census_bdi_k0(p, q).to_json_dict()), (p, q)
            assert (cs.census_bdi_k1(p, q).to_json_dict()
                    == oracles.census_bdi_k1(p, q).to_json_dict()), (p, q)


def test_subset_report_totals():
    # at p + q <= 1 the split stratum is the whole census and carries 4 or 2
    # orbits, which the expected cuspidal and full totals count too; the
    # empty diii pair carries no k1 stratum, and its expected k1 totals are 0
    reports = [make(p, q) for p, q in itertools.product(range(13), repeat=2)
               for make in (cs.census_bdi_k0, cs.census_bdi_k1)]
    reports += [report for n in range(15) for report in cs.census_diii(n)]
    for report in reports:
        for subset in cs.SUBSETS:
            filtered = cs.subset_report(report, subset)
            assert filtered.total == cs.expected_subset_total(report, subset), \
                (report.pair, report.central, subset)


def test_subset_report_diii():
    k0, k1 = cs.census_diii(6)
    assert cs.subset_report(k0, "nilpotent").total == len(dg.enum_lambda_b(6))
    assert cs.subset_report(k0, "full").total == count_partitions(3)
    assert cs.subset_report(k0, "cuspidal").total == 0
    assert cs.subset_report(k1, "full").total == k1.total
    assert cs.subset_report(k1, "nilpotent").total == 0


@pytest.mark.parametrize("report", [cs.census_bdi_k0(3, 2), cs.census_bdi_k1(3, 2),
                                    cs.census_diii(4)[1]], ids=["bdi-k0", "bdi-k1", "diii-k1"])
@pytest.mark.parametrize("read", [cs.subset_report, cs.expected_subset_total])
def test_an_unknown_subset_is_refused(read, report):
    with pytest.raises(ValueError, match="unknown subset 'bogus'"):
        read(report, "bogus")


def test_orbit_label_validation():
    with pytest.raises(ValueError):
        cs.OrbitLabel(dg.parse_diagram("1+^3 1-^2"), "I")  # single orbit
    with pytest.raises(ValueError):
        cs.OrbitLabel(dg.parse_diagram("5+"), "III")  # only two orbits
    cs.OrbitLabel(dg.parse_diagram("5+"), "II")


def test_cross_route_sweep_25_to_40():
    # beyond the acceptance sweep (p+q <= 24): census, closed formula and
    # component-group orbit sum agree for every pair with 25 <= p+q <= 40;
    # past 32 the k0 census is its count-only total, not the full report
    for total in range(25, 41):
        for p in range(total + 1):
            q = total - p
            k0 = cs.census_bdi_k0(p, q).total if total <= 32 else cs.census_k0_total(p, q)
            assert k0 == cs.count_formula_k0(p, q) == cs.kappa0_orbit_sum(p, q), (p, q)
            assert cs.census_bdi_k1(p, q).total == cs.count_formula_k1(p, q), (p, q)


def _count_calls(monkeypatch, name, *modules):
    """Wrap the function name, looked up in each of modules, with one shared
    counter; returns the list of argument tuples it records."""
    calls = []
    real = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def _count_classify(monkeypatch):
    # every module that classifies looks the name up in diagrams or groups
    return _count_calls(monkeypatch, "classify", dg, gp, cs)


ORBIT_SUMS = (cs.kappa0_orbit_sum, cs.kappa1_orbit_sum, cs.sigma23_r_sum)


def _count_listing(monkeypatch):
    """Count the diagrams built and the partition walks started."""
    return (_count_calls(monkeypatch, "_unchecked", dg, cs),
            _count_calls(monkeypatch, "_gen_partitions", dg, partitions))


def test_orbit_sums_classify_no_diagram(monkeypatch):
    # the orbit sums read the class-count DP: no diagram to classify
    dg._class_count_block.cache_clear()
    calls = _count_classify(monkeypatch)
    built, walks = _count_listing(monkeypatch)
    p, q = 7, 6
    first = tuple(orbit_sum(p, q) for orbit_sum in ORBIT_SUMS)
    for _ in range(3):
        assert tuple(orbit_sum(p, q) for orbit_sum in ORBIT_SUMS) == first
    assert calls == built == walks == []


def test_sigma_classes_build_no_diagram(monkeypatch):
    dg._class_count_block.cache_clear()
    dg._sigma_by_signature.cache_clear()
    built, walks = _count_listing(monkeypatch)
    counts = dg.sigma_class_counts(14, 14)
    assert all(orbit_sum(14, 14) > 0 for orbit_sum in ORBIT_SUMS)
    assert built == walks == []
    assert sum(n for _, n in counts) == len(dg.enum_sigma(14, 14)) > 0


def test_orbit_sums_match_the_listing_oracles():
    for total in range(23):
        for p in range(total + 1):
            q = total - p
            for orbit_sum in ORBIT_SUMS:
                oracle = getattr(oracles, orbit_sum.__name__)
                assert orbit_sum(p, q) == oracle(p, q), (orbit_sum.__name__, p, q)


@pytest.mark.parametrize("total", [40, 50, 60, 70])
def test_orbit_sums_agree_with_the_formulas_deep(total):
    # one DP per size reaches where listing sigma would take minutes
    for p in range(total + 1):
        q = total - p
        assert cs.kappa0_orbit_sum(p, q) == cs.count_formula_k0(p, q), (p, q)
        assert cs.kappa1_orbit_sum(p, q) == cs.count_formula_k1(p, q), (p, q)


# every public per-pair function of census, each refusing a negative entry
PER_PAIR = (cs.census_bdi_k0, cs.census_bdi_k1, cs.census_k0_total, cs.count_formula_k0,
            cs.count_formula_k1, cs.cuspidal_counts, cs.nilpotent_support_counts,
            cs.richardson_pi_sums, cs.b_tilde, cs.kappa0_orbit_sum,
            cs.kappa1_orbit_sum, cs.sigma23_r_sum)


@pytest.mark.parametrize("fn", PER_PAIR, ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("pair", [(-1, 2), (2, -1)])
def test_per_pair_functions_refuse_a_negative_signature(fn, pair):
    with pytest.raises(ValueError, match="^signature entries must be nonnegative$"):
        fn(*pair)


def test_censuses_classify_no_support(monkeypatch):
    # a support's class is read off its mu's: the k0 census and its total
    # read the classes of the cached Richardson table, the k1 census
    # classifies its staircase once
    p, q = 7, 6
    cs.census_bdi_k0(p, q)  # fills the cached Richardson table
    cs.census_k0_total.cache_clear()
    calls = _count_classify(monkeypatch)
    cs.census_bdi_k0(p, q)
    cs.census_k0_total(p, q)
    assert calls == []
    cs.census_bdi_k1(p, q)
    assert calls == [(dg.mu_t(p - q),)]


def test_support_classes_match_classify():
    # the class read off mu's against the support classified from its rows
    for N in range(31):
        for p in range(N + 1):
            q, t = N - p, 2 * p - N
            strata = [(m, k, mu, cls) for m, k, mu, cls, _, _ in cs._k0_strata(p, q)]
            D = N - t * t
            strata += [((D - 4 * k) // 2, k, dg.mu_t(t), dg.classify(dg.mu_t(t)))
                       for k in range(D // 4 + 1)]
            for m, k, mu, cls in strata:
                assert cls == dg.classify(mu)
                assert cs._support_class(m, mu, cls) == dg.classify(cs._support(m, k, mu)), \
                    (p, q, m, k, str(mu))


def test_k0_census_builds_supports_directly_and_theta_once(monkeypatch):
    cs.theta_k0_count.cache_clear()
    diagram_calls = _count_calls(monkeypatch, "diagram", dg, cs)
    hecke_calls = _count_calls(monkeypatch, "hecke_count", cs)
    first = cs.census_bdi_k0(8, 7)
    assert not diagram_calls
    assert hecke_calls  # the module families went through the counter
    del hecke_calls[:]
    assert cs.census_bdi_k0(8, 7) == first
    assert not hecke_calls


def test_supports_match_the_merging_builder():
    # _support assembles the rows itself; the oracle merges, sorts and checks
    reports = [r for N in range(17) for p in range(N + 1)
               for r in (cs.census_bdi_k0(p, N - p), cs.census_bdi_k1(p, N - p))]
    reports += [r for n in range(13) for r in cs.census_diii(n)]
    strata = {(e.m, e.k, e.mu) for r in reports for e in r.entries}
    # mu with length-2 rows (the diii strata) under added 2+ 2- rows too
    strata |= {(m, k, mu) for n in range(7) for mu in dg.enum_lambda_b(n)
               for m in range(3) for k in range(3)}
    for m, k, mu in strata:
        assert cs._support(m, k, mu).rows == oracles.support_via_diagram(m, k, mu).rows, \
            (m, k, str(mu))
    for r in reports:
        for e in r.entries:
            assert e.support.diagram == oracles.support_via_diagram(e.m, e.k, e.mu)


def test_memoised_totals_match_the_reports():
    # the count-only totals against the labelled reports, the oracle route
    for N in range(31):
        for p in range(N + 1):
            assert cs.census_k0_total(p, N - p) == cs.census_bdi_k0(p, N - p).total, (p, N - p)
    for n in range(25):
        assert cs.census_diii_totals(n) == tuple(r.total for r in cs.census_diii(n)), n
    for bad in ((-1, 2), (2, -1)):
        with pytest.raises(ValueError):
            cs.census_k0_total(*bad)
    with pytest.raises(ValueError):
        cs.census_diii_totals(-1)


TOTAL_CHECKS = ["number1-k0", "numbert-closure", "diii-k0-closure", "diii-k1-bijection"]


def test_verify_walks_each_pair_once_and_then_not_at_all(monkeypatch):
    sweep = 10
    # the strata (m, k, mu) of every pair p + q <= sweep
    strata = sum(len({(e.m, e.k, e.mu) for e in cs.census_bdi_k0(p, N - p).entries})
                 for N in range(sweep + 1) for p in range(N + 1))
    for cache in (cs.census_k0_total, cs.census_diii_totals, cs.diii_closure_total):
        cache.cache_clear()
    calls = _count_calls(monkeypatch, "_support_class", cs)
    first = run_suite(TOTAL_CHECKS, 12, sweep)
    assert all(r.passed for r in first)
    # number1-k0 and numbert-closure share one walk per pair, and the diii
    # totals read no support at all
    assert len(calls) == strata
    del calls[:]
    assert run_suite(TOTAL_CHECKS, 12, sweep) == first
    assert not calls
