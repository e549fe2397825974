"""Census enumerators against the closed formulas and hand-checked anchors."""
import itertools
import json

import pytest

import enum_oracles as oracles
import series_oracles
from sheaf_census import census as cs
from sheaf_census import diagrams as dg
from sheaf_census import groups as gp
from sheaf_census import partitions
from sheaf_census.partitions import count_bipartitions, count_partitions
from sheaf_census.verify import run_suite
from test_cli import TOTALS


def test_hecke_counts():
    assert cs.hecke_count("B", 2) == 2
    assert [cs.hecke_count("B", n) for n in range(5)] == [1, 1, 2, 3, 4]
    assert cs.hecke_count("D", 0) == 1
    assert [cs.hecke_count("D", n) for n in range(6)] == [1, 1, 1, 2, 3, 4]
    for n in (3, -1):  # the family is checked before the size
        with pytest.raises(ValueError, match="unknown Hecke family 'E'"):
            cs.hecke_count("E", n)


def test_kleshchev_bipartitions_give_the_hecke_counts():
    # a third route: the e = 2 Kleshchev bipartitions, grown by good nodes in
    # either node order, count the type-B simple modules at q = -1; charge
    # (0, 0) gives equal parameters, charge (0, 1) parameters (-1, 1)
    for reverse in (False, True):
        for n in range(25):
            assert oracles.kleshchev_count((0, 0), n, reverse) == cs.hecke_count("B", n), n
            assert oracles.kleshchev_count((0, 1), n, reverse) == cs._mixed_distinct_count(n), n


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


@pytest.mark.parametrize("build,low,stable", [
    (cs.census_bdi_k1, (2, 2), (3, 2)),
    (lambda n: cs.census_diii(n)[0], (2,), (3,)),
    (lambda n: cs.census_diii(n)[1], (2,), (3,)),
], ids=["bdi-k1", "diii-k0", "diii-k1"])
def test_every_report_builder_warns_below_total_size_5(build, low, stable):
    assert build(*low).warnings == (cs.LOW_RANK_WARNING,)
    assert build(*stable).warnings == ()


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
    # cuspidal sheaves are a subset of the census on every pair; the trivial
    # part counts the sheaves on one orbit over the full-support diagram
    # 1+^p 1-^q, so times its orbits it is the k0 census's cuspidal total,
    # off the split and near-split pairs too
    for total in range(21):
        for p in range(total + 1):
            q = total - p
            c0, c1 = cs.cuspidal_counts(p, q)
            k0 = cs.census_bdi_k0(p, q)
            assert c0 <= k0.total
            assert c1 <= cs.census_bdi_k1(p, q).total
            orbits = dg.classify(dg.diagram((1, p, q))).orbits
            assert c0 * orbits == cs.subset_report(k0, "cuspidal").total, (p, q)


def test_nilpotent_counts():
    assert cs.nilpotent_support_counts(3, 2)[0] == 4
    # the staircase pair for t=2 carries eta(0,2) = 1 nontrivial sheaf; the
    # same value comes out of the census and the closed formula
    assert cs.nilpotent_support_counts(3, 1)[1] == 1
    assert cs.census_bdi_k1(3, 1).total == cs.count_formula_k1(3, 1) == 1
    assert cs.nilpotent_support_counts(6, 2)[1] == 0
    # both orbits over each class-2 diagram carry their characters
    assert cs.nilpotent_support_counts(1, 0)[0] == 2
    # the nontrivial part is the k1 census's nilpotent total on every pair
    for total in range(21):
        for p in range(total + 1):
            q = total - p
            assert cs.nilpotent_support_counts(p, q)[1] == \
                cs.subset_report(cs.census_bdi_k1(p, q), "nilpotent").total, (p, q)


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


def _oracle_rows(entries):
    """The JSON strata rows of hand-branched entries, each diagram formatted anew."""
    return [{"support": dg.format_diagram(e.support.diagram), "delta": e.support.delta,
             "m": e.m, "k": e.k, "mu": dg.format_diagram(e.mu), "family": e.family,
             "count": e.count} for e in entries]


def test_bdi_censuses_match_hand_branched_oracles():
    for N in range(19):
        for p in range(N + 1):
            q = N - p
            warnings = (cs.LOW_RANK_WARNING,) if N < 5 else ()
            for report, entries in ((cs.census_bdi_k0(p, q), oracles.census_bdi_k0(p, q)),
                                    (cs.census_bdi_k1(p, q), oracles.census_bdi_k1(p, q))):
                where, total = (p, q, report.central), sum(e.count for e in entries)
                assert report.entries == entries, where
                assert report.total == total, where
                assert report.warnings == warnings, where
                data = report.to_json_dict()
                assert (data["strata"], data["total"]) == (_oracle_rows(entries), total), where


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
        assert cs.subset_report(report, "all") is report  # not refiltered


def test_a_report_sums_its_total_once():
    report = cs.census_bdi_k0(9, 8)
    assert "total" not in vars(report)  # summed on the first read, not built
    assert report.total == report.to_json_dict()["total"] == vars(report)["total"]
    with pytest.raises(ValueError, match="unknown subset 'most'"):
        cs.subset_report(report, "most")


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


def test_entries_validate_their_labels():
    # records are stored as given; the per-orbit view checks each decoration
    mu = dg.parse_diagram("1+^3 1-^2")  # a single orbit, so no decoration names one
    report = cs.CensusReport(("bdi", 3, 2), "k0",
                             ((0, 0, mu.rows, ("I",), 1, "sigma-b1", "1+^3 1-^2"),))
    assert report.total == 1
    with pytest.raises(ValueError, match="names no orbit"):
        report.entries


def test_a_warm_census_builds_no_orbit_objects(monkeypatch, capsys):
    from sheaf_census import cli

    # (16, 14) has strata with several orbits over their support, (15, 15) none
    argvs = [["census", "bdi", "--p", p, "--q", q, "--central", "both", "--check"]
             for p, q in (("15", "15"), ("16", "14"))]
    assert [cli.main(argv) for argv in argvs] == [0, 0]
    reports = [make(p, q) for p, q in ((15, 15), (16, 14))
               for make in (cs.census_bdi_k0, cs.census_bdi_k1)]
    strata = sum(len(r.strata) for r in reports)
    assert strata < sum(len(r.entries) for r in reports)
    built = []
    for kind in (cs.StratumEntry, cs.OrbitLabel):
        def counting_init(self, *args, init=kind.__init__, **kwargs):
            built.append(type(self))
            init(self, *args, **kwargs)
        monkeypatch.setattr(kind, "__init__", counting_init)
    supports = _count_calls(monkeypatch, "diagram", cs)
    texts = _count_calls(monkeypatch, "format_diagram", cs)
    capsys.readouterr()
    for argv in argvs:
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["payload"]["check"]["passed"]
    assert built == []
    # no support diagram is built (only entries builds them, through
    # diagram()): each support's text comes from its mu's, and each mu's
    # with its record (a k0 mu's from its sigma_b listing, a k1 report's
    # from its staircase, formatted once per t by the cold run)
    assert (len(supports), len(texts)) == (0, 0)
    cs.census_bdi_k0(3, 2).entries  # the counters do see the view's objects
    assert set(built) == {cs.StratumEntry, cs.OrbitLabel}
    assert supports


def test_a_diii_total_formats_no_diagram(monkeypatch):
    # a cold total lists no diagram: it counts Lambda_b by the knapsack. The
    # Lambda_b listing joins each mu's text from its groups' texts; a rendered
    # census reads each mu's text off that column
    for cache in (cs.census_diii_totals, dg.lambda_b_listing):
        cache.cache_clear()
    texts = _count_calls(monkeypatch, "format_diagram", cs, dg)
    tables = _count_calls(monkeypatch, "_by_signature", dg)
    totals = [cs.census_diii_totals(n) for n in range(13)]
    assert texts == tables == []
    assert totals == [tuple(r.total for r in cs.census_diii(n)) for n in range(13)]
    for n in (0, 7, 12):
        texts.clear()
        report = cs.census_diii(n)[0]
        rows = report.to_json_dict()["strata"]
        assert texts == []  # each support's text is read off its mu's
        mus = [dg.SignedYoungDiagram(mu) for _, _, mu, *_ in report.strata]
        assert [row["mu"] for row in rows] == list(map(dg.format_diagram, mus))


def test_cross_route_sweep_25_to_40():
    # beyond the acceptance sweep (p+q <= 24): census, closed formula and
    # component-group orbit sum agree for every pair with 25 <= p+q <= 40,
    # and with p+q = 48 and 56; past 32 the k0 census is its count-only
    # total, not the full report
    for total in (*range(25, 41), 48, 56):
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


def _count_diagrams(monkeypatch):
    """Record the rows of every SignedYoungDiagram built: each one runs its checks."""
    built = []
    checks = dg.SignedYoungDiagram.__post_init__
    monkeypatch.setattr(dg.SignedYoungDiagram, "__post_init__",
                        lambda d: built.append(d.rows) or checks(d))
    return built


def _count_listing(monkeypatch):
    """Count the diagrams built and the partition walks started."""
    return _count_diagrams(monkeypatch), _count_calls(monkeypatch, "_walk", dg, partitions)


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


def test_tables_build_no_diagram_and_read_each_option_once(monkeypatch):
    # a table lists rows and sums each signing's class key group by group:
    # _ab reads one signed group, once per distinct option (the option cache
    # serves every diagram and every partition holding it), not once per diagram
    for cache in (dg._sigma_by_signature, dg._sigma_b_by_signature, dg._options):
        cache.cache_clear()
    built, reads = _count_diagrams(monkeypatch), _count_calls(monkeypatch, "_ab", dg)
    tables = dg._sigma_by_signature(24), dg._sigma_b_by_signature(24)
    assert built == []
    assert all(len(rows) == 1 for rows, in reads)
    options = {(signings, length, mult, j > 0)
               for signings, generator in ((dg._sigma_rows, oracles.gen_partitions),
                                           (dg._richardson_rows, oracles.gen_odd_partitions))
               for groups in map(oracles._group, generator(24, 24))
               # sigma lists no odd count of an even length
               if signings is dg._richardson_rows
               or all(mult % 2 == 0 for length, mult in groups if length % 2 == 0)
               for j, (length, mult) in enumerate(groups)}
    assert len(reads) == sum(len(signings(length, mult)) for signings, length, mult, _ in options)
    # 551 reads, where one per group of each partition would be 4,164 and one
    # per listed diagram 8,153
    listed = sum(len(columns[0]) for table in tables for columns in table.values())
    assert len(reads) * 10 < listed == 8153


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


@pytest.mark.parametrize("total", [64, 80, 100])
def test_k0_totals_agree_with_the_formula_deep(total):
    # the Richardson knapsack takes the census total where listing sigma_b
    # took seconds and hundreds of MiB (p+q = 80: 9 s, 623 MiB)
    for p in range(total + 1):
        q = total - p
        assert cs.census_k0_total(p, q) == cs.count_formula_k0(p, q), (p, q)


# every public per-pair function of census, each refusing a negative entry
PER_PAIR = (cs.census_bdi_k0, cs.census_bdi_k1, cs.census_k0_total, cs.census_k1_total,
            cs.count_formula_k0, cs.count_formula_k1, cs.cuspidal_counts,
            cs.nilpotent_support_counts, cs.richardson_pi_sums, cs.b_tilde,
            cs.kappa0_orbit_sum, cs.kappa1_orbit_sum, cs.sigma23_r_sum)


@pytest.mark.parametrize("fn", PER_PAIR, ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("pair", [(-1, 2), (2, -1)])
def test_per_pair_functions_refuse_a_negative_signature(fn, pair):
    with pytest.raises(ValueError, match="^signature entries must be nonnegative$"):
        fn(*pair)


def test_censuses_classify_no_support(monkeypatch):
    # a support's class is read off its mu's: the k0 census and its total
    # read the classes of the cached Richardson table, the k1 census
    # classifies its staircase once per t, for its report and its total
    p, q = 7, 6
    cs.census_bdi_k0(p, q)  # fills the cached Richardson table
    for cache in (cs.census_k0_total, cs.census_k1_total, cs._staircase):
        cache.cache_clear()
    calls = _count_classify(monkeypatch)
    cs.census_bdi_k0(p, q)
    cs.census_k0_total(p, q)
    assert calls == []
    cs.census_bdi_k1(p, q)
    cs.census_k1_total(p, q)
    cs.census_bdi_k1(p + 2, q + 2)  # the same t
    assert calls == [(dg.mu_t(p - q),)]


def test_k0_census_walks_no_listed_diagram_again(monkeypatch):
    # each Richardson diagram's pi comes with the sigma_b listing, so a cold
    # k0 census never walks a listed diagram through _richardson_omega
    for module in (partitions, dg, gp, cs):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    calls = _count_calls(monkeypatch, "_richardson_omega", dg, gp)
    assert cs.census_bdi_k0(12, 12).total == cs.count_formula_k0(12, 12)
    assert calls == []


def test_diii_closure_total_counts_the_lambda_listing():
    # the product route against the library's Lambda walk, and against the
    # oracle's filter over every partition of 2n (20 s to n = 28, so n <= 20)
    for n in range(29):
        assert cs.diii_closure_total(n) == len(dg.enum_lambda(n)), n
    for n in range(21):
        assert cs.diii_closure_total(n) == len(oracles.enum_lambda(n)), n


def test_support_classes_match_classify():
    # mu's class against mu classified from its rows, and the deltas rule, read
    # off mu's class, against the support classified; a stratum record holds
    # mu's rows
    for N in range(31):
        for p in range(N + 1):
            q, t = N - p, 2 * p - N
            strata = [(m, k, mu, cls) for m in range(min(p, q) + 1)
                      if N % 2 or (m - q) % 2 == 0
                      for k in range((min(p, q) - m) // 2 + 1)
                      for mu, cls in zip(*dg.sigma_b_listing(p - m - 2 * k, q - m - 2 * k)[:2])]
            if N % 2 == 0 and p == q:
                strata += [(m, (q - m) // 2, (), dg._class_of(0, 0, False))
                           for m in range(q % 2, q + 1, 2)]
            D = N - t * t
            strata += [((D - 4 * k) // 2, k, dg.mu_t(t).rows, dg.classify(dg.mu_t(t)))
                       for k in range(D // 4 + 1)]
            for m, k, mu, cls in strata:
                assert cls == dg.classify(dg.SignedYoungDiagram(mu))
                support = oracles.support_via_diagram(m, k, dg.SignedYoungDiagram(mu))
                assert cs._support_deltas(m, cls.deltas) == dg.classify(support).deltas, \
                    (p, q, m, k, mu)


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
    # _support_text merges mu's text itself, and entries builds each support
    # through diagram(); the oracle merges, sorts and checks
    reports = [r for N in range(17) for p in range(N + 1)
               for r in (cs.census_bdi_k0(p, N - p), cs.census_bdi_k1(p, N - p))]
    reports += [r for n in range(13) for r in cs.census_diii(n)]
    strata = {(e.m, e.k, e.mu) for r in reports for e in r.entries}
    # mu with length-2 rows (the diii strata) under added 2+ 2- rows too
    strata |= {(m, k, mu) for n in range(7) for mu in dg.enum_lambda_b(n)
               for m in range(3) for k in range(3)}
    for m, k, mu in strata:  # _support_text reads mu's rows and its text
        support = oracles.support_via_diagram(m, k, mu)
        assert cs._support_text(m, k, mu.rows, dg.format_diagram(mu)) == \
            dg.format_diagram(support), (m, k, str(mu))
    for r in reports:
        for e in r.entries:
            assert e.support.diagram == oracles.support_via_diagram(e.m, e.k, e.mu)


def test_memoised_totals_match_the_reports():
    # the count-only totals against the labelled reports, the oracle route
    for N in range(31):
        for p in range(N + 1):
            assert cs.census_k0_total(p, N - p) == cs.census_bdi_k0(p, N - p).total, (p, N - p)
            assert cs.census_k1_total(p, N - p) == cs.census_bdi_k1(p, N - p).total, (p, N - p)
    for n in range(31):
        assert cs.census_diii_totals(n) == tuple(r.total for r in cs.census_diii(n)), n
    for bad in ((-1, 2), (2, -1)):
        with pytest.raises(ValueError):
            cs.census_k0_total(*bad)
    with pytest.raises(ValueError):
        cs.census_diii_totals(-1)


def test_the_k0_formula_matches_its_series_form():
    # the int coefficient sums against the FormalSeries operations they replace
    for N in range(61):
        for p in range(N + 1):
            assert cs.count_formula_k0(p, N - p) == series_oracles.count_formula_k0(p, N - p), \
                (p, N - p)


def test_number1_k1_walks_no_strata_when_warm(monkeypatch):
    cs.census_k1_total.cache_clear()
    calls = _count_calls(monkeypatch, "_k1_strata", cs)
    first = run_suite(["number1-k1"], 12, 10)
    assert first[0].passed
    # one walk per pair p + q <= 10, then none
    assert len(calls) == sum(N + 1 for N in range(11))
    del calls[:]
    assert run_suite(["number1-k1"], 12, 10) == first
    assert not calls


# the checks that read the memoised totals, and those that read the pi sums
TOTAL_CHECKS = ["number1-k0", "numbert-closure", "diii-k0-closure", "diii-k1-bijection",
                "bb-odd", "bb-even", "tb1", "b2-odd", "b2-even", "b2-weighted-oracle",
                "nilcoro-k0-odd", "nilcoro-k0-even"]


def test_verify_builds_no_stratum_and_then_reads_no_listing(monkeypatch):
    # the k0 totals sum the pi sums over the strata rule's cells: no stratum
    # record is built, and neither the pi sums nor the diii totals list a
    # diagram (both count by DPs); a warm rerun reads the memoised totals and
    # pi sums, and builds no count table either
    for cache in TOTALS:
        cache.cache_clear()
    strata = _count_calls(monkeypatch, "_k0_strata", cs)
    listings = [_count_calls(monkeypatch, name, cs, dg)
                for name in ("sigma_b_listing", "lambda_b_listing")]
    tables = _count_calls(monkeypatch, "_by_signature", dg)
    sigma_b = _count_calls(monkeypatch, "_sigma_b_by_signature", dg)
    blocks = _count_calls(monkeypatch, "_richardson_block", dg)
    first = run_suite(TOTAL_CHECKS, 12, 10)
    assert all(r.passed for r in first)
    assert strata == sigma_b == listings[0] == listings[1] == []
    # the pi sums read a Richardson block per parity and top: sizes to 10 read tops 8 and 16
    assert set(blocks) == {(start, top) for start in (0, 1) for top in (8, 16)}
    del tables[:], blocks[:]
    assert run_suite(TOTAL_CHECKS, 12, 10) == first
    assert strata == tables == blocks == [] and listings == [[], []]


def test_the_default_suite_builds_no_record_and_walks_classes_once(monkeypatch):
    # no check builds a stratum record or a Partition or lists sigma or
    # sigma_b, and one class-count DP serves every size the suite reads
    for cache in (*TOTALS, dg._class_count_block, dg._sigma_by_signature,
                  dg._sigma_b_by_signature):
        cache.cache_clear()
    strata = _count_calls(monkeypatch, "_k0_strata", cs)
    built = _count_calls(monkeypatch, "Partition", partitions, dg)
    tables = [_count_calls(monkeypatch, name, dg)
              for name in ("_sigma_by_signature", "_sigma_b_by_signature")]
    assert all(r.passed for r in run_suite("all", 40, 24))
    assert strata == built == tables[0] == tables[1] == []
    assert dg._class_count_block.cache_info().misses == 1
