"""The route mutation matrix: each row breaks one helper, and exactly the
recorded verify checks and census --check cells must then fail.

A check or cell that a row leaves out is a gap: that route reads the broken
helper too, or does not read it at all. A new route helper or check needs a
new row; a closed gap changes a row's sets.
"""
import dataclasses

import pytest

from sheaf_census import census, diagrams as dg, groups, partitions, qseries, verify


def _pairs(text: str) -> frozenset:
    """The bdi pairs ("bdi", p, q) of a text of "p,q" items."""
    return frozenset(("bdi", *map(int, pair.split(","))) for pair in text.split())


# the census --check sweep: bdi p, q <= 8 and diii n <= 8, every central and subset
BDI = frozenset(("bdi", p, q) for p in range(9) for q in range(9))
DIII = range(9)
NEAR_SPLIT = frozenset(pair for pair in BDI if abs(pair[1] - pair[2]) == 1)
# the split and near-split pairs from m = min(p, q) = 4 on
SPLIT_FROM_4 = frozenset((f, p, q) for f, p, q in BDI if abs(p - q) <= 1 and min(p, q) >= 4)
STAIRCASE = _pairs("0,0 0,1 1,0 1,3 3,1 3,6 6,3")  # p + q = (p - q)^2
# the bdi k1 "all" cells that both eta mutants reach
ETA_ALL = _pairs("2,3 3,2 3,5 4,4 4,5 5,3 5,4 5,7 5,8 6,6 6,7 7,5 7,6 8,5 8,8")
# the pairs whose m = 0 k1 stratum has several orbits over its support
UNEVEN = _pairs("0,0 0,1 1,0 2,2 4,4 4,5 5,4 6,6")
SUITE = (20, 14)  # verify's order and sweep
BELOW = frozenset(pair for pair in BDI if pair[1] < pair[2])  # p < q: t < 0
# the pairs whose k0 report a never-forced Richardson sign cannot build: the
# report reads the sigma_b table of each residual size, and the tables of
# sizes 4 and 6 on hold an unforced diagram with a negative character-count
# exponent (3+ 1+ at size 4), so every pair fails that reads one of them
UNFORCED = BDI - _pairs("0,0 0,1 0,2 0,3 0,5 1,0 1,1 1,2 1,3 1,4 2,0 2,1 2,3 3,0 3,1 3,2 "
                        "4,1 5,0")

# the even-size pairs with a Richardson diagram: (0, 0) and (1, 1) have none
EVEN_RICHARDSON = (frozenset(pair for pair in BDI if (pair[1] + pair[2]) % 2 == 0)
                   - _pairs("0,0 1,1"))


def _diii(sizes) -> frozenset:
    """The diii pairs ("diii", n) of the sizes."""
    return frozenset(("diii", n) for n in sizes)


def _kappa1_plus_one(real):
    def mutant(cls, p, q):
        data = real(cls, p, q)
        return groups.Kappa1Data(data.count + 1, data.dim or 1)
    return mutant


# name: (modules holding the helper, its name, mutant of the real helper,
#        failing checks, failing pairs ("bdi", p, q) or ("diii", n) by (central, subset))
ROWS = {
    "repeated-true": ((dg,), "_ab", lambda real: lambda rows: (*real(rows)[:2], True),
                      {"kappa1-orbit-sum", "nilcoro-k1"},
                      {("k1", "nilpotent"): STAIRCASE}),
    # no k1 census support repeats a sign: only the orbit sum sees it
    "repeated-false": ((dg,), "_ab", lambda real: lambda rows: (*real(rows)[:2], False),
                       {"kappa1-orbit-sum"}, {}),
    "kappa1-count+1": ((groups, census), "_kappa1_data", _kappa1_plus_one,
                       {"kappa1-orbit-sum", "nilcoro-k1"},
                       {("k1", "nilpotent"): STAIRCASE}),
    # the rank feeds no census route
    "class-rank+1": ((dg,), "_class_of", lambda real: lambda a, b, repeated: dataclasses.replace(
                         real(a, b, repeated), r=real(a, b, repeated).r + 1),
                     {"lemma-n1", "lemma-n1-2var", "number1-k0"}, {}),
    "eta+1-at-m2": ((groups, census), "eta", lambda real: lambda m, t: real(m, t) + (m == 2),
                    {"kappa1-orbit-sum", "number1-k1"},
                    {("k1", "all"): ETA_ALL | _pairs("2,2")}),
    # where an m = 0 stratum's support carries 4 or 2 orbits, the census
    # cannot share eta(0, t) + 1 evenly among them: its k1 report fails to
    # build, and every subset there fails
    "eta+1-at-m0": ((groups, census), "eta", lambda real: lambda m, t: real(m, t) + (m == 0),
                    {"kappa1-orbit-sum", "nilcoro-k1", "number1-k1"},
                    {("k1", "all"): ETA_ALL | UNEVEN,
                     ("k1", "cuspidal"): UNEVEN,
                     ("k1", "full"): UNEVEN,
                     ("k1", "nilpotent"): UNEVEN | _pairs("1,3 3,1 3,6 6,3")}),
    # k0 cuspidal and full read the closed split series: the split theta is
    # broken at m = 3 only, on (3, 3) and the near-split (3, 4) and (4, 3)
    "theta-k0*2-at-3": ((census,), "theta_k0_count",
                        lambda real: lambda variant, n: real(variant, n) * (1 + (n == 3)),
                        {"coro-cuspidal-k0", "fn-ind2-D", "fn-split-D", "fn1B", "fn1D", "fn2B",
                         "number1-k0", "numbert-closure"},
                        {("k0", "all"): {(f, p, q) for f, p, q in BDI
                                         if min(p, q) >= 3 and (p % 2 or q % 2)},
                         ("k0", "cuspidal"): _pairs("3,3 3,4 4,3"),
                         ("k0", "full"): _pairs("3,3 3,4 4,3")}),
    "hecke+1-at-4": ((census,), "hecke_count",
                     lambda real: lambda family, n: real(family, n) + (n == 4),
                     {"coro-cuspidal-k0", "fn-split-D", "fn1B", "fn2B", "number1-k0",
                      "numbert-closure"},
                     {("k0", "all"): _pairs("4,4 4,5 4,7 5,4 5,5 5,6 5,8 6,5 6,6 6,7 7,4 7,6 "
                                            "7,7 7,8 8,5 8,7 8,8"),
                      ("k0", "cuspidal"): SPLIT_FROM_4,
                      ("k0", "full"): SPLIT_FROM_4}),
    # the census's k1 strata at k = 2 (N - t^2 >= 8) and its diii n = 4 k1
    # stratum read it; the diii k1 route counts all-even diagrams
    "bipartitions+1-at-2": ((census,), "count_bipartitions",
                            lambda real: lambda x: real(x) + (x == 2),
                            {"diii-k1-bijection", "number1-k1"},
                            {("k1", "all"): {(f, p, q) for f, p, q in BDI
                                             if p + q - (p - q) ** 2 >= 8} | {("diii", 4)},
                             ("k1", "full"): {("diii", 4)}}),
    # sigma's row options are also in_sigma's rule: without the all-minus
    # signing of each odd group, classify refuses 1- and each staircase of
    # t < 0, so every k1 report with p < q cannot be built, and the split
    # k0 check of (0, 1) refuses its 1-; no census count reads the options
    "sigma-rows-drop-last": ((dg,), "_sigma_rows",
                             lambda real: lambda length, mult: real(length, mult)[:-1],
                             {"kappa1-orbit-sum", "lemma-n1", "lemma-n1-2var", "number1-k0",
                              "number1-k1"},
                             {("k0", "cuspidal"): _pairs("0,1"), ("k0", "full"): _pairs("0,1"),
                              **{("k1", subset): BELOW
                                 for subset in ("all", "cuspidal", "full", "nilpotent")}}),
    "pi*2": ((dg, groups), "_pi", lambda real: lambda d, cls, omega, n: 2 * real(d, cls, omega, n),
             {"b2-even", "b2-odd", "b2-weighted-oracle", "bb-even", "bb-odd", "nilcoro-k0-even",
              "nilcoro-k0-odd", "number1-k0", "numbert-closure", "tb1"},
             {("k0", "all"): BDI - _pairs("0,0 1,1"),
              ("k0", "cuspidal"): NEAR_SPLIT,
              ("k0", "full"): NEAR_SPLIT,
              # no Richardson stratum at m = 0 when p and q are both odd
              ("k0", "nilpotent"): {(f, p, q) for f, p, q in BDI
                                    if (p + q) and (p * q) % 2 == 0}}),
    # unforced signs list non-Richardson diagrams, and some of them have a
    # negative character-count exponent: building their size's table raises,
    # and so does every cell of a pair that reads it; the checks' pi sums meet
    # the same guard in the Richardson count DP's buckets of those sizes
    "richardson-never-forced": ((dg,), "_richardson_bits",
                                lambda real: lambda row, start, above, mu: (0, 1),
                                {"b2-even", "b2-odd", "b2-weighted-oracle", "bb-even", "bb-odd",
                                 "nilcoro-k0-even", "nilcoro-k0-odd", "number1-k0",
                                 "numbert-closure", "tb1"},
                                {("k0", subset): UNFORCED
                                 for subset in ("all", "cuspidal", "full", "nilpotent")}),
    # index 1 is in omega exactly on even sizes: without it, _pi's exponent
    # guard trips on every even-size table with a Richardson diagram (and on
    # the count DP's buckets of that size, which the checks read), so the
    # k0 report of each even-size pair that reads one fails to build;
    # membership is unchanged
    "omega-drop-1": ((dg,), "_richardson_in_omega",
                     lambda real: lambda row, start, above, bit, mu: (
                         above is not None and real(row, start, above, bit, mu)),
                     {"b2-even", "b2-weighted-oracle", "bb-even", "nilcoro-k0-even",
                      "number1-k0", "numbert-closure", "tb1"},
                     {("k0", subset): EVEN_RICHARDSON
                      for subset in ("all", "cuspidal", "full", "nilpotent")}),
    # the Lambda listing is the expected side of the k1 all-even count (the
    # census counts bipartitions); from n = 2 on, a diagram has an even group
    # to lose its all-minus signing. Gaps: no bdi route, no Lambda_b stratum
    # and no k0 route reads it (the diii k0 "all" cells and diii-k0-closure
    # read the product series of diii_closure_total)
    "lambda-rows-drop-all-minus": ((dg,), "_lambda_rows",
                                   lambda real: lambda length, mult: (
                                       real(length, mult)[:-1] if length % 2 == 0
                                       else real(length, mult)),
                                   {"diii-k1-bijection"},
                                   {("k1", "all"): _diii(range(2, 9, 2)),
                                    ("k1", "full"): _diii(range(2, 9, 2))}),
    # the diii k0 census lists Lambda_b, and its memoised total (which
    # diii-k0-closure reads) counts it by a knapsack over the same signings:
    # both lose every diagram with an odd row (there is one at every n but 0
    # and 2; in the full stratum at odd n only), against the product series
    # of diii_closure_total, p(n) and p(n/2). Gap: no k1 route reads it, as
    # every k1 diagram is all even
    "lambda-b-rows-no-odd": ((dg,), "_lambda_b_rows",
                             lambda real: lambda length, mult: (
                                 [] if length % 2 else real(length, mult)),
                             {"diii-k0-closure"},
                             {("k0", "all"): _diii((1, 3, 4, 5, 6, 7, 8)),
                              ("k0", "nilpotent"): _diii((1, 3, 4, 5, 6, 7, 8)),
                              ("k0", "full"): _diii(range(1, 9, 2))}),
}


def _caches() -> list:
    """Every lru_cache of the package."""
    return [obj for module in (partitions, qseries, dg, groups, census, verify)
            for obj in vars(module).values()
            if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == module.__name__]


def _reports():
    """(pair..., central) and a thunk building that report, for each report
    of the census --check sweep."""
    for _, p, q in sorted(BDI):
        yield ("bdi", p, q, "k0"), lambda p=p, q=q: census.census_bdi_k0(p, q)
        yield ("bdi", p, q, "k1"), lambda p=p, q=q: census.census_bdi_k1(p, q)
    for n in DIII:
        for i, central in enumerate(("k0", "k1")):
            yield ("diii", n, central), lambda n=n, i=i: census.census_diii(n)[i]


def _failing_cells() -> set:
    """(pair..., central, subset) of each census --check cell of the sweep
    whose total differs from its expected total, or whose report or check
    raises an internal error (exit 1 on the CLI) or refuses a diagram the
    census built itself (a ValueError): a report that cannot be built fails
    in every subset."""
    failing = set()
    for cell, build in _reports():
        for subset in census.SUBSETS:
            try:
                report = build()
                ok = (census.subset_report(report, subset).total
                      == census.expected_subset_total(report, subset))
            except (ArithmeticError, ValueError):
                ok = False
            if not ok:
                failing.add((*cell, subset))
    return failing


@pytest.mark.parametrize("row", list(ROWS))
def test_route_mutation_matrix(row, monkeypatch, request):
    modules, name, mutant, checks, cells = ROWS[row]
    caches = _caches()  # found before the patch hides a cached helper
    mutated = mutant(getattr(modules[0], name))
    for module in modules:
        monkeypatch.setattr(module, name, mutated)
    for cache in caches:
        cache.cache_clear()
        request.addfinalizer(cache.cache_clear)
    failed = {check.id for check in verify.run_suite("all", *SUITE) if not check.passed}
    assert failed == checks
    assert _failing_cells() == {(*pair, central, subset)
                                for (central, subset), pairs in cells.items()
                                for pair in pairs}
