"""The identity harness.

Every generating-function statement the counts rely on is checked here as an
exact comparison: direct enumeration against truncated series coefficients,
or series against series. Checks run independently, never abort the suite,
and a failure carries its first disagreement, or the error that stopped it.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product

from . import DEFAULT_SWEEP, census, diagrams, groups, partitions, qseries
from .qseries import BiSeries, FormalSeries, prod_series

MIN_ORDER = 10
MIN_SWEEP = 1

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)
THREE_HALVES = Fraction(3, 2)
NINE_QUARTERS = Fraction(9, 4)


@dataclass(frozen=True)
class IdentityCheck:
    """One named check: PASS, or FAIL with the first disagreement."""

    id: str
    description: str
    scope: str
    status: str
    detail: dict | None = None

    @property
    def passed(self) -> bool:
        return self.status == "PASS"

    def to_json_dict(self) -> dict:
        out = {"id": self.id, "description": self.description,
               "scope": self.scope, "status": self.status}
        if self.detail is not None:
            out["detail"] = self.detail
        return out


def _from_cells(check_id: str, description: str, cells, scope_note: str) -> IdentityCheck:
    """cells: iterable of (location, lhs, rhs); first mismatch is the witness,
    reported with the number of cells that disagree."""
    count = mismatches = 0
    witness = None
    for location, lhs, rhs in cells:
        count += 1
        if lhs != rhs:
            mismatches += 1
            if witness is None:
                witness = {"location": location, "lhs": str(lhs), "rhs": str(rhs)}
    scope = f"{count} cells, {scope_note}"
    if witness is None:
        return IdentityCheck(check_id, description, scope, "PASS")
    return IdentityCheck(check_id, description, scope, "FAIL",
                         {**witness, "mismatches": mismatches})


CHECKS: dict = {}


def _check(check_id: str, description: str):
    """Register a body returning (cells, scope_note) as the check check_id,
    in definition order; an exception raised while the body runs fails that
    check alone, with the exception's type and message as its detail."""
    def register(body):
        def run(order: int, sweep: int) -> IdentityCheck:
            try:
                return _from_cells(check_id, description, *body(order, sweep))
            except Exception as exc:  # run_suite validated the inputs: this is internal
                return IdentityCheck(check_id, description, "0 cells, aborted", "FAIL",
                                     {"error": f"{type(exc).__name__}: {exc}"})
        CHECKS[check_id] = run
        return body
    return register


# ---------------------------------------------------------------------------
# shared cell builders
# ---------------------------------------------------------------------------

def _series_cells(lhs: FormalSeries, rhs: FormalSeries, prefix: str = ""):
    n = min(lhs.order, rhs.order)
    for k in range(n + 1):
        yield f"{prefix}x^{k}", lhs.coeff(k), rhs.coeff(k)


def _pair_cells(sweep: int, lhs, rhs):
    """Cells and scope comparing lhs(p, q) with rhs(p, q) for all p+q <= sweep."""
    def cells():
        for total in range(sweep + 1):
            for p in range(total + 1):
                q = total - p
                yield f"(p,q)=({p},{q})", lhs(p, q), rhs(p, q)
    return cells(), f"all (p,q) with p+q <= {sweep}"


def _tq_cells(sweep: int, ts, series_of, count, step: int):
    """Cells t=..,q=.. with 2q+t <= sweep comparing count(q+t, q) with the
    coefficient of x^q in series_of(t); q runs in steps of `step`, and even
    steps skip t = q = 0."""
    for t in ts:
        series = series_of(t)
        for q in range(0, (sweep - t) // 2 + 1, step):
            if step == 1 or t or q:
                yield f"t={t},q={q}", count(q + t, q), series.coeff(q)


def _total(count, N: int):
    """count(p, q) summed over p+q = N."""
    return sum(count(p, N - p) for p in range(N + 1))


def _half_cells(count, rhs: FormalSeries, odd: bool):
    """Cells x^n comparing the totals over p+q = 2n+1 (odd) or p+q = 2n (even)
    with the coefficients of rhs, for n up to its order. Even sides start at
    n = 1: the empty pair carries no Richardson diagram, but the series
    start at a nonzero constant."""
    for n in range(0 if odd else 1, rhs.order + 1):
        yield f"x^{n}", _total(count, 2 * n + odd), rhs.coeff(n)


def _class2_count(p: int, q: int) -> int:
    return census.richardson_pi_sums(p, q)[1]


def _nilpotent_k0_count(p: int, q: int) -> int:
    return census.nilpotent_support_counts(p, q)[0]


# ---------------------------------------------------------------------------
# the checks, in registry order; each body returns (cells, scope_note)
# ---------------------------------------------------------------------------

@_check("number1-k0",
        "stratum census and orbit sum both equal the coefficient of x^q in "
        "1/(2(1+x^t)) prod (1+x^s)/(1-x^s)^3 + 3(1+x^t)/(2(1+x^2t)) "
        "prod (1+x^2s)^2/(1-x^2s)^3 + (9/4)[t=0] prod 1/(1-x^2s)")
def _number1_k0(order: int, sweep: int):
    return _pair_cells(
        sweep,
        lambda p, q: (census.census_k0_total(p, q), census.kappa0_orbit_sum(p, q)),
        lambda p, q: (census.count_formula_k0(p, q),) * 2)


@_check("number1-k1",
        "stratum census equals eta * coefficient of x^(N-t^2) in "
        "prod 1/((1-x^4s)(1-x^2s))")
def _number1_k1(order: int, sweep: int):
    return _pair_cells(sweep, census.census_k1_total, census.count_formula_k1)


@_check("kappa1-orbit-sum",
        "orbit multiplicities times component-group kappa1 counts equal the "
        "closed kappa1 formula")
def _kappa1_orbit_sum(order: int, sweep: int):
    return _pair_cells(min(sweep, 20), census.kappa1_orbit_sum, census.count_formula_k1)


@_check("lemma-n1",
        "sum of 2^r over class-2/3 diagrams equals the coefficient of x^q in "
        "(1+x^t)/(1+x^2t) prod (1+x^2s)^2/(1-x^2s)^3")
def _lemma_n1(order: int, sweep: int):
    base = prod_series(sweep, (1, 2, 0, 2), (-1, 2, 0, -3))
    return (_tq_cells(sweep, range(6), lambda t: census._t_ratio(base, t), census.sigma23_r_sum, 1),
            f"t <= 5, 2q+t <= {sweep}")


def _two_variable_product(order: int) -> BiSeries:
    """Half the two-variable product to u, v order `order`: (1+u^a v^b)/(1-u^a v^b)
    at (a, b) = (2m+2, 2m+1) and (2m, 2m+1), over 1-u^2m v^2m. The other half
    swaps u and v in the first two families, and the last is symmetric, so at
    equal orders that half is this one's transpose."""
    reach = range(order // 2 + 1)
    s = BiSeries.one(order, order)
    for ue, ve in [(2 * m + 2, 2 * m + 1) for m in reach] + [(2 * m, 2 * m + 1) for m in reach]:
        if ue <= order and ve <= order:
            s = s.mul_binomial(1, ue, ve, 1).mul_binomial(-1, ue, ve, -1)
    for m in range(1, order // 2 + 1):
        s = s.mul_binomial(-1, 2 * m, 2 * m, -1)
    return s


@_check("lemma-n1-2var",
        "two-variable signature-marked product (and its u=v diagonal) equals "
        "twice the class-2/3 sums of 2^r")
def _lemma_n1_2var(order: int, sweep: int):
    bound = min(sweep, 16)
    half = _two_variable_product(bound)
    def two_var(p, q):
        return half.coeff(p, q) + half.coeff(q, p)
    def cells():
        for p in range(bound + 1):
            for q in range(bound + 1):
                yield f"u^{p}v^{q}", two_var(p, q), 2 * census.sigma23_r_sum(p, q)
        for n in range(bound + 1):
            yield f"diagonal x^{n}", _total(two_var, n), 2 * _total(census.sigma23_r_sum, n)
    return cells(), f"u,v exponents <= {bound}"


@_check("numbert-closure",
        "summing censuses over p+q=N matches the three closed series for the "
        "aggregated trivial-character totals")
def _numbert_closure(order: int, sweep: int):
    t0 = [census.aggregate_T(N) for N in range(sweep + 1)]
    s_all = (prod_series(sweep, (1, 2, -1, 2), (-1, 4, 0, -1), (-1, 2, -1, -2), scalar=QUARTER)
             + prod_series(sweep, (1, 2, -1, 1), (-1, 4, 0, -1), (-1, 2, -1, -1), scalar=THREE_HALVES)
             + prod_series(sweep, (-1, 4, 0, -1), scalar=NINE_QUARTERS))
    half_order = sweep // 2
    s_odd = (prod_series(half_order, (1, 2, 0, 4), (1, 1, 0, 3), (-1, 1, 0, -1))
             + prod_series(half_order, (1, 4, 0, 2), (1, 2, 0, 1), (1, 1, 0, 1), (-1, 1, 0, -1), scalar=3))
    s_even = (prod_series(half_order, (1, 2, -1, 4), (1, 1, 0, 3), (-1, 1, 0, -1), scalar=QUARTER)
              + prod_series(half_order, (1, 4, -2, 2), (1, 2, 0, 1), (1, 1, 0, 1), (-1, 1, 0, -1), scalar=THREE_HALVES)
              + prod_series(half_order, (-1, 2, 0, -1), scalar=NINE_QUARTERS))
    def cells():
        for N, (formula_total, census_total) in enumerate(t0):
            yield f"T'_{N}=T0_{N}", census_total, formula_total
            yield f"series all, x^{N}", s_all.coeff(N), t0[N][0]
        for n in range(half_order + 1):
            if 2 * n + 1 <= sweep:
                yield f"series odd, x^{n}", s_odd.coeff(n), t0[2 * n + 1][0]
            yield f"series even, x^{n}", s_even.coeff(n), t0[2 * n][0]
    return cells(), f"N <= {sweep}"


@_check("psi1-a",
        "bilateral sum of x^k/(1+x^2k) equals (1/2) prod (1+x^(2s-1))^2 "
        "(1-x^2s)^2 / ((1-x^(2s-1))^2 (1+x^2s)^2)")
def _psi1_a(order: int, sweep: int):
    lhs = qseries.bilateral_sum(HALF, lambda k: ((k, 2 * k),), order=order)
    rhs = prod_series(order, (1, 2, -1, 2), (-1, 2, 0, 2), (-1, 2, -1, -2), (1, 2, 0, -2),
                      scalar=HALF)
    return _series_cells(lhs, rhs), f"order {order}"


@_check("psi1-b",
        "bilateral sum of x^k(1+x^2k)/(1+x^4k) equals prod (1+x^(2s-1)) "
        "(1-x^4s)^2 / ((1-x^(2s-1)) (1+x^4s)^2)")
def _psi1_b(order: int, sweep: int):
    lhs = qseries.bilateral_sum(1, lambda k: ((k, 4 * k), (3 * k, 4 * k)), order=order)
    rhs = prod_series(order, (1, 2, -1, 1), (-1, 4, 0, 2), (-1, 2, -1, -1), (1, 4, 0, -2))
    return _series_cells(lhs, rhs), f"order {order}"


@_check("psi1-c",
        "odd-index and even-index halves of the second bilateral sum match "
        "their own product forms")
def _psi1_c(order: int, sweep: int):
    odd_sum = qseries.bilateral_sum(
        0, lambda k: ((k, 4 * k), (3 * k, 4 * k)) if k % 2 else (), order=order)
    even_sum = qseries.bilateral_sum(
        1, lambda k: () if k % 2 else ((k, 4 * k), (3 * k, 4 * k)), order=order)
    odd_rhs = prod_series(order, (1, 4, -2, 1), (-1, 8, 0, 2), (-1, 4, -2, -1),
                          (1, 8, -4, -2), scalar=2, shift=1)
    even_rhs = prod_series(order, (1, 4, -2, 1), (-1, 8, 0, 2), (-1, 4, -2, -1),
                           (1, 8, 0, -2))
    return (chain(_series_cells(odd_sum, odd_rhs, "odd-k "),
                  _series_cells(even_sum, even_rhs, "even-k ")),
            f"order {order}")


@_check("oe-split",
        "prod (1+x^(2s-1))/(1-x^(2s-1)) splits as 2x prod (1+x^8s)^2 (1+x^4s)"
        " (1+x^2s)^2 + prod (1+x^(8s-4))^2 (1+x^4s) (1+x^2s)^2")
def _oe_split(order: int, sweep: int):
    lhs = prod_series(order, (1, 2, -1, 1), (-1, 2, -1, -1))
    rhs = (prod_series(order, (1, 8, 0, 2), (1, 4, 0, 1), (1, 2, 0, 2), scalar=2, shift=1)
           + prod_series(order, (1, 8, -4, 2), (1, 4, 0, 1), (1, 2, 0, 2)))
    return _series_cells(lhs, rhs), f"order {order}"


@_check("eqn-oeterms",
        "prod ((1+x^(2s-1))/(1-x^(2s-1)))^2 equals 4x prod (1+x^4s)^4 "
        "(1+x^2s)^4 + prod (1+x^(4s-2))^4 (1+x^2s)^4")
def _eqn_oeterms(order: int, sweep: int):
    lhs = prod_series(order, (1, 2, -1, 2), (-1, 2, -1, -2))
    rhs = (prod_series(order, (1, 4, 0, 4), (1, 2, 0, 4), scalar=4, shift=1)
           + prod_series(order, (1, 4, -2, 4), (1, 2, 0, 4)))
    return _series_cells(lhs, rhs), f"order {order}"


@_check("bb-odd",
        "aggregated Richardson character counts (odd total size) equal "
        "2 prod (1+x^s)^2 (1+x^2s)^2")
def _bb_odd(order: int, sweep: int):
    rhs = prod_series((sweep - 1) // 2, (1, 1, 0, 2), (1, 2, 0, 2), scalar=2)
    return _half_cells(census.b_tilde, rhs, odd=True), f"2n+1 <= {sweep}"


@_check("bb-even",
        "aggregated Richardson character counts (even total size) equal "
        "(1/2) prod (1+x^s)^2 (1+x^(2s-1))^2")
def _bb_even(order: int, sweep: int):
    rhs = prod_series(sweep // 2, (1, 1, 0, 2), (1, 2, -1, 2), scalar=HALF)
    return _half_cells(census.b_tilde, rhs, odd=False), f"1 <= n, 2n <= {sweep}"


@_check("tb1",
        "per-pair Richardson character counts match 1/(1+x^t) times the "
        "parity-matched square products")
def _tb1(order: int, sweep: int):
    series_of = lambda t: census._tb1_series(t, sweep)
    return (chain(_tq_cells(sweep, (1, 3, 5), series_of, census.b_tilde, 1),
                  _tq_cells(sweep, (0, 2, 4), series_of, census.b_tilde, 2)),
            f"|t| <= 5, 2q+t <= {sweep}")


@_check("b2-odd",
        "class-2 Richardson character counts (odd total size) equal "
        "2 prod (1+x^s)^2 (1+x^4s)")
def _b2_odd(order: int, sweep: int):
    rhs = prod_series((sweep - 1) // 2, (1, 1, 0, 2), (1, 4, 0, 1), scalar=2)
    return _half_cells(_class2_count, rhs, odd=True), f"2n+1 <= {sweep}"


@_check("b2-even",
        "class-2 Richardson character counts (even total size) equal "
        "prod (1+x^s)^2 (1+x^(4s-2))")
def _b2_even(order: int, sweep: int):
    rhs = prod_series(sweep // 2, (1, 1, 0, 2), (1, 4, -2, 1))
    return _half_cells(_class2_count, rhs, odd=False), f"1 <= n, 2n <= {sweep}"


@_check("b2-weighted-oracle",
        "class-2 Richardson counts equal twice the gap-weighted sums over "
        "odd-part partitions")
def _b2_weighted(order: int, sweep: int):
    cells = ((f"N={N}", _total(_class2_count, N),
              2 * partitions.weighted_odd_partition_sum(N)) for N in range(1, sweep + 1))
    return cells, f"1 <= N <= {sweep}"


def _fn_cells(variant: str, series: FormalSeries, start: int):
    """Cells m=.. comparing the module-family counts of variant with the
    coefficients of series (of order at most 30) from x^start."""
    cells = ((f"m={m}", census.theta_k0_count(variant, m), series.coeff(m))
             for m in range(start, series.order + 1))
    return cells, f"m <= {series.order}" if start == 0 else f"1 <= m <= {series.order}"


@_check("fn1B", "induced class-1 counts (B side) match prod (1+x^2s)^2 (1+x^s)^2")
def _fn1B(order: int, sweep: int):
    return _fn_cells("ind1-B", prod_series(min(order, 30), (1, 2, 0, 2), (1, 1, 0, 2)), 0)


@_check("fn1D", "induced class-1 counts (D side) match prod (1+x^(2s-1))^2 (1+x^s)^2")
def _fn1D(order: int, sweep: int):
    return _fn_cells("ind1-D", prod_series(min(order, 30), (1, 2, -1, 2), (1, 1, 0, 2)), 0)


@_check("fn2B",
        "split/induced class-2 counts (B side) match (1/2) prod (1+x^2s)^2 "
        "(1+x^s)^2 + (3/2) prod (1+x^4s)(1+x^2s); constants differ by the "
        "boundary convention")
def _fn2B(order: int, sweep: int):
    return _fn_cells("split-B", census._split_sum(min(order, 30), False, HALF), 1)


@_check("fn-split-D",
        "split counts (D side) match (1/4) prod (1+x^(2s-1))^2 (1+x^s)^2 + "
        "(3/2) prod (1+x^(4s-2))(1+x^2s) away from the half-constant boundary")
def _fn_split_D(order: int, sweep: int):
    return _fn_cells("split-D", census._split_sum(min(order, 30), True, QUARTER), 1)


@_check("fn-ind2-D",
        "induced class-2 counts (D side) match (1/2) prod (1+x^(2s-1))^2 "
        "(1+x^s)^2 + (3/2) prod (1+x^(4s-2))(1+x^2s)")
def _fn_ind2_D(order: int, sweep: int):
    return _fn_cells("ind2-D", census._split_sum(min(order, 30), True, HALF), 1)


@_check("coro-cuspidal-k0",
        "trivial-character cuspidal counts on split pairs match the three "
        "closed series (near-split, odd split, even split)")
def _coro_cuspidal_k0(order: int, sweep: int):
    n = min(order, 30)
    near = census._split_sum(n, False, HALF)
    odd, even = census._split_series(n, True), census._split_series(n, False)
    def cells():
        for m in range(1, n + 1):
            yield f"near-split m={m}", census.cuspidal_counts(m + 1, m)[0], near.coeff(m)
        for m in range(1, n + 1):
            series = odd if m % 2 else even
            yield f"split m={m}", census.cuspidal_counts(m, m)[0], series.coeff(m)
    return cells(), f"1 <= n <= {n}"


@_check("coro-cuspidal-k1",
        "nontrivial-character cuspidal counts equal eta times coefficients "
        "of prod (1+x^s)")
def _coro_cuspidal_k1(order: int, sweep: int):
    dist = prod_series(sweep, (1, 1, 0, 1))
    def expected(p: int, q: int) -> Fraction | int:
        t = p - q
        D = p + q - t * t
        if D < 0:
            return 0
        return dist.coeff(D // 2) * groups.eta(D // 2, t)
    return _pair_cells(sweep, lambda p, q: census.cuspidal_counts(p, q)[1], expected)


@_check("nilcoro-k0-odd",
        "nilpotent-support trivial-character counts (odd t) match their "
        "closed series")
def _nilcoro_k0_odd(order: int, sweep: int):
    return (_tq_cells(sweep, (1, 3, 5), lambda t: census._nilcoro_series(t, sweep),
                      _nilpotent_k0_count, 1),
            f"t in {{1,3,5}}, 2q+t <= {sweep}")


@_check("nilcoro-k0-even",
        "nilpotent-support trivial-character counts (t, q even) match their "
        "closed series")
def _nilcoro_k0_even(order: int, sweep: int):
    return (_tq_cells(sweep, (0, 2, 4), lambda t: census._nilcoro_series(t, sweep),
                      _nilpotent_k0_count, 2),
            f"t in {{0,2,4}}, q even, 2q+t <= {sweep}")


@_check("nilcoro-k1",
        "nontrivial-character nilpotent-support counts at the staircase "
        "pairs equal eta(0, t), also via the component-group case table")
def _nilcoro_k1(order: int, sweep: int):
    def cells():
        t = 0
        while t * t <= sweep:
            p, q = (t * t + t) // 2, (t * t - t) // 2
            staircase = diagrams.mu_t(t)
            per_orbit = groups.kappa1_data_BDI(staircase).count
            mult = diagrams.classify(staircase).orbits
            yield (f"t={t}", census.subset_report(census.census_bdi_k1(p, q), "nilpotent").total,
                   groups.eta(0, t))
            yield (f"t={t} component-group route", mult * per_orbit,
                   groups.eta(0, t))
            t += 1
    return cells(), f"t^2 <= {sweep}"


@_check("diii-k0-closure",
        "the equal-signature trivial-character census equals the orbit count "
        "(one local system per orbit)")
def _diii_k0_closure(order: int, sweep: int):
    bound = min(sweep, 20)
    cells = ((f"n={n}", census.census_diii_totals(n)[0], census.diii_closure_total(n))
             for n in range(bound + 1))
    return cells, f"n <= {bound}"


@_check("diii-k1-bijection",
        "all-even diagrams biject onto bipartitions of n/2, matching the "
        "nontrivial-character census")
def _diii_k1_bijection(order: int, sweep: int):
    bound = min(sweep, 20)
    parts = [list(partitions._partitions(k)) for k in range(bound // 2 + 1)]
    def cells():
        for n in range(2, bound + 1, 2):
            all_even = diagrams.lambda_even_listing(n)[0]  # rows
            images = set(map(diagrams._kappa1_parts, all_even))
            expected = {pair for a, b in zip(parts, parts[n // 2::-1]) for pair in product(a, b)}
            yield f"n={n} injective", len(images), len(all_even)
            yield f"n={n} surjective", sorted(images), sorted(expected)
            yield (f"n={n} census", census.census_diii_totals(n)[1],
                   partitions.count_bipartitions(n // 2))
    return cells(), f"even n <= {bound}"


@_check("PNt-formula", "balanced distinct-odd partition counts equal p((N-(2t^2-t))/4)")
def _pnt_formula(order: int, sweep: int):
    def cells():
        for N in range(61):
            for t in range(-5, 6):
                expected = partitions.count_partitions(
                    Fraction(N - (2 * t * t - t), 4))
                yield (f"N={N},t={t}",
                       partitions.count_distinct_odd_balanced(N, t), expected)
    return cells(), "N <= 60, |t| <= 5"


@_check("jacobi-t",
        "x^(t^2) prod (1-x^4s)(1+x^2s) equals the lattice sum over exponents "
        "2t1^2-t1+2t2^2-t2 with t1-t2=t")
def _jacobi(order: int, sweep: int):
    def cells():
        for t in range(-3, 4):
            lhs = prod_series(order, (-1, 4, 0, 1), (1, 2, 0, 1), shift=t * t)
            vals = [0] * (order + 1)
            reach = order + abs(t) + 3
            for t2 in range(-reach, reach + 1):
                t1 = t2 + t
                e = 2 * t1 * t1 - t1 + 2 * t2 * t2 - t2
                if 0 <= e <= order:
                    vals[e] += 1
            rhs = FormalSeries(tuple(vals))
            yield from _series_cells(lhs, rhs, f"t={t} ")
    return cells(), f"|t| <= 3, order {order}"


@_check("k1-series-rewrite",
        "prod 1/(1-x^4s)^2 (1+x^2s) equals prod 1/((1-x^4s)(1-x^2s))")
def _k1_rewrite(order: int, sweep: int):
    lhs = prod_series(order, (-1, 4, 0, -2), (1, 2, 0, 1))
    rhs = prod_series(order, (-1, 4, 0, -1), (-1, 2, 0, -1))
    return _series_cells(lhs, rhs), f"order {order}"


@_check("euler-smoke",
        "prod 1/(1-x^s) generates p(n) and prod (1+x^s) generates the "
        "distinct-part counts")
def _euler_smoke(order: int, sweep: int):
    inv = prod_series(order, (-1, 1, 0, -1))
    dist = prod_series(order, (1, 1, 0, 1))
    def cells():
        for n in range(order + 1):
            yield f"p({n})", partitions.count_partitions(n), inv.coeff(n)
            yield f"distinct({n})", partitions.count_distinct_partitions(n), dist.coeff(n)
    return cells(), f"n <= {order}"


def suite_ids() -> list[str]:
    return list(CHECKS)


def run_suite(selection="all", order: int = qseries.DEFAULT_ORDER,
              sweep: int = DEFAULT_SWEEP) -> list[IdentityCheck]:
    """Run the selected checks, one id or a list of ids (all of them, in
    registry order, by default), and return their results in selection
    order; failures never abort the suite."""
    if order < MIN_ORDER:
        raise ValueError(f"order must be at least {MIN_ORDER}")
    if sweep < MIN_SWEEP:
        raise ValueError(f"sweep must be at least {MIN_SWEEP}")
    if isinstance(selection, str):
        selection = CHECKS if selection == "all" else [selection]
    chosen = list(selection)
    if not chosen:
        raise ValueError("no checks selected")
    unknown = [c for c in chosen if c not in CHECKS]
    if unknown:
        raise KeyError(f"unknown check ids: {', '.join(unknown)}")
    return [CHECKS[c](order, sweep) for c in chosen]
