"""The identity harness.

Every generating-function statement the counts rely on is checked here as an
exact comparison: direct enumeration against truncated series coefficients,
or series against series. Checks run independently, never abort the suite,
and a failure always carries the first disagreement as a witness.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import census, diagrams, groups, partitions, qseries
from .qseries import BiSeries, FormalSeries, geometric_alternating, prod_series

DEFAULT_SWEEP = 24
MIN_ORDER = 10

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


def _series_cells(lhs: FormalSeries, rhs: FormalSeries, start: int = 0):
    n = min(lhs.order, rhs.order)
    for k in range(start, n + 1):
        yield f"x^{k}", lhs.coeffs[k], rhs.coeffs[k]


def _pairs_upto(sweep: int):
    for total in range(sweep + 1):
        for p in range(total + 1):
            yield p, total - p


# ---------------------------------------------------------------------------
# individual checks; each returns an IdentityCheck
# ---------------------------------------------------------------------------

def _check_number1_k0(order: int, sweep: int) -> IdentityCheck:
    def cells():
        for p, q in _pairs_upto(sweep):
            direct = census.census_bdi_k0(p, q).total
            formula = census.count_formula_k0(p, q)
            orbit = census.kappa0_orbit_sum(p, q)
            yield f"(p,q)=({p},{q})", (direct, orbit), (formula, formula)
    return _from_cells(
        "number1-k0",
        "stratum census and orbit sum both equal the coefficient of x^q in "
        "1/(2(1+x^t)) prod (1+x^s)/(1-x^s)^3 + 3(1+x^t)/(2(1+x^2t)) "
        "prod (1+x^2s)^2/(1-x^2s)^3 + (9/4)[t=0] prod 1/(1-x^2s)",
        cells(), f"all (p,q) with p+q <= {sweep}")


def _check_number1_k1(order: int, sweep: int) -> IdentityCheck:
    def cells():
        for p, q in _pairs_upto(sweep):
            yield (f"(p,q)=({p},{q})", census.census_bdi_k1(p, q).total,
                   census.count_formula_k1(p, q))
    return _from_cells(
        "number1-k1",
        "stratum census equals eta * coefficient of x^(N-t^2) in "
        "prod 1/((1-x^4s)(1-x^2s))",
        cells(), f"all (p,q) with p+q <= {sweep}")


def _check_kappa1_orbit_sum(order: int, sweep: int) -> IdentityCheck:
    bound = min(sweep, 20)
    def cells():
        for p, q in _pairs_upto(bound):
            yield (f"(p,q)=({p},{q})", census.kappa1_orbit_sum(p, q),
                   census.count_formula_k1(p, q))
    return _from_cells(
        "kappa1-orbit-sum",
        "orbit multiplicities times component-group kappa1 counts equal the "
        "closed kappa1 formula",
        cells(), f"all (p,q) with p+q <= {bound}")


def _lemma_n1_series(t: int, order: int) -> FormalSeries:
    s = prod_series(order, (1, 2, 0, 2), (-1, 2, 0, -3))
    if t:
        s = s.mul_binomial(1, t, 1).mul_binomial(1, 2 * t, -1)
    return s


def _check_lemma_n1(order: int, sweep: int) -> IdentityCheck:
    def cells():
        for t in range(6):
            series = _lemma_n1_series(t, sweep)
            for q in range(sweep + 1):
                if 2 * q + t > sweep:
                    break
                yield (f"t={t},q={q}", Fraction(census.sigma23_r_sum(q + t, q)),
                       series.coeff(q))
    return _from_cells(
        "lemma-n1",
        "sum of 2^r over class-2/3 diagrams equals the coefficient of x^q in "
        "(1+x^t)/(1+x^2t) prod (1+x^2s)^2/(1-x^2s)^3",
        cells(), f"t <= 5, 2q+t <= {sweep}")


def _two_variable_product(ou: int, ov: int) -> BiSeries:
    def half(swap: bool) -> BiSeries:
        s = BiSeries.one(ou, ov)
        def apply(ue: int, ve: int):
            nonlocal s
            if swap:
                ue, ve = ve, ue
            if ue <= ou and ve <= ov:
                s = s.mul_binomial(1, ue, ve, 1).mul_binomial(-1, ue, ve, -1)
                return True
            return False
        m = 0
        while apply(2 * m + 2, 2 * m + 1):
            m += 1
        m = 0
        while apply(2 * m, 2 * m + 1):
            m += 1
        m = 1
        while 2 * m <= ou and 2 * m <= ov:
            s = s.mul_binomial(-1, 2 * m, 2 * m, -1)
            m += 1
        return s
    return half(False).add(half(True))


def _check_lemma_n1_2var(order: int, sweep: int) -> IdentityCheck:
    bound = min(sweep, 16)
    two_var = _two_variable_product(bound, bound)
    def cells():
        for p in range(bound + 1):
            for q in range(bound + 1):
                yield (f"u^{p}v^{q}", two_var.coeff(p, q),
                       Fraction(2 * census.sigma23_r_sum(p, q)))
        diag = two_var.diagonal()
        for n in range(bound + 1):
            total = sum(2 * census.sigma23_r_sum(p, n - p) for p in range(n + 1))
            yield f"diagonal x^{n}", diag.coeff(n), Fraction(total)
    return _from_cells(
        "lemma-n1-2var",
        "two-variable signature-marked product (and its u=v diagonal) equals "
        "twice the class-2/3 sums of 2^r",
        cells(), f"u,v exponents <= {bound}")


def _check_numbert_closure(order: int, sweep: int) -> IdentityCheck:
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
            yield f"T'_{N}=T0_{N}", Fraction(census_total), Fraction(formula_total)
            yield f"series all, x^{N}", s_all.coeff(N), Fraction(t0[N][0])
        for n in range(half_order + 1):
            if 2 * n + 1 <= sweep:
                yield f"series odd, x^{n}", s_odd.coeff(n), Fraction(t0[2 * n + 1][0])
            yield f"series even, x^{n}", s_even.coeff(n), Fraction(t0[2 * n][0])
    return _from_cells(
        "numbert-closure",
        "summing censuses over p+q=N matches the three closed series for the "
        "aggregated trivial-character totals",
        cells(), f"N <= {sweep}")


def _check_psi1_a(order: int, sweep: int) -> IdentityCheck:
    lhs = qseries.bilateral_sum(HALF, lambda k: geometric_alternating(k, 2 * k, order),
                                order=order)
    rhs = prod_series(order, (1, 2, -1, 2), (-1, 2, 0, 2), (-1, 2, -1, -2), (1, 2, 0, -2),
                      scalar=HALF)
    return _from_cells(
        "psi1-a",
        "bilateral sum of x^k/(1+x^2k) equals (1/2) prod (1+x^(2s-1))^2 "
        "(1-x^2s)^2 / ((1-x^(2s-1))^2 (1+x^2s)^2)",
        _series_cells(lhs, rhs), f"order {order}")


def _b_term(k: int, order: int) -> FormalSeries:
    return (geometric_alternating(k, 4 * k, order)
            + geometric_alternating(3 * k, 4 * k, order))


def _check_psi1_b(order: int, sweep: int) -> IdentityCheck:
    lhs = qseries.bilateral_sum(1, lambda k: _b_term(k, order), order=order)
    rhs = prod_series(order, (1, 2, -1, 1), (-1, 4, 0, 2), (-1, 2, -1, -1), (1, 4, 0, -2))
    return _from_cells(
        "psi1-b",
        "bilateral sum of x^k(1+x^2k)/(1+x^4k) equals prod (1+x^(2s-1)) "
        "(1-x^4s)^2 / ((1-x^(2s-1)) (1+x^4s)^2)",
        _series_cells(lhs, rhs), f"order {order}")


def _check_psi1_c(order: int, sweep: int) -> IdentityCheck:
    zero = FormalSeries.zero(order)
    odd_sum = qseries.bilateral_sum(
        0, lambda k: _b_term(k, order) if k % 2 else zero, order=order)
    even_sum = qseries.bilateral_sum(
        1, lambda k: _b_term(k, order) if k % 2 == 0 else zero, order=order)
    odd_rhs = prod_series(order, (1, 4, -2, 1), (-1, 8, 0, 2), (-1, 4, -2, -1),
                          (1, 8, -4, -2), scalar=2, shift=1)
    even_rhs = prod_series(order, (1, 4, -2, 1), (-1, 8, 0, 2), (-1, 4, -2, -1),
                           (1, 8, 0, -2))
    def cells():
        for loc, lhs, rhs in _series_cells(odd_sum, odd_rhs):
            yield "odd-k " + loc, lhs, rhs
        for loc, lhs, rhs in _series_cells(even_sum, even_rhs):
            yield "even-k " + loc, lhs, rhs
    return _from_cells(
        "psi1-c",
        "odd-index and even-index halves of the second bilateral sum match "
        "their own product forms",
        cells(), f"order {order}")


def _check_oe_split(order: int, sweep: int) -> IdentityCheck:
    lhs = prod_series(order, (1, 2, -1, 1), (-1, 2, -1, -1))
    rhs = (prod_series(order, (1, 8, 0, 2), (1, 4, 0, 1), (1, 2, 0, 2), scalar=2, shift=1)
           + prod_series(order, (1, 8, -4, 2), (1, 4, 0, 1), (1, 2, 0, 2)))
    return _from_cells(
        "oe-split",
        "prod (1+x^(2s-1))/(1-x^(2s-1)) splits as 2x prod (1+x^8s)^2 (1+x^4s)"
        " (1+x^2s)^2 + prod (1+x^(8s-4))^2 (1+x^4s) (1+x^2s)^2",
        _series_cells(lhs, rhs), f"order {order}")


def _check_eqn_oeterms(order: int, sweep: int) -> IdentityCheck:
    lhs = prod_series(order, (1, 2, -1, 2), (-1, 2, -1, -2))
    rhs = (prod_series(order, (1, 4, 0, 4), (1, 2, 0, 4), scalar=4, shift=1)
           + prod_series(order, (1, 4, -2, 4), (1, 2, 0, 4)))
    return _from_cells(
        "eqn-oeterms",
        "prod ((1+x^(2s-1))/(1-x^(2s-1)))^2 equals 4x prod (1+x^4s)^4 "
        "(1+x^2s)^4 + prod (1+x^(4s-2))^4 (1+x^2s)^4",
        _series_cells(lhs, rhs), f"order {order}")


def _check_bb_odd(order: int, sweep: int) -> IdentityCheck:
    half_order = (sweep - 1) // 2
    rhs = prod_series(half_order, (1, 1, 0, 2), (1, 2, 0, 2), scalar=2)
    def cells():
        for n in range(half_order + 1):
            direct = sum(census.b_tilde(p, 2 * n + 1 - p) for p in range(2 * n + 2))
            yield f"x^{n}", Fraction(direct), rhs.coeff(n)
    return _from_cells(
        "bb-odd",
        "aggregated Richardson character counts (odd total size) equal "
        "2 prod (1+x^s)^2 (1+x^2s)^2",
        cells(), f"2n+1 <= {sweep}")


def _check_bb_even(order: int, sweep: int) -> IdentityCheck:
    half_order = sweep // 2
    rhs = prod_series(half_order, (1, 1, 0, 2), (1, 2, -1, 2), scalar=HALF)
    def cells():
        # constant terms differ by convention: the empty pair carries no
        # Richardson diagram but the series starts at 1/2
        for n in range(1, half_order + 1):
            direct = sum(census.b_tilde(p, 2 * n - p) for p in range(2 * n + 1))
            yield f"x^{n}", Fraction(direct), rhs.coeff(n)
    return _from_cells(
        "bb-even",
        "aggregated Richardson character counts (even total size) equal "
        "(1/2) prod (1+x^s)^2 (1+x^(2s-1))^2",
        cells(), f"1 <= n, 2n <= {sweep}")


def _check_tb1(order: int, sweep: int) -> IdentityCheck:
    def cells():
        for t in (1, 3, 5):
            series = prod_series(sweep, (1, 2, -1, 2), (-1, 2, 0, -2)).mul_binomial(1, t, -1)
            for q in range(sweep + 1):
                if 2 * q + t > sweep:
                    break
                yield (f"t={t},q={q}", Fraction(census.b_tilde(q + t, q)),
                       series.coeff(q))
        for t in (0, 2, 4):
            series = prod_series(sweep, (1, 2, 0, 2), (-1, 2, 0, -2))
            if t == 0:
                series = series.scale(HALF)
            else:
                series = series.mul_binomial(1, t, -1)
            for q in range(0, sweep + 1, 2):
                if 2 * q + t > sweep or (t == 0 and q == 0):
                    continue
                yield (f"t={t},q={q}", Fraction(census.b_tilde(q + t, q)),
                       series.coeff(q))
    return _from_cells(
        "tb1",
        "per-pair Richardson character counts match 1/(1+x^t) times the "
        "parity-matched square products",
        cells(), f"|t| <= 5, 2q+t <= {sweep}")


def _check_b2_odd(order: int, sweep: int) -> IdentityCheck:
    half_order = (sweep - 1) // 2
    rhs = prod_series(half_order, (1, 1, 0, 2), (1, 4, 0, 1), scalar=2)
    def cells():
        for n in range(half_order + 1):
            direct = sum(census.richardson_pi_sums(p, 2 * n + 1 - p)[1]
                         for p in range(2 * n + 2))
            yield f"x^{n}", Fraction(direct), rhs.coeff(n)
    return _from_cells(
        "b2-odd",
        "class-2 Richardson character counts (odd total size) equal "
        "2 prod (1+x^s)^2 (1+x^4s)",
        cells(), f"2n+1 <= {sweep}")


def _check_b2_even(order: int, sweep: int) -> IdentityCheck:
    half_order = sweep // 2
    rhs = prod_series(half_order, (1, 1, 0, 2), (1, 4, -2, 1))
    def cells():
        for n in range(1, half_order + 1):
            direct = sum(census.richardson_pi_sums(p, 2 * n - p)[1]
                         for p in range(2 * n + 1))
            yield f"x^{n}", Fraction(direct), rhs.coeff(n)
    return _from_cells(
        "b2-even",
        "class-2 Richardson character counts (even total size) equal "
        "prod (1+x^s)^2 (1+x^(4s-2))",
        cells(), f"1 <= n, 2n <= {sweep}")


def _check_b2_weighted(order: int, sweep: int) -> IdentityCheck:
    def cells():
        for N in range(1, sweep + 1):
            direct = sum(census.richardson_pi_sums(p, N - p)[1] for p in range(N + 1))
            yield (f"N={N}", direct, 2 * partitions.weighted_odd_partition_sum(N))
    return _from_cells(
        "b2-weighted-oracle",
        "class-2 Richardson counts equal twice the gap-weighted sums over "
        "odd-part partitions",
        cells(), f"1 <= N <= {sweep}")


def _fn_cells(variant: str, series: FormalSeries, start: int):
    top = min(series.order, 30)
    for m in range(start, top + 1):
        yield f"m={m}", Fraction(census.theta_k0_count(variant, m)), series.coeff(m)


def _check_fn1B(order: int, sweep: int) -> IdentityCheck:
    rhs = prod_series(min(order, 30), (1, 2, 0, 2), (1, 1, 0, 2))
    return _from_cells(
        "fn1B", "induced class-1 counts (B side) match prod (1+x^2s)^2 (1+x^s)^2",
        _fn_cells("ind1-B", rhs, 0), "m <= 30")


def _check_fn1D(order: int, sweep: int) -> IdentityCheck:
    rhs = prod_series(min(order, 30), (1, 2, -1, 2), (1, 1, 0, 2))
    return _from_cells(
        "fn1D", "induced class-1 counts (D side) match prod (1+x^(2s-1))^2 (1+x^s)^2",
        _fn_cells("ind1-D", rhs, 0), "m <= 30")


def _check_fn2B(order: int, sweep: int) -> IdentityCheck:
    n = min(order, 30)
    rhs = (prod_series(n, (1, 2, 0, 2), (1, 1, 0, 2), scalar=HALF)
           + prod_series(n, (1, 4, 0, 1), (1, 2, 0, 1), scalar=THREE_HALVES))
    return _from_cells(
        "fn2B",
        "split/induced class-2 counts (B side) match (1/2) prod (1+x^2s)^2 "
        "(1+x^s)^2 + (3/2) prod (1+x^4s)(1+x^2s); constants differ by the "
        "boundary convention",
        _fn_cells("split-B", rhs, 1), "1 <= m <= 30")


def _check_fn_split_D(order: int, sweep: int) -> IdentityCheck:
    n = min(order, 30)
    rhs = (prod_series(n, (1, 2, -1, 2), (1, 1, 0, 2), scalar=QUARTER)
           + prod_series(n, (1, 4, -2, 1), (1, 2, 0, 1), scalar=THREE_HALVES))
    return _from_cells(
        "fn-split-D",
        "split counts (D side) match (1/4) prod (1+x^(2s-1))^2 (1+x^s)^2 + "
        "(3/2) prod (1+x^(4s-2))(1+x^2s) away from the half-constant boundary",
        _fn_cells("split-D", rhs, 1), "1 <= m <= 30")


def _check_fn_ind2_D(order: int, sweep: int) -> IdentityCheck:
    n = min(order, 30)
    rhs = (prod_series(n, (1, 2, -1, 2), (1, 1, 0, 2), scalar=HALF)
           + prod_series(n, (1, 4, -2, 1), (1, 2, 0, 1), scalar=THREE_HALVES))
    return _from_cells(
        "fn-ind2-D",
        "induced class-2 counts (D side) match (1/2) prod (1+x^(2s-1))^2 "
        "(1+x^s)^2 + (3/2) prod (1+x^(4s-2))(1+x^2s)",
        _fn_cells("ind2-D", rhs, 1), "1 <= m <= 30")


def _check_coro_cuspidal_k0(order: int, sweep: int) -> IdentityCheck:
    n = min(order, 30)
    near = (prod_series(n, (1, 2, 0, 2), (1, 1, 0, 2), scalar=HALF)
            + prod_series(n, (1, 4, 0, 1), (1, 2, 0, 1), scalar=THREE_HALVES))
    odd = prod_series(n, (1, 4, 0, 4), (1, 2, 0, 4), shift=1)
    even = (prod_series(n, (1, 4, -2, 4), (1, 2, 0, 4), scalar=QUARTER)
            + prod_series(n, (1, 4, -2, 1), (1, 2, 0, 1), scalar=THREE_HALVES))
    def cells():
        for m in range(1, n + 1):
            yield (f"near-split m={m}",
                   Fraction(census.cuspidal_counts(m + 1, m)[0]), near.coeff(m))
        for m in range(1, n + 1):
            series = odd if m % 2 else even
            yield (f"split m={m}",
                   Fraction(census.cuspidal_counts(m, m)[0]), series.coeff(m))
    return _from_cells(
        "coro-cuspidal-k0",
        "trivial-character cuspidal counts on split pairs match the three "
        "closed series (near-split, odd split, even split)",
        cells(), "1 <= n <= 30")


def _check_coro_cuspidal_k1(order: int, sweep: int) -> IdentityCheck:
    dist = prod_series(sweep, (1, 1, 0, 1))
    def cells():
        for p, q in _pairs_upto(sweep):
            t = p - q
            D = p + q - t * t
            expected = Fraction(0)
            if D >= 0:
                expected = dist.coeff(D // 2) * groups.eta(D // 2, t)
            yield (f"(p,q)=({p},{q})",
                   Fraction(census.cuspidal_counts(p, q)[1]), expected)
    return _from_cells(
        "coro-cuspidal-k1",
        "nontrivial-character cuspidal counts equal eta times coefficients "
        "of prod (1+x^s)",
        cells(), f"all (p,q) with p+q <= {sweep}")


def _nilcoro_series(t: int, order: int, odd_side: bool) -> FormalSeries:
    if odd_side:
        a = prod_series(order, (1, 2, -1, 2), (-1, 2, 0, -2), scalar=HALF)
        b = prod_series(order, (1, 4, -2, 1), (-1, 2, 0, -2), scalar=THREE_HALVES)
    else:
        a = prod_series(order, (1, 2, 0, 2), (-1, 2, 0, -2), scalar=HALF)
        b = prod_series(order, (1, 4, 0, 1), (-1, 2, 0, -2), scalar=THREE_HALVES)
    if t == 0:
        a = a.scale(HALF)
    else:
        a = a.mul_binomial(1, t, -1)
        b = b.mul_binomial(1, t, 1).mul_binomial(1, 2 * t, -1)
    return a + b


def _check_nilcoro_k0_odd(order: int, sweep: int) -> IdentityCheck:
    def cells():
        for t in (1, 3, 5):
            series = _nilcoro_series(t, sweep, odd_side=True)
            for q in range(sweep + 1):
                if 2 * q + t > sweep:
                    break
                yield (f"t={t},q={q}",
                       Fraction(census.nilpotent_support_counts(q + t, q)[0]),
                       series.coeff(q))
    return _from_cells(
        "nilcoro-k0-odd",
        "nilpotent-support trivial-character counts (odd t) match their "
        "closed series",
        cells(), f"t in {{1,3,5}}, 2q+t <= {sweep}")


def _check_nilcoro_k0_even(order: int, sweep: int) -> IdentityCheck:
    def cells():
        for t in (0, 2, 4):
            series = _nilcoro_series(t, sweep, odd_side=False)
            for q in range(0, sweep + 1, 2):
                if 2 * q + t > sweep or (t == 0 and q == 0):
                    continue
                yield (f"t={t},q={q}",
                       Fraction(census.nilpotent_support_counts(q + t, q)[0]),
                       series.coeff(q))
    return _from_cells(
        "nilcoro-k0-even",
        "nilpotent-support trivial-character counts (t, q even) match their "
        "closed series",
        cells(), f"t in {{0,2,4}}, q even, 2q+t <= {sweep}")


def _check_nilcoro_k1(order: int, sweep: int) -> IdentityCheck:
    def cells():
        t = 0
        while t * t <= sweep:
            p, q = (t * t + t) // 2, (t * t - t) // 2
            staircase = diagrams.mu_t(t)
            per_orbit = groups.kappa1_data_BDI(staircase).count
            mult = diagrams.orbit_multiplicity(staircase)
            yield (f"t={t}", census.nilpotent_support_counts(p, q)[1],
                   groups.eta(0, t))
            yield (f"t={t} component-group route", mult * per_orbit,
                   groups.eta(0, t))
            t += 1
    return _from_cells(
        "nilcoro-k1",
        "nontrivial-character nilpotent-support counts at the staircase "
        "pairs equal eta(0, t), also via the component-group case table",
        cells(), f"t^2 <= {sweep}")


def _check_diii_k0_closure(order: int, sweep: int) -> IdentityCheck:
    bound = min(sweep, 20)
    def cells():
        for n in range(bound + 1):
            k0, _ = census.census_diii(n)
            yield f"n={n}", k0.total, census.diii_closure_total(n)
    return _from_cells(
        "diii-k0-closure",
        "the equal-signature trivial-character census equals the orbit count "
        "(one local system per orbit)",
        cells(), f"n <= {bound}")


def _check_diii_k1_bijection(order: int, sweep: int) -> IdentityCheck:
    bound = min(sweep, 20)
    def cells():
        for n in range(2, bound + 1, 2):
            all_even = [d for d in diagrams.enum_lambda(n) if d.all_parts_even()]
            images = {diagrams.diii_kappa1_bijection(d) for d in all_even}
            expected = {
                partitions.BiPartition(a, b)
                for k in range(n // 2 + 1)
                for a in partitions.enum_partitions(k)
                for b in partitions.enum_partitions(n // 2 - k)
            }
            yield f"n={n} injective", len(images), len(all_even)
            yield f"n={n} surjective", sorted(map(_bipartition_key, images)), \
                sorted(map(_bipartition_key, expected))
            _, k1 = census.census_diii(n)
            yield f"n={n} census", k1.total, partitions.count_bipartitions(n // 2)
    return _from_cells(
        "diii-k1-bijection",
        "all-even diagrams biject onto bipartitions of n/2, matching the "
        "nontrivial-character census",
        cells(), f"even n <= {bound}")


def _bipartition_key(b):
    return (tuple(b.first.parts), tuple(b.second.parts))


def _check_pnt_formula(order: int, sweep: int) -> IdentityCheck:
    def cells():
        for N in range(61):
            for t in range(-5, 6):
                expected = partitions.count_partitions(
                    Fraction(N - (2 * t * t - t), 4))
                yield (f"N={N},t={t}",
                       len(partitions.enum_distinct_odd_balanced(N, t)), expected)
    return _from_cells(
        "PNt-formula",
        "balanced distinct-odd partition counts equal p((N-(2t^2-t))/4)",
        cells(), "N <= 60, |t| <= 5")


def _check_jacobi(order: int, sweep: int) -> IdentityCheck:
    def cells():
        for t in range(-3, 4):
            lhs = prod_series(order, (-1, 4, 0, 1), (1, 2, 0, 1), shift=t * t)
            vals = [Fraction(0)] * (order + 1)
            reach = order + abs(t) + 3
            for t2 in range(-reach, reach + 1):
                t1 = t2 + t
                e = 2 * t1 * t1 - t1 + 2 * t2 * t2 - t2
                if 0 <= e <= order:
                    vals[e] += 1
            rhs = FormalSeries(tuple(vals))
            for loc, a, b in _series_cells(lhs, rhs):
                yield f"t={t} {loc}", a, b
    return _from_cells(
        "jacobi-t",
        "x^(t^2) prod (1-x^4s)(1+x^2s) equals the lattice sum over exponents "
        "2t1^2-t1+2t2^2-t2 with t1-t2=t",
        cells(), f"|t| <= 3, order {order}")


def _check_k1_rewrite(order: int, sweep: int) -> IdentityCheck:
    lhs = prod_series(order, (-1, 4, 0, -2), (1, 2, 0, 1))
    rhs = prod_series(order, (-1, 4, 0, -1), (-1, 2, 0, -1))
    return _from_cells(
        "k1-series-rewrite",
        "prod 1/(1-x^4s)^2 (1+x^2s) equals prod 1/((1-x^4s)(1-x^2s))",
        _series_cells(lhs, rhs), f"order {order}")


def _check_euler_smoke(order: int, sweep: int) -> IdentityCheck:
    inv = prod_series(order, (-1, 1, 0, -1))
    dist = prod_series(order, (1, 1, 0, 1))
    def cells():
        for n in range(order + 1):
            yield f"p({n})", Fraction(partitions.count_partitions(n)), inv.coeff(n)
            yield (f"distinct({n})",
                   Fraction(partitions.count_distinct_partitions(n)), dist.coeff(n))
    return _from_cells(
        "euler-smoke",
        "prod 1/(1-x^s) generates p(n) and prod (1+x^s) generates the "
        "distinct-part counts",
        cells(), f"n <= {order}")


CHECKS = {
    "number1-k0": _check_number1_k0,
    "number1-k1": _check_number1_k1,
    "kappa1-orbit-sum": _check_kappa1_orbit_sum,
    "lemma-n1": _check_lemma_n1,
    "lemma-n1-2var": _check_lemma_n1_2var,
    "numbert-closure": _check_numbert_closure,
    "psi1-a": _check_psi1_a,
    "psi1-b": _check_psi1_b,
    "psi1-c": _check_psi1_c,
    "oe-split": _check_oe_split,
    "eqn-oeterms": _check_eqn_oeterms,
    "bb-odd": _check_bb_odd,
    "bb-even": _check_bb_even,
    "tb1": _check_tb1,
    "b2-odd": _check_b2_odd,
    "b2-even": _check_b2_even,
    "b2-weighted-oracle": _check_b2_weighted,
    "fn1B": _check_fn1B,
    "fn1D": _check_fn1D,
    "fn2B": _check_fn2B,
    "fn-split-D": _check_fn_split_D,
    "fn-ind2-D": _check_fn_ind2_D,
    "coro-cuspidal-k0": _check_coro_cuspidal_k0,
    "coro-cuspidal-k1": _check_coro_cuspidal_k1,
    "nilcoro-k0-odd": _check_nilcoro_k0_odd,
    "nilcoro-k0-even": _check_nilcoro_k0_even,
    "nilcoro-k1": _check_nilcoro_k1,
    "diii-k0-closure": _check_diii_k0_closure,
    "diii-k1-bijection": _check_diii_k1_bijection,
    "PNt-formula": _check_pnt_formula,
    "jacobi-t": _check_jacobi,
    "k1-series-rewrite": _check_k1_rewrite,
    "euler-smoke": _check_euler_smoke,
}


def suite_ids() -> list[str]:
    return list(CHECKS)


def run_suite(selection="all", order: int = qseries.DEFAULT_ORDER,
              sweep: int = DEFAULT_SWEEP) -> list[IdentityCheck]:
    """Run the selected checks (all of them by default) and return their
    results in registry order; failures never abort the suite."""
    if order < MIN_ORDER:
        raise ValueError(f"order must be at least {MIN_ORDER}")
    if sweep < 0:
        raise ValueError("sweep must be nonnegative")
    if selection == "all":
        chosen = list(CHECKS)
    else:
        chosen = list(selection)
        unknown = [c for c in chosen if c not in CHECKS]
        if unknown:
            raise KeyError(f"unknown check ids: {', '.join(unknown)}")
    return [CHECKS[c](order, sweep) for c in chosen]
