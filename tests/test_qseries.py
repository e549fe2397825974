"""Ring behaviour, product expansion, bilateral sums, and the expression
grammar."""
from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as st

import series_oracles as oracles
from sheaf_census import qseries as qs
from sheaf_census.cli import main
from sheaf_census.qseries import FormalSeries


def geometric(order):
    return FormalSeries.from_values([1] * (order + 1))


def test_inverse_geometric():
    one_minus_x = FormalSeries.from_values([1, -1], order=4)
    assert one_minus_x.inverse() == geometric(4)


def test_mul_by_inverse_is_one():
    s = FormalSeries.from_values([2, 5, -1, Fraction(1, 3)], order=6)
    assert s * s.inverse() == FormalSeries.from_values([1], 6)


def test_coeff_bounds():
    s = FormalSeries.from_values([1], 3)
    assert s.coeff(0) == 1
    assert s.coeff(-1) == 0
    with pytest.raises(ValueError):
        s.coeff(4)
    # a negative exponent reads 0, not a cell indexed from the far end
    b = qs.BiSeries.one(2, 2).mul_binomial(-1, 1, 1, -1)
    assert b.coeff(2, 2) == 1
    assert b.coeff(-1, -1) == b.coeff(-1, 2) == b.coeff(2, -1) == 0
    with pytest.raises(ValueError):
        b.coeff(3, 0)


def test_binary_ops_truncate_to_min_order():
    a = FormalSeries.from_values([1], 10)
    b = FormalSeries.from_values([1], 4)
    assert (a + b).order == 4
    assert (a * b).order == 4


def test_eval_product_examples():
    # the two-family product counting type-B irreducibles
    s = qs.prod_series(2, (1, 2, 0, 1), (1, 1, 0, 1))
    assert list(s.coeffs) == [1, 1, 2]
    # the type-D series keeps its 1/2 constant
    s = qs.prod_series(1, (1, 2, -1, 1), (1, 1, 0, 1), scalar=Fraction(1, 2))
    assert list(s.coeffs) == [Fraction(1, 2), 1]
    assert qs.prod_series(5) == FormalSeries.from_values([1], 5)


def test_coeff_examples():
    s = qs.prod_series(2, (1, 2, 0, 2), (1, 1, 0, 2))
    assert s.coeff(2) == 5
    s = qs.prod_series(4, (-1, 4, 0, -1), (-1, 2, 0, -1), scalar=2)
    assert s.coeff(4) == 6
    # substitution route: coefficient of x^4 in prod 1/(1-x^2s) is p(2)
    s = qs.prod_series(4, (-1, 2, 0, -1))
    assert s.coeff(4) == 2


def test_product_spec_validation():
    # prod_series validates every factor, and the shift, before expanding
    with pytest.raises(ValueError):
        qs.prod_series(5, (1, 1, 0, 1), (1, 1, -1, 1))
    with pytest.raises(ValueError):
        qs.prod_series(5, (1, 1, 0, 1), shift=-1)


@pytest.mark.parametrize("factor, shift, message", [
    ((2, 1, 0, 1), 0, "^sign must be \\+1 or -1$"),
    ((1, 0, 1, 1), 0, "^stride must be positive$"),
    ((1, 1, -1, 1), 0, "^lowest factor exponent must be >= 1$"),
    ((1, 1, 0, 1), -1, "^negative exponents are not representable$"),
], ids=["sign", "stride", "lowest-exponent", "shift"])
def test_prod_series_refusals_name_their_fault(factor, shift, message):
    with pytest.raises(ValueError, match=message):
        qs.prod_series(5, factor, shift=shift)


def test_negative_orders_are_refused():
    with pytest.raises(ValueError, match="order must be nonnegative, got -1"):
        qs.bilateral_sum(1, lambda k: (), order=-1)
    with pytest.raises(ValueError, match="orders must be nonnegative, got \\(-1, 2\\)"):
        qs.BiSeries.one(-1, 2)


def test_biseries_mul_binomial_refuses_sign_2():
    with pytest.raises(ValueError, match="^sign must be \\+1 or -1$"):
        qs.BiSeries.one(3, 3).mul_binomial(2, 1, 1, 1)


def test_bilateral_constant_term():
    total = qs.bilateral_sum(Fraction(1, 2), lambda k: ((k, 2 * k),), order=12)
    assert total.coeff(0) == Fraction(1, 2)
    assert total.order == 12
    assert total.coeff(1) == 2  # 2x/(1+x^2) from k = 1


def _oracle_bilateral(constant_term, terms, order):
    """The Fraction-series sum of the same (start, step) terms."""
    def pos_term(k):
        total = FormalSeries.from_values([0], order)
        for start, step in terms(k):
            total = total + oracles.geometric_alternating(start, step, order)
        return total
    return oracles.bilateral_sum(constant_term, pos_term, order)


# the term families of verify's psi1-a, psi1-b and the two halves of psi1-c
PSI_TERMS = {
    "psi1-a": (Fraction(1, 2), lambda k: ((k, 2 * k),)),
    "psi1-b": (1, lambda k: ((k, 4 * k), (3 * k, 4 * k))),
    "psi1-c odd": (0, lambda k: ((k, 4 * k), (3 * k, 4 * k)) if k % 2 else ()),
    "psi1-c even": (1, lambda k: () if k % 2 else ((k, 4 * k), (3 * k, 4 * k))),
}


@pytest.mark.parametrize("family", sorted(PSI_TERMS))
def test_bilateral_sum_matches_the_fraction_oracle_on_the_psi_terms(family):
    constant_term, terms = PSI_TERMS[family]
    for order in range(61):
        assert (qs.bilateral_sum(constant_term, terms, order)
                == _oracle_bilateral(constant_term, terms, order)), order


@settings(max_examples=60, deadline=None)
@given(st.fractions(min_value=-4, max_value=4, max_denominator=6),
       st.lists(st.tuples(st.integers(0, 4), st.integers(1, 5), st.integers(0, 4),
                          st.integers(1, 5)), max_size=4),
       st.integers(0, 60))
def test_bilateral_sum_matches_the_fraction_oracle(constant_term, lines, order):
    # term k holds (a*k + b, c*k + d) for each drawn (a, b, c, d)
    def terms(k):
        return [(a * k + b, c * k + d) for a, b, c, d in lines]
    assert (qs.bilateral_sum(constant_term, terms, order)
            == _oracle_bilateral(constant_term, terms, order))


@pytest.mark.parametrize("pair", [(0, 2), (1, 0), (-1, 3), (2, -2)])
def test_bilateral_sum_refuses_a_nonpositive_start_or_step(pair):
    with pytest.raises(ValueError, match="start and step must be positive"):
        qs.bilateral_sum(1, lambda k: ((k, 2 * k), pair), order=8)


def test_mul_binomial_past_order_is_identity():
    # callers multiply by (1+x^t)^(+-1) without checking t against the order
    s = FormalSeries.from_values([1, 2, Fraction(1, 3), -4], order=5)
    for exponent in (6, 7, 20):
        for sign in (1, -1):
            for power in (1, 3, -1, -2):
                assert s.mul_binomial(sign, exponent, power) == s
    assert s.mul_binomial(1, 5, -1) != s


small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@settings(max_examples=60, deadline=None)
@given(st.lists(small_rationals, min_size=6, max_size=6),
       st.lists(small_rationals, min_size=6, max_size=6),
       st.lists(small_rationals, min_size=6, max_size=6))
def test_ring_axioms(a, b, c):
    A = FormalSeries.from_values(a)
    B = FormalSeries.from_values(b)
    C = FormalSeries.from_values(c)
    assert A + B == B + A
    assert A * B == B * A
    assert (A + B) + C == A + (B + C)
    assert (A * B) * C == A * (B * C)
    assert A * (B + C) == A * B + A * C
    assert A - A == FormalSeries.from_values([0], 5)


def test_ring_axioms_at_order_fifty():
    a = qs.prod_series(50, (1, 1, 0, 1))
    b = qs.prod_series(50, (-1, 2, 0, -1))
    c = qs.prod_series(50, (1, 3, -1, 2), scalar=Fraction(2, 3))
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@settings(max_examples=40, deadline=None)
@given(st.lists(small_rationals, min_size=6, max_size=6))
def test_unit_inverse(values):
    if not values[0]:
        values = [Fraction(1)] + values[1:]
    s = FormalSeries.from_values(values)
    assert s * s.inverse() == FormalSeries.from_values([1], 5)


def _binomial(p, k):
    """C(p, k) for any integer p, negative included."""
    return prod(range(p - k + 1, p + 1)) // prod(range(1, k + 1))


def test_huge_power_costs_one_pass():
    # prod (1 + sign*x^s)^P: x^1 comes from s=1 only, x^2 from s=1 twice or s=2 once
    for power in (10 ** 9, -10 ** 9, 7, -7, 1, -1):
        for sign in (1, -1):
            s = qs.prod_series(10, (sign, 1, 0, power))
            assert s.coeff(1) == sign * _binomial(power, 1)
            assert s.coeff(2) == _binomial(power, 2) + sign * _binomial(power, 1)
            assert all(type(c) is Fraction for c in s.coeffs)
    assert _binomial(5, 2) == comb(5, 2) and _binomial(-3, 2) == 6
    assert qs.prod_series(10, (1, 1, 0, 0)) == FormalSeries.from_values([1], 10)


def test_huge_power_from_the_command_line(capsys):
    assert main(["series", "--expr", "prod(1+x^{1s})^1000000000", "--order", "10"]) == 0
    assert '"1": "1000000000"' in capsys.readouterr().out


# --- differential tests against the Fraction-only oracles ---------------------

factor_families = st.integers(1, 5).flatmap(lambda stride: st.tuples(
    st.sampled_from((1, -1)), st.just(stride), st.integers(1 - stride, 3),
    st.integers(-4, 4)))
rationals = st.fractions(min_value=-9, max_value=9, max_denominator=12)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 60), st.lists(factor_families, max_size=4),
       rationals, st.integers(0, 8))
def test_prod_series_matches_oracle(order, factors, scalar, shift):
    got = qs.prod_series(order, *factors, scalar=scalar, shift=shift)
    assert got == oracles.prod_series(order, *factors, scalar=scalar, shift=shift)
    assert all(type(c) is Fraction for c in got.coeffs)


@settings(max_examples=120, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=40),
       st.lists(rationals, min_size=1, max_size=40))
def test_inverse_and_product_match_oracle(a, b):
    A, B = FormalSeries.from_values(a), FormalSeries.from_values(b)
    assert A * B == oracles.product(A, B)
    assert all(type(c) is Fraction for c in (A * B).coeffs)
    if a[0]:
        assert A.inverse() == oracles.inverse(A)
        assert all(type(c) is Fraction for c in A.inverse().coeffs)


@pytest.mark.parametrize("c0", [Fraction(2, 3), Fraction(-5), Fraction(-7, 4), Fraction(1)])
def test_inverse_non_unit_constant_term(c0):
    s = qs.prod_series(40, (-1, 1, 0, 1), (1, 2, -1, 2), scalar=Fraction(3, 5))
    s = FormalSeries((c0,) + s.coeffs[1:])
    assert s.inverse() == oracles.inverse(s)
    assert s * s.inverse() == FormalSeries.from_values([1], 40)
    t = qs.prod_series(30, (1, 3, -1, -2), scalar=Fraction(-5, 7))
    assert s * t == oracles.product(s, t)


sparse_rationals = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), rationals)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 3), st.integers(0, 3),
       st.sampled_from((1, -1)), st.integers(-4, 4), st.data())
def test_biseries_mul_binomial_matches_oracle(u_order, v_order, ue, ve, sign, power, data):
    if ue + ve < 1:
        ue = 1
    matrix = data.draw(st.lists(st.lists(sparse_rationals, min_size=v_order + 1,
                                         max_size=v_order + 1),
                                min_size=u_order + 1, max_size=u_order + 1))
    got = qs.BiSeries(u_order, v_order, matrix).mul_binomial(sign, ue, ve, power)
    assert got.m == oracles.bi_mul_binomial(matrix, sign, ue, ve, power)
    assert all(type(c) is Fraction for row in got.m for c in row)


def test_biseries_huge_power():
    # (1 + sign*uv)^P puts sign^k*C(P, k) at u^k v^k and nothing off the diagonal
    for power in (10 ** 5, -10 ** 5):
        for sign in (1, -1):
            b = qs.BiSeries.one(4, 4).mul_binomial(sign, 1, 1, power)
            for i in range(5):
                for j in range(5):
                    expected = sign ** i * _binomial(power, i) if i == j else 0
                    assert b.coeff(i, j) == expected, (power, sign, i, j)


def test_biseries_matches_single_variable_diagonal():
    # (1+uv)/(1-uv) at u = v = x, each antidiagonal i+j = n summed, is (1+x^2)/(1-x^2)
    b = qs.BiSeries.one(8, 8).mul_binomial(1, 1, 1, 1).mul_binomial(-1, 1, 1, -1)
    manual = [1, 0, 2, 0, 2, 0, 2, 0, 2]
    assert [sum(b.coeff(i, n - i) for i in range(n + 1)) for n in range(9)] == manual
    assert b.coeff(3, 3) == 2
    assert b.coeff(2, 3) == 0


# --- expression grammar -----------------------------------------------------

def test_parse_product_juxtaposition():
    s = qs.parse_series_expr("prod(1+x^{2s})(1+x^{1s})", order=2)
    assert list(s.coeffs) == [1, 1, 2]


def test_parse_scalar_prefix():
    s = qs.parse_series_expr("1/2 * prod(1+x^{2s-1})(1+x^{1s})", order=1)
    assert list(s.coeffs) == [Fraction(1, 2), 1]


def test_parse_monomial():
    s = qs.parse_series_expr("x^0", order=3)
    assert list(s.coeffs) == [1, 0, 0, 0]
    s = qs.parse_series_expr("x^2", order=3)
    assert list(s.coeffs) == [0, 0, 1, 0]


def test_parse_sums_and_inverse():
    from sheaf_census import count_partitions
    s = qs.parse_series_expr("inv(prod(1-x^{1s}))", order=6)
    assert [s.coeff(n) for n in range(7)] == [count_partitions(n) for n in range(7)]
    s = qs.parse_series_expr("prod(1+x^{1s}) - prod(1+x^{1s})", order=5)
    assert s == FormalSeries.from_values([0], 5)


def test_parse_powers_and_parens():
    lhs = qs.parse_series_expr("prod(1+x^{2s})^2(1+x^{1s})^2", order=8)
    rhs = qs.prod_series(8, (1, 2, 0, 2), (1, 1, 0, 2))
    assert lhs == rhs
    grouped = qs.parse_series_expr("(x^1 + x^2) (x^0 + x^1)", order=4)
    manual = FormalSeries.from_values([0, 1, 2, 1, 0])
    assert grouped == manual


def test_parse_rational_membership_not_prefix():
    # a bare integer is only a scalar when followed by '*'
    with pytest.raises(qs.SeriesParseError):
        qs.parse_series_expr("3 prod(1+x^{1s})", order=4)


def test_parse_error_diagnostics():
    with pytest.raises(qs.SeriesParseError) as exc:
        qs.parse_series_expr("prod(1+x^{2s}", order=4)
    assert "^" in exc.value.diagnostic()
    with pytest.raises(qs.SeriesParseError):
        qs.parse_series_expr("prod(2+x^{2s})", order=4)
    with pytest.raises(qs.SeriesParseError):
        qs.parse_series_expr("inv(x^1)", order=4)
