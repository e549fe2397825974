"""Ring behaviour, product expansion, bilateral sums, and the expression
grammar."""
from fractions import Fraction
from math import comb, gcd, prod

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
    # unchecked, a negative order slices from the end or leaves no constant term
    for build, order in ((lambda: qs.bilateral_sum(1, lambda k: (), order=-1), -1),
                         (lambda: qs.FormalSeries.from_values([1, 2, 3, 4], order=-3), -3),
                         (lambda: qs.FormalSeries.monomial(0, 1, -1), -1),
                         (lambda: qs.prod_series(-1), -1)):
        with pytest.raises(ValueError, match=f"^order must be nonnegative, got {order}$"):
            build()
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


# the factor families of the series-expand benchmark's two templates, every
# sign pattern: one inverted product of two families, and two one-family products
SERIES_EXPAND = ([((s, 2, 1, -1), (t, 3, -1, -1)) for s in (1, -1) for t in (1, -1)]
                 + [((s, 2, 0, 1),) for s in (1, -1)] + [((s, 3, -1, 2),) for s in (1, -1)])


def _assert_width_holds(order, factors):
    """Every coefficient prod_series returns sits 2 bits inside its packed digit."""
    width = qs._width(order, tuple(factors))
    assert width % 8 == 0
    nums = qs.prod_series(order, *factors).nums
    assert max(abs(c) for c in nums) < 1 << (width - 2), (order, factors, width)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 200), st.lists(factor_families, max_size=4))
def test_packed_width_bounds_every_coefficient(order, factors):
    _assert_width_holds(order, factors)


@pytest.mark.parametrize("factors", [
    *(((sign, 1, 0, power),) for sign in (1, -1) for power in (10 ** 9, -10 ** 9, 0)),
    ((1, 1, 0, 10 ** 9), (-1, 2, 0, -10 ** 9), (1, 3, -2, 0))])
def test_packed_width_bounds_huge_and_zero_powers(factors):
    _assert_width_holds(10, factors)


@pytest.mark.parametrize("order", [400, 1000])
def test_packed_width_bounds_the_series_expand_families(order):
    for factors in SERIES_EXPAND:
        _assert_width_holds(order, factors)


def _oracle_factor_by_factor(order, *factors):
    """The product's int coefficients, one binomial factor at a time by the oracle."""
    vals = [1] + [0] * order
    for sign, stride, offset, power in factors:
        for exponent in range(stride + offset, order + 1, stride):
            vals = oracles.mul_binomial(vals, sign, exponent, power)
    return vals


def test_packed_product_matches_the_factor_oracle_on_large_coefficients():
    # at order 400 prod (1-x^s)^-3 has 112-bit coefficients: the 3-coloured partitions
    for factors in [*SERIES_EXPAND, ((-1, 1, 0, -3),)]:
        expected = _oracle_factor_by_factor(400, *factors)
        assert list(qs.prod_series(400, *factors).nums) == expected, factors
    assert qs.prod_series(400, (-1, 1, 0, -3)).nums[400] == 4103192515711939324405364688418917


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
    s = FormalSeries.from_values((c0,) + s.coeffs[1:])
    assert s.inverse() == oracles.inverse(s)
    assert s * s.inverse() == FormalSeries.from_values([1], 40)
    t = qs.prod_series(30, (1, 3, -1, -2), scalar=Fraction(-5, 7))
    assert s * t == oracles.product(s, t)


def _assert_mul_binomial_matches_oracle(vals, sign, exponent, power):
    got = FormalSeries.from_values(vals).mul_binomial(sign, exponent, power)
    assert got.coeffs == tuple(oracles.mul_binomial(vals, sign, exponent, power))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 40), st.integers(1, 45), st.sampled_from((1, -1)), st.integers(-12, 12),
       st.sampled_from((int, Fraction)), st.data())
def test_mul_binomial_kernel_matches_oracle(n, exponent, sign, power, kind, data):
    # exponents below and past the order, powers on both sides of n // exponent
    values = st.integers(-9, 9) if kind is int else rationals
    vals = data.draw(st.lists(values, min_size=n + 1, max_size=n + 1))
    _assert_mul_binomial_matches_oracle(vals, sign, exponent, power)


@pytest.mark.parametrize("exponent, power", [
    (3, 2), (3, 12),      # multiply, below and past the reach 30 // 3
    (1, -3), (5, -2), (5, -8), (6, -2), (6, -7),  # divide, below and past the reach
    (1, -31), (30, -1), (31, 3), (31, -3),
    (3, 0),               # power 0 is the identity
])
@pytest.mark.parametrize("sign", [1, -1])
def test_mul_binomial_kernel_shapes(exponent, power, sign):
    ints = [(7 * k) % 11 - 5 for k in range(31)]
    for vals in (ints, [Fraction(v, 1 + k % 4) for k, v in enumerate(ints)]):
        _assert_mul_binomial_matches_oracle(vals, sign, exponent, power)


@pytest.mark.parametrize("power", [10 ** 9, -10 ** 9])
@pytest.mark.parametrize("sign", [1, -1])
def test_mul_binomial_huge_powers(sign, power):
    # too many unit passes for the oracle: the closed binomial series instead
    ints = [(7 * k) % 11 - 5 for k in range(31)]
    for exponent in (1, 4, 31):
        for vals in (ints, [Fraction(v, 1 + k % 4) for k, v in enumerate(ints)]):
            got = FormalSeries.from_values(vals).mul_binomial(sign, exponent, power)
            expected = [sum(_binomial(power, j) * sign ** j * vals[k - j * exponent]
                            for j in range(k // exponent + 1)) for k in range(31)]
            assert got.coeffs == tuple(expected), exponent


@pytest.mark.parametrize("power", [40, -40])
def test_mul_binomial_digit_width_on_large_numerators(power):
    # the product's digits reach C(40, 20) times the 40-digit numerators; a lone
    # 2*10^39 reaches 2*10^39*C(40, 20) at x^20, a 168-bit digit that needs the sign bit
    assert (2 * 10 ** 39 * comb(40, 20)).bit_length() == 168
    dense = [(-1) ** k * (10 ** 39 + 7919 * k) for k in range(41)]
    fractions = [Fraction(v, 3 + k % 5) for k, v in enumerate(dense)]
    for vals in (dense, [2 * 10 ** 39] + [0] * 40, fractions):
        for sign in (1, -1):
            _assert_mul_binomial_matches_oracle(vals, sign, 1, power)


sparse_rationals = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), rationals)


def _assert_matches_both_oracles(matrix, sign, ue, ve, power):
    """The row sweep against the cell sweep and the line walk; returns its matrix."""
    u_order, v_order = len(matrix) - 1, len(matrix[0]) - 1
    got = qs.BiSeries(u_order, v_order, [row[:] for row in matrix]).mul_binomial(
        sign, ue, ve, power).m
    assert got == oracles.bi_mul_binomial(matrix, sign, ue, ve, power)
    assert got == oracles.bi_mul_binomial_by_lines(matrix, sign, ue, ve, power)
    return got


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 5), st.integers(0, 5),
       st.sampled_from((1, -1)), st.integers(-6, 6), st.data())
def test_biseries_mul_binomial_matches_oracle(u_order, v_order, ue, ve, sign, power, data):
    if ue + ve < 1:
        ue = 1
    matrix = data.draw(st.lists(st.lists(sparse_rationals, min_size=v_order + 1,
                                         max_size=v_order + 1),
                                min_size=u_order + 1, max_size=u_order + 1))
    got = _assert_matches_both_oracles(matrix, sign, ue, ve, power)
    assert all(type(c) is Fraction for row in got for c in row)


def _dense(u_order, v_order):
    return [[Fraction(3 * i - 2 * j + 1, 1 + (i + j) % 3) for j in range(v_order + 1)]
            for i in range(u_order + 1)]


@pytest.mark.parametrize("ue,ve", [(0, 1), (0, 3), (1, 0), (4, 0)])
@pytest.mark.parametrize("power", [-3, -1, 1, 2])
def test_biseries_mul_binomial_one_variable_factors(ue, ve, power):
    # a pure-v factor sweeps the transpose as a pure-u factor, which is swept
    # over rows with no shift along them, so each row is multiplied on its own
    matrix = _dense(6, 7)
    got = _assert_matches_both_oracles(matrix, -1, ue, ve, power)
    if ue == 0:
        assert got == [oracles.mul_binomial(row, -1, ve, power) for row in matrix]


@pytest.mark.parametrize("u_order,v_order,ue,ve", [(9, 3, 2, 1), (3, 9, 1, 2), (10, 4, 3, 3),
                                                   (4, 10, 1, 4), (7, 2, 2, 5)])
@pytest.mark.parametrize("power", [-5, -2, 1, 4])
def test_biseries_mul_binomial_reach_on_rectangles(u_order, v_order, ue, ve, power):
    # the terms reach the smaller of u_order//ue and v_order//ve; a reach read
    # from the wrong order drops terms on a rectangle
    assert u_order // ue != v_order // ve
    _assert_matches_both_oracles(_dense(u_order, v_order), 1, ue, ve, power)


def test_biseries_mul_binomial_keeps_ints():
    b, expected = qs.BiSeries.one(6, 5), qs.BiSeries.one(6, 5).m
    for factor in [(1, 2, 1, 1), (-1, 2, 1, -1), (-1, 0, 2, -2), (1, 3, 0, 3)]:
        b = b.mul_binomial(*factor)
        expected = oracles.bi_mul_binomial_by_lines(expected, *factor)
    assert b.m == expected
    assert all(type(c) is int for row in b.m for c in row)


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


# factor families the grammar can write: powers are nonnegative integers
written_families = st.integers(1, 5).flatmap(lambda stride: st.tuples(
    st.sampled_from((1, -1)), st.just(stride), st.integers(1 - stride, 3), st.integers(0, 4)))


def _prod_text(factors):
    return "prod" + "".join(f"(1{'+' if sign > 0 else '-'}x^{{{stride}s{offset:+d}}})^{power}"
                            for sign, stride, offset, power in factors)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 60), st.lists(written_families, min_size=1, max_size=4))
def test_inv_prod_matches_the_inverse_of_the_product(order, factors):
    got = qs.parse_series_expr(f"inv({_prod_text(factors)})", order)
    assert got == oracles.inverse(oracles.prod_series(order, *factors))
    assert all(type(c) is Fraction for c in got.coeffs)


def _in_lowest_terms(s):
    return (type(s.nums) is tuple and all(type(v) is int for v in s.nums)
            and type(s.den) is int and s.den >= 1 and gcd(s.den, *s.nums) == 1)


@settings(max_examples=100, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=30), st.lists(rationals, min_size=1, max_size=30),
       rationals, st.lists(written_families, min_size=1, max_size=3), st.integers(1, 6),
       st.integers(-3, 3), st.sampled_from((1, -1)))
def test_every_result_is_in_lowest_terms_and_matches_the_oracles(a, b, c, factors, exponent,
                                                                  power, sign):
    A, B = FormalSeries.from_values(a), FormalSeries.from_values(b)
    order = min(A.order, B.order)
    prefix = f"{abs(c.numerator)}/{c.denominator}"
    results = [
        (A + B, FormalSeries.from_values(x + y for x, y in zip(A.coeffs, B.coeffs))),
        (A - B, FormalSeries.from_values(x - y for x, y in zip(A.coeffs, B.coeffs))),
        (A * B, oracles.product(A, B)),
        (A.scale(c), FormalSeries.from_values(x * c for x in A.coeffs)),
        (A.mul_binomial(sign, exponent, power),
         FormalSeries.from_values(oracles.mul_binomial(A.coeffs, sign, exponent, power))),
        (qs.prod_series(order, *factors, scalar=c, shift=exponent),
         oracles.prod_series(order, *factors, scalar=c, shift=exponent)),
        (qs.bilateral_sum(c, lambda k: ((k, exponent * k),), order),
         _oracle_bilateral(c, lambda k: ((k, exponent * k),), order)),
        (qs.parse_series_expr(f"{prefix} * {_prod_text(factors)}", order),
         oracles.prod_series(order, *factors, scalar=abs(c))),
    ]
    if a[0]:
        results.append((A.inverse(), oracles.inverse(A)))
    for got, expected in results:
        assert _in_lowest_terms(got)
        assert got == expected


@settings(max_examples=60, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=12), st.lists(rationals, min_size=1, max_size=12),
       rationals, st.integers(-6, 6).filter(bool))
def test_equal_series_are_equal_values_whichever_path_built_them(a, b, c, k):
    n = min(len(a), len(b))
    A, B = FormalSeries.from_values(a[:n]), FormalSeries.from_values(b[:n])
    paths = [(A + B) - B, A.scale(c or 1).scale(1 / (c or 1)), A * FormalSeries.from_values([1], n),
             A.mul_binomial(1, 1, 2).mul_binomial(1, 1, -2),
             FormalSeries(tuple(v * k for v in A.nums), A.den * k)]
    if a[0]:
        paths.append(A.inverse().inverse())
    for s in paths:
        assert s == A and hash(s) == hash(A) and (s.nums, s.den) == (A.nums, A.den)


def test_the_constructor_reduces_its_fraction():
    half = FormalSeries.from_values([Fraction(1, 2), 1])
    for raw in (FormalSeries((2, 4), 4), FormalSeries((-1, -2), -2), FormalSeries((1, 2), 2)):
        assert raw == half and hash(raw) == hash(half)
        assert (raw.nums, raw.den) == ((1, 2), 2)
    assert FormalSeries((0, 0, 0), -6) == FormalSeries.from_values([0, 0, 0])
    assert FormalSeries((0, 0, 0), -6).den == 1


def test_only_a_bare_product_skips_the_generic_inverse(monkeypatch):
    # inv() of exactly one prod negates its powers; anything more inverts
    calls = []
    real = FormalSeries.inverse
    monkeypatch.setattr(FormalSeries, "inverse", lambda s: calls.append(s) or real(s))
    prod = "prod(1+x^{2s+1})^2(1-x^{3s-1})"
    expected = oracles.inverse(oracles.prod_series(30, (1, 2, 1, 2), (-1, 3, -1, 1)))
    assert qs.parse_series_expr(f"inv({prod})", 30) == expected
    assert calls == []
    for text in (f"inv(({prod}))", f"inv({prod} x^0)", f"inv({prod} + 0 * x^1)"):
        assert qs.parse_series_expr(text, 30) == expected, text
    assert len(calls) == 3


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


def test_parse_integer_scalar_prefix():
    s = qs.parse_series_expr("3 * x^1", order=2)
    assert list(s.coeffs) == [0, 3, 0]


# every message the grammar can raise, with the column of the token it blames
PARSE_ERRORS = [
    ("x^1 @", "unexpected character", 4),
    ("inv x^1", "expected '('", 4),
    ("prod(1+x^{2s}", "expected ')'", 13),
    ("x^1 )", "trailing input after expression", 4),
    ("1/0 * x^1", "zero denominator", 2),
    ("prod(2+x^{2s})", "expected '(1+x^{...})' after prod", 4),
    ("inv(x^1)", "inv() of a series with zero constant term", 0),
    ("x^0 + 2*inv(x^2)", "inv() of a series with zero constant term", 8),
    ("x^1 +", "expected a factor", 5),
    ("prod(1+x^{1s-1})", "product factor must have lowest exponent >= 1", 4),
    ("x^s", "expected an integer", 2),
    ("inv(prod(1+x^{2s})", "expected ')'", 18),
    ("inv(prod(1+x^{2s})(1-x^{1s-1}))", "product factor must have lowest exponent >= 1", 18),
    ("inv(prod x^1)", "expected '(1+x^{...})' after prod", 9),
]


@pytest.mark.parametrize("text,message,pos", PARSE_ERRORS)
def test_parse_error_message_and_caret(text, message, pos):
    with pytest.raises(qs.SeriesParseError) as exc:
        qs.parse_series_expr(text, order=4)
    assert (exc.value.message, exc.value.pos) == (message, pos)
    assert exc.value.diagnostic() == f"{message}\n  {text}\n  {' ' * pos}^"


def test_parse_error_diagnostics():
    with pytest.raises(qs.SeriesParseError) as exc:
        qs.parse_series_expr("prod(1+x^{2s}", order=4)
    assert "^" in exc.value.diagnostic()
    with pytest.raises(qs.SeriesParseError):
        qs.parse_series_expr("prod(2+x^{2s})", order=4)
    with pytest.raises(qs.SeriesParseError):
        qs.parse_series_expr("inv(x^1)", order=4)
