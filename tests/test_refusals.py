"""Library refusals of invalid arguments: each call raises its own exception
type with its own message."""
from fractions import Fraction

import pytest

from sheaf_census import census, diagrams as dg, groups, partitions
from sheaf_census.qseries import BiSeries, FormalSeries

D = dg.parse_diagram

# name: (call, exception type, message)
REFUSALS = {
    "series-without-terms": (lambda: FormalSeries(()), ValueError,
                             "a series needs at least its constant term"),
    "series-zero-denominator": (lambda: FormalSeries((1, 2), 0), ZeroDivisionError,
                                "a series needs a nonzero denominator"),
    "series-fraction-numerator": (lambda: FormalSeries((1, Fraction(1, 2))), TypeError,
                                  "'Fraction' object cannot be interpreted as an integer"),
    "negative-monomial": (lambda: FormalSeries.monomial(-1), ValueError,
                          "negative exponents are not representable"),
    "non-unit-inverse": (lambda: FormalSeries.from_values([0, 1]).inverse(), ZeroDivisionError,
                         "series with zero constant term has no inverse"),
    "binomial-exponent-0": (lambda: FormalSeries.from_values([1]).mul_binomial(1, 0),
                            ValueError, "binomial factors need exponent >= 1"),
    "binomial-sign-2": (lambda: FormalSeries.from_values([1]).mul_binomial(2, 1),
                        ValueError, "sign must be +1 or -1"),
    "bibinomial-exponents-0": (lambda: BiSeries.one(2, 2).mul_binomial(1, 0, 0), ValueError,
                               "factor exponents must be nonnegative with positive total"),
    "negative-kappa1-count": (lambda: groups.Kappa1Data(-1, None), ValueError,
                              "count must be nonnegative"),
    "pi-off-richardson": (lambda: groups.pi_size(D("2+ 2-")), ValueError,
                          "2+ 2- is not in the Richardson subset"),
    "pi-of-class-3": (lambda: dg._pi("1+", dg._class_of(0, 0, False), 0, 1),
                      ArithmeticError, "Richardson diagrams are never of class 3"),
    "partitions-of-negative": (lambda: partitions.enum_partitions(-1), ValueError,
                               "n must be nonnegative"),
    "weighted-sum-of-negative": (lambda: partitions.weighted_odd_partition_sum(-1), ValueError,
                                 "n must be nonnegative"),
    "bijection-odd-multiplicity": (lambda: dg.diii_kappa1_bijection(D("2+ 2-")), ValueError,
                                   "2+ 2- has odd per-sign multiplicities"),
    "unknown-theta-variant": (lambda: census.theta_k0_count("bogus", 1), ValueError,
                              "unknown variant 'bogus'"),
    "stratum-count-0": (lambda: census.StratumEntry(census.OrbitLabel(D("1+")), 0, 0, D("1+"),
                                                    0, "sigma-b2"),
                        ValueError, "stratum entries carry positive counts"),
}


@pytest.mark.parametrize("name", list(REFUSALS))
def test_refusal(name):
    call, error, message = REFUSALS[name]
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert str(exc.value) == message
