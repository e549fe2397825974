#!/usr/bin/env python3
"""Partitions and exact power series: the counting layer and the series layer
computing the same numbers two different ways."""
from fractions import Fraction

from sheaf_census import (
    FormalSeries,
    count_distinct_partitions,
    count_partitions,
    enum_distinct_odd_balanced,
    enum_partitions,
    parse_series_expr,
    prod_series,
    weighted_odd_partition_sum,
)

print("== Partitions ==")
print("partitions of 5:", [str(p) for p in enum_partitions(5)])
print("p(10) =", count_partitions(10))
print("p(3/2) =", count_partitions(Fraction(3, 2)), "(off the integers: 0)")
print("distinct-part partitions of 6:", count_distinct_partitions(6))

print()
print("== Balanced partitions into distinct odd parts ==")
for n, t in ((5, 1), (4, 0), (21, 3)):
    members = enum_distinct_odd_balanced(n, t)
    formula = count_partitions(Fraction(n - (2 * t * t - t), 4))
    print(f"N={n:2d} t={t}: {[str(p) for p in members]}  (formula {formula})")

print()
print("== Weighted odd-part partition sums ==")
print("sums for N = 1..10:", [weighted_odd_partition_sum(n) for n in range(1, 11)])

print()
print("== Exact series ==")
euler = prod_series(12, (-1, 1, 0, -1))  # prod 1/(1 - x^s)
print("prod 1/(1-x^s)  =", euler)
print("coefficients are p(n):",
      all(euler.coeff(n) == count_partitions(n) for n in range(13)))

geometric = FormalSeries.from_values([1, -1], order=8).inverse()
print("1/(1-x)         =", geometric)

print()
print("== The expression grammar used by the command line ==")
expr = "prod(1+x^{2s})(1+x^{1s})"
series = parse_series_expr(expr, order=8)
print(f"{expr} =", series)

print()
print("== Identity checking with witnesses ==")
lhs = prod_series(30, (-1, 1, 0, -1))
rhs = parse_series_expr("inv(prod(1-x^{1s}))", order=30)
print("Euler product two ways agree:", lhs == rhs)
broken = rhs + FormalSeries.monomial(7, 1, 30)
k = next(k for k in range(31) if lhs.coeff(k) != broken.coeff(k))
print(f"after corrupting x^7: first difference at x^{k}: "
      f"lhs={lhs.coeff(k)} rhs={broken.coeff(k)}")
