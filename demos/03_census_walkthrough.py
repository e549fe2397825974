#!/usr/bin/env python3
"""The census itself: strata, totals, the closed formulas, and the cuspidal /
nilpotent-support / full-support sub-censuses."""
from sheaf_census import (
    aggregate_T,
    census_bdi_k0,
    census_bdi_k1,
    census_diii,
    count_formula_k0,
    count_formula_k1,
    cuspidal_counts,
    nilpotent_support_counts,
    subset_report,
)

print("== Census for the pair (3, 2), trivial central character ==")
report = census_bdi_k0(3, 2)
for e in report.entries:
    print(f"  support {str(e.support):16s} m={e.m} k={e.k} mu={str(e.mu):8s}"
          f" family={e.family:9s} count={e.count}")
print("  total:", report.total, " closed formula:", count_formula_k0(3, 2))

print()
print("== Same pair, nontrivial central character ==")
report = census_bdi_k1(3, 2)
for e in report.entries:
    print(f"  support {str(e.support):16s} m={e.m} k={e.k} count={e.count}")
print("  total:", report.total, " closed formula:", count_formula_k1(3, 2))

print()
print("== Sub-censuses ==")
for p, q in ((3, 2), (4, 2), (3, 1), (4, 4)):
    full = tuple(subset_report(report, "full").total
                 for report in (census_bdi_k0(p, q), census_bdi_k1(p, q)))
    print(f"  ({p},{q}): cuspidal={cuspidal_counts(p, q)} "
          f"nilpotent={nilpotent_support_counts(p, q)} "
          f"full={full}")

print()
print("== Filtering a report down to its nilpotent strata ==")
nil = subset_report(census_bdi_k0(4, 2), "nilpotent")
for e in nil.entries:
    print(f"  support {str(e.support):12s} count={e.count}")
print("  nilpotent total:", nil.total)

print()
print("== The equal-signature family ==")
for n in (3, 4, 6):
    k0, k1 = census_diii(n)
    print(f"  n={n}: trivial-character total {k0.total}, "
          f"nontrivial-character total {k1.total}")

print()
print("== Aggregates over a whole size: formula route vs census route ==")
for N in range(5, 11):
    t0, tprime = aggregate_T(N)
    print(f"  N={N:2d}: formulas {t0:5d}  censuses {tprime:5d}  equal={t0 == tprime}")
