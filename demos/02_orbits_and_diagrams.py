#!/usr/bin/env python3
"""Signed Young diagrams: orbit classification, the Richardson subsets, and
the component-group data attached to each orbit."""
from sheaf_census import (
    classify,
    diii_kappa1_bijection,
    enum_lambda,
    enum_lambda_b,
    enum_lambda_even,
    enum_sigma,
    enum_sigma_b,
    eta,
    kappa1_data_BDI,
    l_of,
    mu_t,
    omega_set,
    orbit_multiplicity,
    parse_diagram,
    pi_size,
)

print("== The orthogonal family, signature (3, 2) ==")
for d in enum_sigma(3, 2):
    cls = classify(d)
    data = kappa1_data_BDI(d)
    print(f"  {str(d):12s} a={cls.a} b={cls.b} class={cls.index} r={cls.r} "
          f"orbits={orbit_multiplicity(d)} "
          f"k0-irreps={2 ** cls.r} k1-irreps={data.count}")

print()
print("== Richardson subsets ==")
for p, q in ((3, 2), (4, 2), (5, 2)):
    rows = []
    for d in enum_sigma_b(p, q):
        rows.append(f"{d} (admissible set {sorted(omega_set(d))}, l={l_of(d)}, "
                    f"characters={pi_size(d)})")
    print(f"  ({p},{q}):", "; ".join(rows))

print()
print("== Uniform staircases ==")
for t in range(-3, 4):
    d = mu_t(t)
    print(f"  t={t:+d}: {str(d):10s} signature={d.signature()}  eta(0,t)={eta(0, t)}")

print()
print("== The equal-signature family ==")
print("size-3 diagrams:", [str(d) for d in enum_lambda(3)])
print("Richardson ones:", [str(d) for d in enum_lambda_b(3)])

print()
print("== Component groups ==")
for text in ("3+ 1+ 1-", "1+^3 1-^2", "2+ 2-"):
    d = parse_diagram(text)
    r = classify(d).r
    label = f"(Z/2)^{r}" if r else "1"
    print(f"  {text:10s} downstairs {label:8s}"
          f" kappa1 data {kappa1_data_BDI(d)}")

print()
print("== All-even diagrams pair off with bipartitions (n = 4) ==")
for d in enum_lambda_even(4):
    b = diii_kappa1_bijection(d)
    print(f"  {str(d):12s} -> ({b.first}, {b.second})")
