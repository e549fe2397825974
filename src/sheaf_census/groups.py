"""Numerical shadows of centralizer component groups.

Only cardinalities, ranks, and representation counts/dimensions are modelled;
no group elements or presentations. The central-character-odd ("kappa1")
representation data follows the case tables for the double cover, and the
eta constant drives every kappa1 count downstream.
"""
from __future__ import annotations

from dataclasses import dataclass

from .diagrams import DiagramClass, SignedYoungDiagram, classify, in_lambda, is_sigma_b


@dataclass(frozen=True)
class Kappa1Data:
    """Count and common dimension of the kappa1-irreducibles; dim is None
    when the count is 0."""

    count: int
    dim: int | None

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("count must be nonnegative")
        if self.count > 0 and (self.dim is None or self.dim < 1):
            raise ValueError("nonzero count needs a positive dimension")


def kappa1_data_BDI(d: SignedYoungDiagram) -> Kappa1Data:
    """Count/dimension of kappa1-irreducibles of the component group upstairs.

    The case split is on the signature (p, q): odd total size, both entries
    odd, or both even.
    """
    return _kappa1_data(classify(d), *d.signature())


def _kappa1_data(cls: DiagramClass, p: int, q: int) -> Kappa1Data:
    """kappa1_data_BDI(d) for a diagram d of the orthogonal set, read off its
    class cls = classify(d) and its signature (p, q) alone: none when an odd
    length repeats a sign (cls.repeated), else by the class index."""
    if cls.repeated:
        return Kappa1Data(0, None)
    r = cls.r
    if (p + q) % 2:
        if cls.index == 1:
            return Kappa1Data(2, 2 ** ((r - 1) // 2))
        if cls.index == 2:
            return Kappa1Data(1, 2 ** (r // 2))
        raise ArithmeticError("class 3 cannot occur for odd total size")
    if p % 2:  # both entries odd
        return Kappa1Data(1, 2 ** (r // 2))
    if cls.index == 1:
        return Kappa1Data(4, 2 ** ((r - 2) // 2))
    if cls.index == 2:
        return Kappa1Data(2, 2 ** ((r - 1) // 2))
    return Kappa1Data(1, 2 ** (r // 2))


def kappa1_data_DIII(d: SignedYoungDiagram) -> Kappa1Data:
    """(1, 1) exactly when every row length is even (vacuously for the empty
    diagram), else no kappa1-irreducibles."""
    if not in_lambda(d):
        raise ValueError(f"{d} is not in the equal-signature classification set")
    if d.all_parts_even():
        return Kappa1Data(1, 1)
    return Kappa1Data(0, None)


def eta(m: int, t: int) -> int:
    """The multiplicity constant: 2 for odd t; for even t, 4 when m and t/2
    have equal parity and 1 otherwise."""
    if t % 2:
        return 2
    return 4 if m % 2 == (t // 2) % 2 else 1


def omega_set(d: SignedYoungDiagram) -> frozenset[int]:
    """Indices j (1-based, over length groups) with an even tail row count
    and, past the first group, either a half-length gap of at least 2 or an
    equal sign bit with the previous group."""
    if not is_sigma_b(d):
        raise ValueError(f"{d} is not in the Richardson subset")
    return _omega_set(d)


def _omega_set(d: SignedYoungDiagram) -> frozenset[int]:
    # tail row counts are summed from the last group up; mu is the half-length
    # (length - 1) // 2, and a group's sign bit is 1 when it has no +rows
    omega, tail = set(), 0
    for j in range(len(d.rows), 0, -1):
        length, plus, minus = d.rows[j - 1]
        tail += plus + minus
        if tail % 2:
            continue
        if j >= 2:
            prev_length, prev_plus, _ = d.rows[j - 2]
            if (prev_length - 1) // 2 < (length - 1) // 2 + 2 and (prev_plus == 0) != (plus == 0):
                continue
        omega.add(j)
    return frozenset(omega)


def pi_size(d: SignedYoungDiagram) -> int:
    """Number of admissible component-group characters on the Richardson
    orbit: 2^(l-1) / 2^l for classes 1/2 when the total size is odd, halved
    again when it is even. A negative exponent signals an upstream bug."""
    if not is_sigma_b(d):
        raise ValueError(f"{d} is not in the Richardson subset")
    return _pi_size(d, classify(d))


def _pi_size(d: SignedYoungDiagram, cls: DiagramClass) -> int:
    """pi_size(d) for a Richardson diagram d whose class cls is known."""
    if cls.index not in (1, 2):
        raise ArithmeticError("Richardson diagrams are never of class 3")
    exponent = len(_omega_set(d)) - (cls.index == 1) - (d.size % 2 == 0)
    if exponent < 0:
        raise ArithmeticError(f"negative character-count exponent for {d}; "
                              "upstream classification is inconsistent")
    return 2 ** exponent
