"""Census enumerators: per-pair sheaf counts by support stratum, the closed
generating-function count formulas, and the cuspidal / nilpotent-support /
full-support sub-censuses.

Two fully independent routes are kept apart on purpose:

* the *direct* route walks support strata (m, k, mu) and multiplies
  combinatorial counts computed by integer DP and diagram enumeration;
* the *formula* route extracts coefficients of exact rational products via
  :mod:`sheaf_census.qseries`.

Their agreement over sweeps is the artifact's central correctness check.

Each piece is computed once. ``_k0_blocks``, ``_k1_blocks`` and ``_diii_blocks``
yield blocks: one cell (m, k) over a listing's ``_column`` (each mu's head, its text
but its 1-row group, cut once per listing and memoised), each mu's kind
picking a cell (family, count, deltas); a support's text is mu's head and the merged
2- and 1-row groups'. Only this module reads that layout: a ``CensusReport``'s total
(summed once off the rendered blocks), ``rows()`` and ``json_rows`` (one per orbit,
in ``ROW_KEYS``' order), ``orbit_counts()``, ``entries`` (a checked ``StratumEntry``
per orbit) and sub-censuses. The memoised totals ``verify`` reads list no diagram:
``census_k0_total`` sums ``richardson_pi_sums`` over ``_k0_cells``,
``census_k1_total`` the ``_k1_blocks``' cells, ``census_diii_totals`` reads
``_lambda_b_counts``; ``count_formula_k0`` sums the bases' int coefficients.

Each sub-census is one rule per (family, central character, subset): the
strata it keeps and the route, apart from the census, that its ``--check``
total reads. ``subset_report`` and ``expected_subset_total`` read that rule;
only the latter evaluates the route.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from . import SUBSETS, qseries
from .diagrams import (
    SignedYoungDiagram,
    _class_of,
    _group_text,
    _lambda_b_counts,
    _size,
    classify,
    diagram,
    enum_sigma_b,  # unused here; perfbench's tests check that its tracer patches it here
    format_diagram,
    in_sigma,
    lambda_b_listing,
    lambda_even_listing,
    mu_t,
    richardson_pi_sums,
    sigma_b_listing,
    sigma_class_counts,
)
from .groups import _kappa1_data, eta, kappa1_data_BDI
from .partitions import (
    _top,
    count_bipartitions,
    count_distinct_odd_partitions,
    count_distinct_partitions,
    count_partitions,
)

LOW_RANK_WARNING = "low-rank pair: outside the stable range (total size < 5)"
ROW_KEYS = ("support", "delta", "m", "k", "mu", "family", "count")  # a census row's columns


# ---------------------------------------------------------------------------
# Irreducible-representation counts of the Hecke algebras at parameter -1
# (all computed by integer DP, never by series expansion)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def hecke_count(family: str, n: int) -> int:
    """Number of irreducibles for the two Coxeter/Hecke families used here.

    B: type B at equal parameter -1.
    D: type D at parameter -1; the generating series carries constant 1/2
       but the trivial group has one irreducible, so n=0 returns 1.
    """
    if family not in ("B", "D"):
        raise ValueError(f"unknown Hecke family {family!r}")
    if n < 0:
        return 0
    if family == "B":
        return sum(count_distinct_partitions(j)
                   * count_distinct_partitions((n - j) // 2)
                   for j in range(n % 2, n + 1, 2))
    if n == 0:
        return 1
    c = _mixed_distinct_count(n)
    if c % 2:
        raise ArithmeticError(f"odd two-sided count {c} at n={n}; "
                              "the halving convention would break")
    return c // 2


@lru_cache(maxsize=None)
def _mixed_distinct_count(n: int) -> int:
    # pairs (distinct-odd partition, distinct partition) with total weight n
    return sum(count_distinct_odd_partitions(j) * count_distinct_partitions(n - j)
               for j in range(n + 1))


# ---------------------------------------------------------------------------
# Cardinalities of the full-support representation sets
# ---------------------------------------------------------------------------

_THETA_VARIANTS = ("split-B", "split-D", "ind1-B", "ind1-D", "ind2-B", "ind2-D")


@lru_cache(maxsize=None)
def theta_k0_count(variant: str, n: int) -> int:
    """Cardinality of the trivial-central-character module family.

    `split-*` counts the sets attached to the regular semisimple stratum of
    a split pair, `ind1-*`/`ind2-*` the variants induced along the class-1 /
    class-2 Richardson strata; B vs D is the parity of the defining pair.
    """
    if variant not in _THETA_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if n < 0:
        return 0
    if variant == "ind1-B":
        h = hecke_count
        return sum(h("B", k) * h("B", n - k) for k in range(n + 1))
    # ind1-D and ind2-D count over the type B Weyl group at parameters
    # (-1, 1): the full two-sided count, no halving (1 at n = 0)
    if variant == "ind1-D":
        return sum(_mixed_distinct_count(k) * _mixed_distinct_count(n - k)
                   for k in range(n + 1))
    if n == 0:
        return 1
    if variant in ("split-B", "ind2-B"):
        return _paired_count(lambda k: hecke_count("B", k), n)
    if variant == "ind2-D":
        return _paired_count(_mixed_distinct_count, n)
    # split-D: every cell of the paired count doubles, except the k=0 cell,
    # which contributes singly (hecke_count("D", 0) is 1)
    hD = lambda k: hecke_count("D", k)
    return 2 * _paired_count(hD, n) - hD(n)


def _paired_count(atom, n: int) -> int:
    """Pairs of atoms of sizes k <= n-k summing to n: each pair of two
    different atoms once, each atom paired with itself twice."""
    total = sum(atom(k) * atom(n - k) for k in range((n + 1) // 2))
    if n % 2 == 0:
        h = atom(n // 2)
        total += h * (h - 1) // 2 + 2 * h
    return total


def theta_k1_count(m: int, t: int) -> int:
    """Cardinality of the nontrivial-central-character module family on the
    (m, t) stratum: eta(m, t) times the distinct-partition count of m."""
    if m < 0:
        return 0
    return eta(m, t) * count_distinct_partitions(m)


# ---------------------------------------------------------------------------
# Census reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrbitLabel:
    """A diagram plus the decoration naming one orbit over it.

    A given decoration must be one of ``classify(diagram).deltas``; the bdi
    census emitters attach exactly those. The n=n family never splits,
    whatever the diagram's orthogonal class would say, so its labels carry
    no decoration.
    """

    diagram: SignedYoungDiagram
    delta: str | None = None

    def __post_init__(self) -> None:
        if self.delta is not None and not (in_sigma(self.diagram) and
                                           self.delta in classify(self.diagram).deltas):
            raise ValueError(f"decoration {self.delta!r} names no orbit over "
                             f"{self.diagram}")

    def __str__(self) -> str:
        base = format_diagram(self.diagram)
        return f"{base} [{self.delta}]" if self.delta else base


@dataclass(frozen=True)
class StratumEntry:
    """One support stratum with its local-system count."""

    support: OrbitLabel
    m: int
    k: int
    mu: SignedYoungDiagram
    count: int
    family: str

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValueError("stratum entries carry positive counts")


@dataclass(frozen=True)
class CensusReport:
    """A census as its blocks (m, k, column, cells): strata (m, k, mu) over a _column's mus,
    each mu's cell (family, count, deltas) giving count local systems to each orbit."""

    pair: tuple  # ("bdi", p, q) or ("diii", n)
    central: str  # "k0" | "k1"
    blocks: tuple[tuple, ...]
    warnings: tuple[str, ...] = ()

    @property
    def entries(self) -> tuple[StratumEntry, ...]:
        """One StratumEntry per orbit over each stratum's support, labels validated."""
        return tuple(StratumEntry(OrbitLabel(support, delta), m, k, SignedYoungDiagram(mu),
                                  count, family)
                     for m, k, (mus, keys, *_), cells in self.blocks
                     for mu, (family, count, deltas) in zip(mus, map(cells.__getitem__, keys))
                     for support in (diagram(*mu, (1, m, m), (2, k, k)),) for delta in deltas)

    @cached_property
    def total(self) -> int:
        """The local systems over every orbit of the blocks, summed on the first read."""
        return sum(sum(map([count * len(deltas) for _, count, deltas in cells].__getitem__, keys))
                   for _, _, (_, keys, *_), cells in self.blocks)

    def orbit_counts(self) -> list[int]:
        """The orbits over each stratum's support in rows()' order, 0 where a sub-census cut it."""
        return [len(cells[key][2]) for _, _, (_, keys, *_), cells in self.blocks for key in keys]

    def rows(self):
        """Each orbit's row, its values in ROW_KEYS' order: the support's text,
        the delta, m, k, mu's text, the family and the count."""
        return ((head + tail, delta, m, k, text, family, count)
                for m, k, column, cells in self.blocks
                for text, head, tail, (family, count, deltas) in _block_mus(m, k, column, cells)
                for delta in deltas)

    def json_rows(self, template: list[str]):
        """rows() as JSON texts in template, a ROW_KEYS row cut at each value, from pieces
        built once per cell of a block, (m, k, delta) and (family, count); none needs escaping."""
        t0, t1, t2, t3, t4, t5, t6, t7 = template
        for m, k, column, cells in self.blocks:
            pieces = [([f'"{t1}{name}{t2}{m}{t3}{k}{t4}"'
                        for name in (f'"{d}"' if d else "null" for d in deltas)],
                       f'"{t5}"{family}"{t6}{count}{t7}') for family, count, deltas in cells]
            for text, head, tail, (mids, end) in _block_mus(m, k, column, pieces):
                for middle in mids:
                    yield f'{t0}"{head}{tail}{middle}{text}{end}'

    def to_json_dict(self, strata=None) -> dict:
        """The report as JSON values, its strata a list of row dicts, one per
        orbit, or strata if given, which stands in for that list."""
        keys = ("type", "p", "q") if self.pair[0] == "bdi" else ("type", "n")
        if strata is None:
            strata = [dict(zip(ROW_KEYS, row)) for row in self.rows()]
        return {"pair": dict(zip(keys, self.pair)), "central": self.central,
                "strata": strata, "total": self.total, "warnings": list(self.warnings)}


def _column(mus, texts, kinds) -> tuple:
    """(mus, keys, kinds, texts, heads, ones, shapes) of a listing: a mu's head is its text but
    its 1-row group's tokens, its key indexes kinds and its one shapes (head != "", 1-rows)."""
    shapes, seen, heads, ones, keys = {}, {}, [], [], []
    for mu, text, kind in zip(mus, texts, kinds):
        one = mu[-1][1:] if mu and mu[-1][0] == 1 else (0, 0)
        head = text.rsplit(" ", (one[0] > 0) + (one[1] > 0))[0] if len(mu) > any(one) else ""
        heads.append(head)
        ones.append(shapes.setdefault((head != "", *one), len(shapes)))
        keys.append(seen.setdefault(kind, len(seen)))
    return mus, tuple(keys), tuple(seen), texts, tuple(heads), tuple(ones), tuple(shapes)


def _block_mus(m: int, k: int, column: tuple, cells) -> zip:
    """(text, head, tail, cell) of each mu: its support diagram(*mu, (1, m, m), (2, k, k))
    is head, then 2+^k 2-^k (k is 0 if mu has 2-rows) and the merged 1-rows, as text."""
    _, keys, _, texts, heads, ones, shapes = column
    two = f" {_group_text((2, k, k))}" if k else ""
    tails = [tail if head else tail[1:] or "0" for head, plus, minus in shapes
             for tail in (f"{two} {_group_text((1, plus + m, minus + m))}" if plus + minus + m
                          else two,)]
    return zip(texts, heads, map(tails.__getitem__, ones), map(cells.__getitem__, keys))


def _support_deltas(m: int, deltas: tuple) -> tuple:
    """classify(diagram(*mu, (1, m, m), (2, k, k))).deltas, deltas being mu's class's
    (class 3's four for the empty mu): m >= 1 rows of 1+ and 1- make
    a, b >= 1 (class 1, one orbit), and the 2-rows add nothing to a class key."""
    return (None,) if m else deltas


def _report(pair: tuple, central: str, size: int, blocks) -> CensusReport:
    """The report of the blocks; the low-rank rule (total size below 5) lives here."""
    return CensusReport(pair, central, tuple(blocks), (LOW_RANK_WARNING,) if size < 5 else ())


def _k0_cells(p: int, q: int):
    """(m, k, p1, q1, theta, p(k), empty) for each cell (m, k) of the trivial-character
    strata of (p, q): mu is a Richardson diagram of signature (p1, q1) = (p - m - 2k,
    q - m - 2k), or empty at (0, 0); an even size keeps only m of q's parity;
    theta maps mu's class to its induced family's count at m, and empty is the
    empty mu's split-D count times p(k) (0 unless p1 == q1 == 0)."""
    N = _size(p, q)
    # the induced module families depend on m and the parity only
    ind1, ind2 = (f"ind{i}-{'B' if N % 2 else 'D'}" for i in (1, 2))
    pks = [count_partitions(k) for k in range(min(p, q) // 2 + 1)]
    for m in range(min(p, q) + 1):
        if N % 2 == 0 and (m - q) % 2:
            continue
        theta = {1: theta_k0_count(ind1, m), 2: theta_k0_count(ind2, m)}
        for k in range((min(p, q) - m) // 2 + 1):
            p1, q1, pk = p - m - 2 * k, q - m - 2 * k, pks[k]
            yield m, k, p1, q1, theta, pk, theta_k0_count("split-D", m) * pk if p1 == q1 == 0 else 0


@lru_cache(maxsize=1024)  # every signature of the sizes to 43; each keeps its listing
def _sigma_b_column(p: int, q: int) -> tuple:
    """The _column of sigma_b_listing(p, q), each mu's kind (family, class index, deltas, pi)."""
    mus, classes, texts, pis = sigma_b_listing(p, q)
    mus, keys, kinds, *rest = _column(mus, texts, zip(classes, pis))
    return mus, keys, tuple((f"sigma-b{c.index}", c.index, c.deltas, pi) for c, pi in kinds), *rest


def _k0_blocks(p: int, q: int):
    """(m, k, column, cells) for each cell of _k0_cells: an orbit over a support carries
    theta * p(k) * pi(mu) local systems, the split-D count for the empty mu."""
    for m, k, p1, q1, theta, pk, empty in _k0_cells(p, q):
        if empty:  # no Richardson diagram of signature (0, 0): the empty mu, class 3
            yield (m, k, _column(((),), ("0",), (0,)),
                   (("empty-mu", empty, _support_deltas(m, _class_of(0, 0, False).deltas)),))
        column = _sigma_b_column(p1, q1)
        yield m, k, column, tuple((family, theta[i] * pk * pi, _support_deltas(m, deltas))
                                  for family, i, deltas, pi in column[2])


def census_bdi_k0(p: int, q: int) -> CensusReport:
    """Direct stratum-by-stratum census at the trivial central character."""
    return _report(("bdi", p, q), "k0", p + q, _k0_blocks(p, q))


@lru_cache(maxsize=None)
def census_k0_total(p: int, q: int) -> int:
    """census_bdi_k0(p, q).total, memoised, with no record built: each cell adds
    p(k) times theta times each class's richardson_pi_sums times the orbits over
    a support of that class, and the empty mu's split-D count times its orbits."""
    total, two, empty_mu = 0, _class_of(1, 0, False).deltas, _class_of(0, 0, False).deltas
    for m, k, p1, q1, theta, pk, empty in _k0_cells(p, q):
        b1, b2 = richardson_pi_sums(p1, q1)  # class 1's and class 2's (two deltas) pi sums
        total += pk * (theta[1] * b1 + theta[2] * b2 * len(_support_deltas(m, two))) \
            + empty * len(_support_deltas(m, empty_mu))
    return total


@lru_cache(maxsize=None)
def _staircase(t: int) -> tuple:
    """mu_t(t)'s _column and class, built once per t."""
    return _column((mu_t(t).rows,), (format_diagram(mu_t(t)),), (None,)), classify(mu_t(t))


def _k1_blocks(p: int, q: int):
    """(m, k, mu_t's column, cells) for every stratum of the nontrivial-character
    census of (p, q): strata (m, k) with 2m + 4k = N - t^2 over the uniform
    staircase, none when N < t^2. The stratum's base * theta_k1(m, t) local
    systems are shared evenly by the orbits over its support (there are several
    only at m = 0, where theta_k1 is eta(0, t), their number)."""
    t = p - q
    D = _size(p, q) - t * t
    column, cls = _staircase(t)
    for k in range(D // 4 + 1):
        m = (D - 4 * k) // 2
        deltas = _support_deltas(m, cls.deltas)
        count = count_bipartitions(k) * theta_k1_count(m, t)
        if count % len(deltas):
            raise ArithmeticError(f"{count} local systems do not share evenly among the "
                                  f"{len(deltas)} orbits over "
                                  f"{''.join(next(_block_mus(m, k, column, (None,)))[1:3])}")
        yield m, k, column, (("kappa1-staircase", count // len(deltas), deltas),)


def census_bdi_k1(p: int, q: int) -> CensusReport:
    """Direct census at the nontrivial central character."""
    return _report(("bdi", p, q), "k1", p + q, _k1_blocks(p, q))


@lru_cache(maxsize=None)
def census_k1_total(p: int, q: int) -> int:
    """census_bdi_k1(p, q).total, memoised, with no report built."""
    return sum(count * len(deltas) for *_, ((_, count, deltas),) in _k1_blocks(p, q))


@lru_cache(maxsize=64)  # as lambda_b_listing's
def _lambda_b_column(n: int) -> tuple:
    """The _column of lambda_b_listing(n), every mu of one kind."""
    mus, _, texts = lambda_b_listing(n)
    return _column(mus, texts, [None] * len(mus))


def _diii_blocks(n: int, central: str):
    """(m, 0, column, cells) for every stratum of one equal-signature census: k0
    strata (2k, mu) with mu in Lambda_b(n - 2k), each carrying p(k); for even
    n >= 2 one k1 stratum (n, empty) carrying p2(n/2). The n=n family never
    splits, so each support is one orbit; all mus of a Lambda_b listing share one cell."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if central == "k0":
        for k in range(n // 2 + 1):
            yield 2 * k, 0, _lambda_b_column(n - 2 * k), (("diii", count_partitions(k), (None,)),)
    elif n >= 2 and n % 2 == 0:
        yield n, 0, _column(((),), ("0",), (0,)), (("diii", count_bipartitions(n // 2), (None,)),)


def census_diii(n: int) -> tuple[CensusReport, CensusReport]:
    """Both central-character censuses for the equal-signature pair."""
    return tuple(_report(("diii", n), central, 2 * n, _diii_blocks(n, central))
                 for central in ("k0", "k1"))


@lru_cache(maxsize=None)
def census_diii_totals(n: int) -> tuple[int, int]:
    """The (k0, k1) totals of census_diii(n), memoised, with no diagram listed:
    sum_k p(k) |Lambda_b(n - 2k)|, and the k1 stratum's p2(n/2) for even n >= 2."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    sizes = _lambda_b_counts(_top(n, 16))
    return (sum(count_partitions(k) * sizes[n - 2 * k] for k in range(n // 2 + 1)),
            count_bipartitions(n // 2) if n >= 2 and n % 2 == 0 else 0)


# ---------------------------------------------------------------------------
# Closed count formulas (series route)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _k0_bases(order: int):
    odd_all = qseries.prod_series(order, (1, 1, 0, 1), (-1, 1, 0, -3))
    even_sq = qseries.prod_series(order, (1, 2, 0, 2), (-1, 2, 0, -3))
    part_even = qseries.prod_series(order, (-1, 2, 0, -1))
    return odd_all, even_sq, part_even


def _as_count(c: Fraction, p: int, q: int) -> int:
    if c.denominator != 1:
        raise ArithmeticError(f"non-integer count {c} at ({p},{q})")
    return int(c)


def _t_ratio(s: qseries.FormalSeries, t: int) -> qseries.FormalSeries:
    """s (1+x^t)/(1+x^2t), which is s itself at t = 0."""
    return s.mul_binomial(1, t, 1).mul_binomial(1, 2 * t, -1) if t else s


@lru_cache(maxsize=None)
def count_formula_k0(p: int, q: int) -> int:
    """Coefficient extraction for the trivial-character total; inputs with
    p < q are swapped first (the census is symmetric under sign swap)."""
    _size(p, q)
    if p < q:
        p, q = q, p
    t = p - q
    # 4 x^q of (base1 + 9 base3 + 6 base2)/4 at t = 0, else of base1/(2 (1+x^t)) + (3/2) base2
    # (1+x^t)/(1+x^2t), x^it signed (-1)^i, (-1)^(i//2); bases at a block order serve many q
    b1, b2, b3 = (base.nums for base in _k0_bases(_top(q, 16)))
    if t == 0:
        four = b1[q] + 9 * b3[q] + 6 * b2[q]
    else:
        four = sum((-1) ** i * 2 * a + (-1) ** (i // 2) * 6 * b
                   for i, (a, b) in enumerate(zip(b1[q::-t], b2[q::-t])))
    return _as_count(Fraction(four, 4), p, q)


@lru_cache(maxsize=None)
def _k1_base(order: int) -> qseries.FormalSeries:
    return qseries.prod_series(order, (-1, 4, 0, -1), (-1, 2, 0, -1))


def count_formula_k1(p: int, q: int) -> int:
    """eta times a coefficient of 1/((x^4-products)(x^2-products))."""
    t = p - q
    D = _size(p, q) - t * t
    if D < 0:
        return 0
    return eta(D // 2, t) * _as_count(_k1_base(D).coeff(D), p, q)


def _tb1_series(t: int, order: int) -> qseries.FormalSeries:
    """The parity-matched square product over 1+x^t, halved at t = 0."""
    s = qseries.prod_series(order, (1, 2, -(t % 2), 2), (-1, 2, 0, -2))
    return s.scale(Fraction(1, 2)) if t == 0 else s.mul_binomial(1, t, -1)


def _split_sum(order: int, odd_side: bool, scalar) -> qseries.FormalSeries:
    """scalar prod (1+x^(2s-1))^2 (1+x^s)^2 + (3/2) prod (1+x^(4s-2))(1+x^2s)
    on the odd side; 2s and 4s replace 2s-1 and 4s-2 on the even side."""
    off = 1 if odd_side else 0
    return (qseries.prod_series(order, (1, 2, -off, 2), (1, 1, 0, 2), scalar=scalar)
            + qseries.prod_series(order, (1, 4, -2 * off, 1), (1, 2, 0, 1),
                                  scalar=Fraction(3, 2)))


def _split_series(order: int, odd_m: bool) -> qseries.FormalSeries:
    """x prod (1+x^4s)^4 (1+x^2s)^4 for odd m, else (1/4) prod (1+x^(4s-2))^4
    (1+x^2s)^4 + (3/2) prod (1+x^(4s-2))(1+x^2s): the closed cuspidal k0
    count of the split pair (m, m) is its x^m coefficient."""
    if odd_m:
        return qseries.prod_series(order, (1, 4, 0, 4), (1, 2, 0, 4), shift=1)
    return (qseries.prod_series(order, (1, 4, -2, 4), (1, 2, 0, 4), scalar=Fraction(1, 4))
            + qseries.prod_series(order, (1, 4, -2, 1), (1, 2, 0, 1), scalar=Fraction(3, 2)))


def _nilcoro_series(t: int, order: int) -> qseries.FormalSeries:
    """(1/2) _tb1_series(t) + (3/2) (1+x^t)/(1+x^2t) prod (1+x^(4s-2))/(1-x^2s)^2
    for odd t, with 1+x^4s in place of 1+x^(4s-2) for even t: the closed
    nilpotent-support k0 count of (q+t, q) is its x^q coefficient."""
    rest = qseries.prod_series(order, (1, 4, -2 * (t % 2), 1), (-1, 2, 0, -2),
                               scalar=Fraction(3, 2))
    return _tb1_series(t, order).scale(Fraction(1, 2)) + _t_ratio(rest, t)


# ---------------------------------------------------------------------------
# Sub-censuses and aggregates
# ---------------------------------------------------------------------------

def cuspidal_counts(p: int, q: int) -> tuple[int, int]:
    """(trivial, nontrivial) central-character cuspidal counts.

    The trivial-character part is nonzero only for split pairs, where it
    equals the full-support count; the nontrivial part is the k=0 stratum
    count, nonzero whenever N >= t^2.
    """
    N, t = _size(p, q), p - q
    k0 = theta_k0_count("split-B" if N % 2 else "split-D", min(p, q)) if abs(t) <= 1 else 0
    D = N - t * t
    k1 = theta_k1_count(D // 2, t) if D >= 0 else 0
    return k0, k1


def nilpotent_support_counts(p: int, q: int) -> tuple[int, int]:
    """(trivial, nontrivial) counts of sheaves supported on the nilpotent
    cone itself: class-1 Richardson diagrams contribute their character
    count once, class-2 twice (two orbits each); the nontrivial part lives
    only on the exact staircase pair."""
    b1, b2 = richardson_pi_sums(p, q)
    t = p - q
    k1 = eta(0, t) if p + q == t * t else 0
    return b1 + 2 * b2, k1


def b_tilde(p: int, q: int) -> int:
    """Weighted Richardson count 2*b1 + b2 (the disconnected-group census)."""
    b1, b2 = richardson_pi_sums(p, q)
    return 2 * b1 + b2


def aggregate_T(N: int) -> tuple[int, int]:
    """Total trivial-character counts over all pairs p+q=N, by the formula
    route and by the direct census route."""
    t0 = sum(count_formula_k0(p, N - p) for p in range(N + 1))
    tprime = sum(census_k0_total(p, N - p) for p in range(N + 1))
    return t0, tprime


def kappa0_orbit_sum(p: int, q: int) -> int:
    """Third route for the trivial character: orbits weighted by their
    component-group character counts, over the class counts of sigma."""
    return sum(c.orbits * 2 ** c.r * n for c, n in sigma_class_counts(p, q))


def kappa1_orbit_sum(p: int, q: int) -> int:
    """Third route for the nontrivial character, via the case table for the
    double cover's component groups."""
    return sum(c.orbits * _kappa1_data(c, p, q).count * n for c, n in sigma_class_counts(p, q))


def sigma23_r_sum(p: int, q: int) -> int:
    """Sum of 2^r over the class-2 and class-3 diagrams of the pair."""
    return sum(2 ** c.r * n for c, n in sigma_class_counts(p, q) if c.index in (2, 3))


@lru_cache(maxsize=None)
def diii_closure_total(n: int) -> int:
    """Orbit count |Lambda^{n,n}|, one trivial-character local system each:
    _lambda_rows gives an odd length one signing and an even length m + 1 for
    2m rows, so it is the x^n coefficient of prod 1/((1-x^s)(1-x^2s))."""
    return int(qseries.prod_series(n, (-1, 1, 0, -1), (-1, 2, 0, -1)).coeff(n))


# ---------------------------------------------------------------------------
# Sub-censuses: one rule per (family, central character, subset)
# ---------------------------------------------------------------------------

_EVERY = lambda m, k, family: True
_NO_STRATUM = (lambda m, k, family: False, lambda: 0)


def _bdi_rules(p: int, q: int) -> dict:
    """The sub-census rules of the pair (p, q), keyed by (central, subset):
    (keep(m, k, family) for the strata kept, the --check route's total)."""
    t, D, m = p - q, p + q - (p - q) ** 2, min(p, q)
    # the one full-support stratum k = 0, m = D/2, on split pairs only
    full = lambda m, k, family: abs(t) <= 1 and k == 0 and m == D // 2
    def split_k0():
        # coro-cuspidal-k0: the near-split (|t| = 1) or the odd or even split
        # (t = 0) series at x^m, times the orbits over 1+^p 1-^q; the series
        # start at m = 1, so p + q <= 1 reads the census's split theta
        if abs(t) > 1:
            return 0
        series = _split_sum(m, False, Fraction(1, 2)) if t else _split_series(m, m % 2 == 1)
        theta = _as_count(series.coeff(m), p, q) if m else cuspidal_counts(p, q)[0]
        return theta * classify(diagram((1, p, q))).orbits
    # coro-cuspidal-k1: eta(D/2, t) times the x^(D/2) coefficient of prod (1+x^s);
    # the census reads eta too, the one input taken on trust here:
    # kappa1-orbit-sum checks it
    coro_k1 = lambda: (eta(D // 2, t) * int(qseries.prod_series(D // 2, (1, 1, 0, 1)).coeff(D // 2))
                       if D >= 0 else 0)
    # the nilcoro series at x^m; 0 at p = q = 0, where it starts at 7/4
    nilcoro_k0 = lambda: _as_count(_nilcoro_series(abs(t), m).coeff(m), p, q) if p + q else 0
    # nilcoro-k1: the orbits over the staircase times their kappa1 count
    staircase_k1 = lambda: (classify(mu_t(t)).orbits * kappa1_data_BDI(mu_t(t)).count
                            if D == 0 else 0)
    return {
        ("k0", "all"): (_EVERY, lambda: count_formula_k0(p, q)),
        ("k0", "nilpotent"): (lambda m, k, family: m == k == 0 and family != "empty-mu",
                              nilcoro_k0),
        # cuspidal and full coincide at the trivial character
        ("k0", "cuspidal"): (full, split_k0),
        ("k0", "full"): (full, split_k0),
        ("k1", "all"): (_EVERY, lambda: count_formula_k1(p, q)),
        ("k1", "nilpotent"): (lambda m, k, family: m == k == 0, staircase_k1),
        ("k1", "cuspidal"): (lambda m, k, family: k == 0, coro_k1),
        ("k1", "full"): (full, lambda: coro_k1() if abs(t) <= 1 else 0),
    }


def _diii_rules(n: int) -> dict:
    """The sub-census rules of the pair (n, n), keyed by (central, subset)."""
    # the all-even diagrams of Lambda^{n,n} (diii-k1-bijection), not p2(n/2); none at n = 0
    all_even = lambda: len(lambda_even_listing(n)[0]) if n else 0
    return {
        # one local system per orbit of Lambda^{n,n} (the census lists or counts Lambda_b)
        ("k0", "all"): (_EVERY, lambda: diii_closure_total(n)),
        # |Lambda_b(n)| = p(n): prod(1+x^s)/prod(1-x^(2s)) = prod 1/(1-x^s)
        ("k0", "nilpotent"): (lambda m, k, family: m == 0, lambda: count_partitions(n)),
        ("k0", "full"): (lambda m, k, family: m == 2 * (n // 2), lambda: count_partitions(n // 2)),
        # no cuspidal sheaves on this family
        ("k0", "cuspidal"): _NO_STRATUM,
        ("k1", "all"): (_EVERY, all_even),
        ("k1", "full"): (_EVERY, all_even),
        ("k1", "cuspidal"): _NO_STRATUM,
        ("k1", "nilpotent"): _NO_STRATUM,
    }


def _subset_rule(report: CensusReport, subset: str):
    """(keep, expected): the sub-census's strata filter and its --check route."""
    if subset not in SUBSETS:
        raise ValueError(f"unknown subset {subset!r}")
    family, *params = report.pair
    rules = _bdi_rules(*params) if family == "bdi" else _diii_rules(*params)
    return rules[report.central, subset]


def subset_report(report: CensusReport, subset: str) -> CensusReport:
    """The report cut down to one sub-census's strata; "all" is the report itself."""
    if subset == "all":
        return report
    keep, _ = _subset_rule(report, subset)  # a cell not kept keeps no orbit
    blocks = ((m, k, column, tuple((f, n, d if keep(m, k, f) else ()) for f, n, d in cells))
              for m, k, column, cells in report.blocks)
    return CensusReport(report.pair, report.central,
                        tuple(b for b in blocks if any(cell[2] for cell in b[3])), report.warnings)


def expected_subset_total(report: CensusReport, subset: str) -> int:
    """Expected total for --check, read off the sub-census's route."""
    return _subset_rule(report, subset)[1]()
