"""Signed Young diagrams and the orbit classification sets.

A signed Young diagram groups rows by length: each group stores the common
row length together with how many rows start with + and how many with -.
Boxes within a row alternate in sign, so a +row of length L holds ceil(L/2)
plus boxes and floor(L/2) minus boxes, and conversely for a -row.

The sets implemented here:

* ``enum_sigma(p, q)``    -- orthogonal-splitting diagrams: even lengths have
  equally many +rows and -rows; signature (p, q).
* ``enum_sigma_b(p, q)``  -- the Richardson subset: all lengths odd, rows of
  equal length share one starting sign, and consecutive rows pair up so that
  (sign bit + half-length) has constant parity inside each pair. Pairing
  starts at the second row when the total box count is odd, at the first row
  when it is even.
* ``enum_lambda(n)`` / ``enum_lambda_b(n)`` -- the n=n split variants: odd
  lengths have matched row counts, even lengths have even counts per sign
  (with single-sign groups and matched counts at most 1 for the ``_b`` set).
  ``enum_lambda_even(n)`` walks only the all-even members of the first.

Every enumerator builds exactly its set from the one partition generator,
which yields each partition grouped as (length, multiplicity) pairs (the
partitions of p+q whose even parts have even multiplicity, the odd
partitions of p+q, the partitions of n with every multiplicity doubled), and
assigns only admissible signs to each group. Three per-size tables are
cached: ``enum_sigma``'s and ``enum_sigma_b``'s, keyed by a signature summed
group by group as signs are chosen, each diagram next to its class (read by
``sigma_listing``, ``sigma_b_listing``); and ``enum_lambda_b``'s. Enumerator
output skips the checks (valid by construction). ``is_sigma_b`` and
``in_lambda`` ask the same row rules. ``sigma_class_counts`` counts sigma's
classes without listing it, by a transfer-matrix DP (Stanley, EC1 4.7) over
``_sigma_rows``' options, with the census's class rule ``_class_of`` and
nothing from the formula route; one walk, on vectors of ways by plus-box
count, serves a block of 8 sizes.

``diagram()`` is the one place that merges groups of equal length: the
parser builds through it, and the union of two diagrams' rows is
``diagram(*d1.rows, *d2.rows)``.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from operator import add

from .partitions import BiPartition, Partition, _gen_partitions, count_partitions


@dataclass(frozen=True, slots=True)
class SignedYoungDiagram:
    """Grouped rows (length, plus-row count, minus-row count), lengths
    strictly decreasing, every group nonempty."""

    rows: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self) -> None:
        prev = None
        for length, plus, minus in self.rows:
            if length < 1:
                raise ValueError("row lengths must be positive")
            if plus < 0 or minus < 0 or plus + minus == 0:
                raise ValueError("each length group needs at least one row")
            if prev is not None and length >= prev:
                raise ValueError("row lengths must be strictly decreasing")
            prev = length

    @property
    def size(self) -> int:
        return sum(length * (plus + minus) for length, plus, minus in self.rows)

    @property
    def is_empty(self) -> bool:
        return not self.rows

    def signature(self) -> tuple[int, int]:
        p = q = 0
        for length, plus, minus in self.rows:
            up, down = (length + 1) // 2, length // 2
            p += plus * up + minus * down
            q += plus * down + minus * up
        return p, q

    def sign_swap(self) -> SignedYoungDiagram:
        return SignedYoungDiagram(tuple((l, m, p) for l, p, m in self.rows))

    def all_parts_odd(self) -> bool:
        return all(length % 2 == 1 for length, _, _ in self.rows)

    def all_parts_even(self) -> bool:
        return all(length % 2 == 0 for length, _, _ in self.rows)

    def __str__(self) -> str:
        return format_diagram(self)


_set_rows = SignedYoungDiagram.rows.__set__  # the slot's setter, past the frozen guard


def _unchecked(rows: tuple[tuple[int, int, int], ...]) -> SignedYoungDiagram:
    """SignedYoungDiagram(rows) without the checks, for enumerator output."""
    d = object.__new__(SignedYoungDiagram)
    _set_rows(d, rows)
    return d


def format_diagram(d: SignedYoungDiagram) -> str:
    """Canonical text form: groups `<length><sign>[^<mult>]`, e.g. `3- 1+^2`;
    a group carrying both signs prints as two tokens; empty prints as `0`."""
    return " ".join(map(_group_text, d.rows)) if d.rows else "0"


@lru_cache(maxsize=None)
def _group_text(row: tuple[int, int, int]) -> str:
    """One group's tokens, the + rows first: format_diagram joins them."""
    length, plus, minus = row
    return " ".join(f"{length}{sign}" + (f"^{mult}" if mult > 1 else "")
                    for sign, mult in (("+", plus), ("-", minus)) if mult)


_TOKEN = re.compile(r"^(\d+)([+-])(?:\^(\d+))?$")


def parse_diagram(text: str) -> SignedYoungDiagram:
    """Parse the canonical format; grouped and ungrouped tokens both accepted
    (`1+ 1+` and `1+^2` are the same diagram)."""
    text = text.strip()
    if text == "0" or text == "":
        return SignedYoungDiagram()
    groups = []
    for tok in text.split():
        m = _TOKEN.match(tok)
        if not m:
            raise ValueError(f"bad diagram token {tok!r}")
        length, sign, mult = int(m.group(1)), m.group(2), int(m.group(3) or 1)
        if mult < 1:
            raise ValueError(f"bad multiplicity in token {tok!r}")
        groups.append((length, mult, 0) if sign == "+" else (length, 0, mult))
    return diagram(*groups)


def diagram(*groups: tuple[int, int, int]) -> SignedYoungDiagram:
    """Build a diagram from (length, plus, minus) groups in any order;
    groups of equal length merge, and groups with no rows are dropped."""
    merged: dict[int, list[int]] = {}
    for length, plus, minus in groups:
        if plus < 0 or minus < 0:
            raise ValueError(f"negative row count in group {(length, plus, minus)}")
        entry = merged.setdefault(length, [0, 0])
        entry[0] += plus
        entry[1] += minus
    rows = tuple((length, merged[length][0], merged[length][1])
                 for length in sorted(merged, reverse=True)
                 if merged[length][0] + merged[length][1] > 0)
    return SignedYoungDiagram(rows)


def in_sigma(d: SignedYoungDiagram) -> bool:
    """Membership in the orthogonal classification set: even lengths must
    carry equally many +rows and -rows."""
    return all(plus == minus for length, plus, minus in d.rows if length % 2 == 0)


def in_lambda(d: SignedYoungDiagram) -> bool:
    """Membership in the enum_lambda set: every group is one of _lambda_rows'
    signings of its rows (which have an even count)."""
    return all((length, plus, minus) in _lambda_rows(length, (plus + minus) // 2)
               for length, plus, minus in d.rows)


DELTA_NAMES = ("I", "II", "III", "IV")


@dataclass(frozen=True)
class DiagramClass:
    """The (a, b) invariants, the class index 1|2|3, the 2-group rank r, and
    whether an odd length repeats a sign (then no kappa1 irreducibles)."""

    a: int
    b: int
    index: int
    r: int
    repeated: bool = False

    @property
    def orbits(self) -> int:
        """Number of orbits over a diagram of the class: 1, 2, or 4."""
        return 1 << (self.index - 1)

    @property
    def deltas(self) -> tuple[str | None, ...]:
        """The decorations naming those orbits, one per orbit."""
        return DELTA_NAMES[:self.orbits] if self.index > 1 else (None,)


@lru_cache(maxsize=None)
def _class_of(a: int, b: int, repeated: bool) -> DiagramClass:
    """The one shared DiagramClass of each (a, b, repeated)."""
    if a > 0 and b > 0:
        return DiagramClass(a, b, 1, a + b - 2, repeated)
    if a + b > 0:
        return DiagramClass(a, b, 2, a + b - 1, repeated)
    return DiagramClass(0, 0, 3, 0, repeated)


def _ab(rows) -> tuple[int, int, bool]:
    """The invariants (a, b) of the row groups, and whether an odd length
    repeats a sign: an odd length adds one to a for its +rows and one to b
    for its -rows at 1 mod 4, the reverse at 3."""
    a, b, repeated = 0, 0, False
    for length, plus, minus in rows:
        repeated |= length % 2 == 1 and (plus > 1 or minus > 1)
        if length % 4 == 1:
            a += plus > 0
            b += minus > 0
        elif length % 4 == 3:
            a += minus > 0
            b += plus > 0
    return a, b, repeated


def classify(d: SignedYoungDiagram) -> DiagramClass:
    if not in_sigma(d):
        raise ValueError(f"{d} is not in the orthogonal classification set")
    return _class_of(*_ab(d.rows))


def _sigma_rows(length: int, mult: int) -> list[tuple[tuple[int, int, int], int]]:
    """(row, plus-box count) for each signing of a group: even lengths
    balanced; odd lengths any split, plus descending."""
    half = length // 2
    if length % 2 == 0:
        return [((length, mult // 2, mult // 2), mult * half)] if mult % 2 == 0 else []
    return [((length, plus, mult - plus), mult * half + plus) for plus in range(mult, -1, -1)]


def _by_signature(n: int, partitions, signings) -> dict:
    """The diagrams of every (rows, p) in signings(groups), over the grouped
    partitions, keyed by signature (p, n - p) in generator order, and their
    classes: {signature: (diagrams, classes)}."""
    table: dict[tuple[int, int], tuple[list, list]] = {}
    for groups in partitions:
        for rows, p in signings(groups):
            diagrams, classes = table.setdefault((p, n - p), ([], []))
            diagrams.append(_unchecked(rows))
            classes.append(_class_of(*_ab(rows)))
    return {sig: (tuple(ds), tuple(cs)) for sig, (ds, cs) in table.items()}


def _sigma_signings(groups) -> list[tuple[tuple, int]]:
    """(rows, p) for every signing of the groups by _sigma_rows, first group
    varying slowest; p, the plus-box count, accumulates group by group."""
    out = [((), 0)]
    for length, mult in groups:
        options = _sigma_rows(length, mult)
        out = [(rows + (row,), p + dp) for rows, p in out for row, dp in options]
    return out


def _size(p: int, q: int) -> int:
    """p + q, refusing a negative signature entry."""
    if p < 0 or q < 0:
        raise ValueError("signature entries must be nonnegative")
    return p + q


@lru_cache(maxsize=64)
def _sigma_by_signature(n: int) -> dict:
    return _by_signature(n, _gen_partitions(n, n, paired=True), _sigma_signings)


def sigma_listing(p: int, q: int) -> tuple[tuple, tuple]:
    """enum_sigma(p, q) and the class of each of its diagrams, in order."""
    return _sigma_by_signature(_size(p, q)).get((p, q), ((), ()))


def enum_sigma(p: int, q: int) -> list[SignedYoungDiagram]:
    """All diagrams of the orthogonal set with signature (p, q)."""
    return list(sigma_listing(p, q)[0])


@lru_cache(maxsize=8)
def _class_count_block(top: int) -> dict:
    """sigma_class_counts of sizes top - 7 .. top by signature, from one walk
    to top: a walk holds every smaller size, so a block of 8 sizes shares one
    (blocks of 4 and 16 timed alike up to 32), and 8 cached blocks reach 64
    sizes. ways[boxes] maps (a, b, repeated) to the ways at each plus-box
    count 0 .. boxes over the odd lengths, each in every signing _sigma_rows
    gives it; even lengths add nothing to a class, so they fold in as p(m)
    ways at 4m boxes, 2m of them plus."""
    ways = [{} for _ in range(top + 1)]
    ways[0][0, 0, False] = [1]
    for length in range(1, top + 1, 2):
        options = [(length * mult, dp, *_ab((row,)))
                   for mult in range(1, top // length + 1) for row, dp in _sigma_rows(length, mult)]
        for boxes in range(top - length, -1, -1):  # larger first: each source read before it grows
            for (a, b, rep), vec in ways[boxes].items():
                for dn, dp, da, db, drep in options:
                    if boxes + dn > top:
                        break
                    target, key = ways[boxes + dn], (a + da, b + db, rep or drep)
                    if (out := target.get(key)) is None:
                        out = target[key] = [0] * (boxes + dn + 1)
                    out[dp:dp + boxes + 1] = map(add, out[dp:dp + boxes + 1], vec)
    even = [count_partitions(m) for m in range(top // 4 + 1)]
    table: dict[tuple[int, int], list] = {}
    for n in range(max(top - 7, 0), top + 1):
        acc: dict = {}
        for m, boxes in enumerate(range(n, -1, -4)):
            for key, vec in ways[boxes].items():
                for p, w in enumerate(vec, 2 * m):
                    if w:
                        acc[p, key] = acc.get((p, key), 0) + w * even[m]
        for (p, key), w in acc.items():
            table.setdefault((p, n - p), []).append((_class_of(*key), w))
    return {sig: tuple(counts) for sig, counts in table.items()}


def sigma_class_counts(p: int, q: int) -> tuple[tuple[DiagramClass, int], ...]:
    """(class, multiplicity) over enum_sigma(p, q), without listing it."""
    return _class_count_block(-(-_size(p, q) // 8) * 8).get((p, q), ())


def _richardson_signings(groups, start: int) -> list[tuple[tuple, int]]:
    """(rows, p), p summed group by group, with one sign bit (0 for +) per
    group in lexicographic order, such that every row pair (start + 2k, start
    + 2k + 1) has constant parity of sign bit + half-length. Rows inside a
    group share their parity, so only a pair straddling two groups
    constrains anything: it forces the later sign."""
    out = [((), 0)]
    row = prev_mu = 0
    for length, mult in groups:
        mu = (length - 1) // 2
        signed = (((length, mult, 0), mult * (mu + 1)), ((length, 0, mult), mult * mu))
        forced = row > start and (row - start) % 2 == 1
        out = [(rows + (signed[bit][0],), p + signed[bit][1]) for rows, p in out
               for bit in ((((rows[-1][2] > 0) + prev_mu - mu) % 2,) if forced else (0, 1))]
        row += mult
        prev_mu = mu
    return out


def is_sigma_b(d: SignedYoungDiagram) -> bool:
    """Richardson-set membership: d is nonempty with all lengths odd and one
    sign per length group, and its rows are one of the Richardson signings
    of its groups."""
    if d.is_empty or not d.all_parts_odd() or any(plus and minus for _, plus, minus in d.rows):
        return False
    groups = tuple((length, plus + minus) for length, plus, minus in d.rows)
    return any(rows == d.rows for rows, _ in _richardson_signings(groups, d.size % 2))


@lru_cache(maxsize=64)
def _sigma_b_by_signature(n: int) -> dict:
    # the empty diagram (n = 0) is not Richardson
    return _by_signature(n, _gen_partitions(n, n, odd=True) if n else (),
                         lambda groups: _richardson_signings(groups, n % 2))


def sigma_b_listing(p: int, q: int) -> tuple[tuple, tuple]:
    """enum_sigma_b(p, q) and the class of each of its diagrams, in order."""
    return _sigma_b_by_signature(_size(p, q)).get((p, q), ((), ()))


def enum_sigma_b(p: int, q: int) -> list[SignedYoungDiagram]:
    """Members of the Richardson subset with signature (p, q)."""
    return list(sigma_b_listing(p, q)[0])


def _lambda_rows(length: int, mult: int) -> list[tuple[int, int, int]]:
    """Signings of a group of 2*mult rows: odd lengths matched, even lengths
    with even per-sign counts, plus descending."""
    if length % 2:
        return [(length, mult, mult)]
    return [(length, plus, 2 * mult - plus) for plus in range(2 * mult, -1, -2)]


def _lambda_b_rows(length: int, mult: int) -> list[tuple[int, int, int]]:
    """The Richardson signings of a group of 2*mult rows: an odd length holds
    one row of each sign, an even length a single sign, plus first."""
    if length % 2:
        return [(length, 1, 1)] if mult == 1 else []
    return [(length, 2 * mult, 0), (length, 0, 2 * mult)]


def _doubled_diagrams(n: int, rows) -> list[SignedYoungDiagram]:
    """Diagrams whose row lengths are a partition of n with every
    multiplicity doubled, each group (length, mult) given one of the signed
    rows in rows(length, mult), first group varying slowest."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return [_unchecked(choice) for groups in _gen_partitions(n, n)
            for choice in product(*(rows(length, mult) for length, mult in groups))]


def enum_lambda(n: int) -> list[SignedYoungDiagram]:
    """All diagrams of size 2n with odd lengths matched and even lengths
    carrying even per-sign row counts (the signature is forced to (n, n)).
    Every row count is even, so the row lengths are a partition of n with
    each multiplicity doubled."""
    return _doubled_diagrams(n, _lambda_rows)


def enum_lambda_even(n: int) -> list[SignedYoungDiagram]:
    """The all-even members of ``enum_lambda(n)``, in the same order: row
    lengths twice a partition of n/2, each multiplicity doubled; none for odd n."""
    if n > 0 and n % 2:
        return []
    return _doubled_diagrams(n // 2, lambda j, mult: _lambda_rows(2 * j, mult))


@lru_cache(maxsize=64)
def _lambda_b_table(n: int) -> tuple[SignedYoungDiagram, ...]:
    return tuple(_doubled_diagrams(n, _lambda_b_rows))


def enum_lambda_b(n: int) -> list[SignedYoungDiagram]:
    """The Richardson members of ``enum_lambda(n)``, in the same order: odd
    lengths carry exactly one row of each sign, even lengths one sign."""
    return list(_lambda_b_table(n))


def mu_t(t: int) -> SignedYoungDiagram:
    """The uniform-sign staircase of odd lengths 2|t|-1, ..., 3, 1; empty at 0."""
    signs = (1, 0) if t > 0 else (0, 1)
    return SignedYoungDiagram(tuple((length, *signs) for length in range(2 * abs(t) - 1, 0, -2)))


def diii_kappa1_bijection(d: SignedYoungDiagram) -> BiPartition:
    """The explicit pairing of all-even diagrams with bipartitions of size/4:
    a group (2m)^{2p}_+(2m)^{2q}_- maps to m^p in the first slot and m^q in
    the second."""
    first: list[int] = []
    second: list[int] = []
    for length, plus, minus in d.rows:
        if length % 2:
            raise ValueError(f"{d} has an odd row length")
        if plus % 2 or minus % 2:
            raise ValueError(f"{d} has odd per-sign multiplicities")
        first.extend([length // 2] * (plus // 2))
        second.extend([length // 2] * (minus // 2))
    return BiPartition(Partition(tuple(first)), Partition(tuple(second)))
