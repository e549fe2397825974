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
  ``enum_lambda_even(n)`` lists only the all-even members of the first.

Every set is one ``partitions._walk`` over its row lengths (all up to p+q for
sigma, the odd ones for sigma_b; all up to n for Lambda and Lambda_b and the
even ones for the all-even Lambda, a group (length, mult) of these standing
for 2*mult rows) under one extend rule, which signs a group prefix once for
every partition sharing it: ``_signed`` takes each row of a per-group
option function (``_sigma_rows``, ``_lambda_rows``, ``_lambda_b_rows``; a
group with none prunes the branch), ``_richardson`` each sign bit that
``_richardson_bits`` allows, carrying the group above and omega's size
(``_richardson_in_omega``). ``_by_signature`` files a size's signings into a
cached listing of rows, classes and texts (``sigma_listing``, and
``sigma_b_listing`` with each ``_pi``, by signature; ``lambda_listing``,
``lambda_b_listing``, ``lambda_even_listing``), from each group option's
``_plus_boxes``, ``_ab`` and text read once (``_options``), so no diagram is
built; ``enum_*`` build each listed diagram through the checked constructor.
``in_sigma`` and ``in_lambda`` ask the same row rules, and ``_richardson_omega``
checks a diagram with both Richardson rules in one pass down its groups.
The count-only routes list no diagram: each is the one fold ``partitions._knapsack``
under its own moves, read off the listing's rules (nothing from the formula route),
one cached pass serving every size to a top: ``sigma_class_counts`` over
``_sigma_rows``' smallest groups and ``richardson_pi_sums`` by (class, omega's size)
with ``_pi``, both packing ways by plus-box count into one int (``_digit_width``),
and ``_lambda_b_counts`` by size.

``diagram()`` merges groups of equal length: the parser and the census's
entries view (each stratum support) build through it, and the union of two
diagrams' rows is ``diagram(*d1.rows, *d2.rows)``. The census's rows join a
support's text from mu's and the merged groups' (``census._block_mus``), for speed.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .partitions import BiPartition, Partition, _knapsack, _top, _walk, count_bipartitions


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

    def signature(self) -> tuple[int, int]:
        p = sum(map(_plus_boxes, self.rows))
        return p, self.size - p

    def all_parts_even(self) -> bool:
        return all(length % 2 == 0 for length, _, _ in self.rows)

    def __str__(self) -> str:
        return format_diagram(self)


def _plus_boxes(row: tuple[int, int, int]) -> int:
    """The plus boxes of a group: ceil(L/2) per +row of length L, floor(L/2) per -row."""
    length, plus, minus = row
    return plus * ((length + 1) // 2) + minus * (length // 2)


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
        if length < 1:
            raise ValueError("row lengths must be positive")
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
    """Membership in the orthogonal classification set: every group is one of
    _sigma_rows' signings of its rows (even lengths equally many + and -)."""
    return all(row in _sigma_rows(row[0], row[1] + row[2]) for row in d.rows)


def in_lambda(d: SignedYoungDiagram) -> bool:
    """Membership in the enum_lambda set: every group is one of _lambda_rows'
    signings of its rows (which have an even count)."""
    return all(row in _lambda_rows(row[0], (row[1] + row[2]) // 2) for row in d.rows)


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


def _sigma_rows(length: int, mult: int) -> list[tuple[int, int, int]]:
    """Each signing of a group: even lengths balanced; odd lengths any split,
    plus descending."""
    if length % 2 == 0:
        return [(length, mult // 2, mult // 2)] if mult % 2 == 0 else []
    return [(length, plus, mult - plus) for plus in range(mult, -1, -1)]


def _by_signature(size: int, n: int, lengths: range, extend) -> dict:
    """{signature (p, size - p): (rows, classes, texts[, pis])} over every
    signing that extend builds on the partitions of n into lengths, in walk
    order; a prefix is (rows, p, a, b, repeated, text, state), and pis holds
    each _pi where the state, a Richardson one, gives omega's size."""
    table: dict[int, tuple[list, list, list, list]] = {}  # p -> its columns
    for prefixes in _walk(n, lengths, extend, [((), 0, 0, 0, False, "", None)]):
        for rows, p, a, b, repeated, text, state in prefixes:
            listed, classes, texts, pis = table.get(p) or table.setdefault(p, ([], [], [], []))
            listed.append(rows)
            classes.append(cls := _class_of(a, b, repeated))
            texts.append(text or "0")
            if state is not None:
                pis.append(_pi(text, cls, state[1], size))
    return {(p, size - p): tuple(tuple(c) for c in columns if c) for p, columns in table.items()}


@lru_cache(maxsize=None)
def _options(signings, length: int, mult: int, sep: str) -> tuple[tuple, ...]:
    """(row, dp, da, db, drepeated, sep + its _group_text) for each row in
    signings(length, mult): dp its _plus_boxes, _ab((row,)) what it adds to a class key."""
    return tuple((row, _plus_boxes(row), *_ab((row,)), sep + _group_text(row))
                 for row in signings(length, mult))


def _signed(signings):
    """The _walk rule giving each group every option of signings, a module-level
    option function (_options is keyed on it), first group varying slowest; p
    (plus boxes), the class key and the text build group by group."""
    def extend(prefixes, length, mult, row):
        options = _options(signings, length, mult, " " if row else "")
        return [(rows + (r,), p + dp, a + da, b + db, rep or drep, text + more, None)
                for rows, p, a, b, rep, text, _ in prefixes
                for r, dp, da, db, drep, more in options]
    return extend


def _size(p: int, q: int) -> int:
    """p + q, refusing a negative signature entry."""
    if p < 0 or q < 0:
        raise ValueError("signature entries must be nonnegative")
    return p + q


@lru_cache(maxsize=64)
def _sigma_by_signature(n: int) -> dict:
    return _by_signature(n, n, range(n, 0, -1), _signed(_sigma_rows))


def sigma_listing(p: int, q: int) -> tuple[tuple, tuple, tuple]:
    """enum_sigma(p, q)'s rows, and each diagram's class and text, in order."""
    return _sigma_by_signature(_size(p, q)).get((p, q), ((), (), ()))


def enum_sigma(p: int, q: int) -> list[SignedYoungDiagram]:
    """All diagrams of the orthogonal set with signature (p, q)."""
    return list(map(SignedYoungDiagram, sigma_listing(p, q)[0]))


def _digit_width(top: int) -> int:
    """The bits of a packed digit of the count DPs to size top: a sigma diagram is
    fixed by its + rows and its - rows, so no count exceeds count_bipartitions(top)."""
    return count_bipartitions(top).bit_length()


@lru_cache(maxsize=8)
def _class_count_block(top: int) -> dict:
    """sigma_class_counts of every size 0 .. top by signature from one _knapsack (a size's
    top rounded up to a multiple of 16, 32 at least) keyed by (a, b, repeated), its ways
    packed by plus-box count: each smallest group _sigma_rows signs (either sign's row of an
    odd length, an even one's balanced pair) is a step, joining in any number of copies."""
    width = _digit_width(top)
    def copies(length, plus, minus):
        step, runs = length * (plus + minus), {}
        for c in range(1, top // step + 1):
            group = (length, c * plus, c * minus)
            runs.setdefault(_ab((group,)), []).append((step * c, _plus_boxes(group) * width))
        return step, lambda key: [((key[0] + da, key[1] + db, key[2] or drep), run)
                                  for (da, db, drep), run in runs.items()]
    ways = _knapsack(top, (copies(*row) for length in range(1, top + 1)
                           for row in _sigma_rows(length, 2 - length % 2)), (0, 0, False))
    table: dict[tuple[int, int], list] = {}
    for n, by_key in enumerate(ways):
        for key, packed in by_key.items():
            cls, p = _class_of(*key), 0
            while packed:
                if count := packed & (1 << width) - 1:
                    table.setdefault((p, n - p), []).append((cls, count))
                packed, p = packed >> width, p + 1
    return {sig: tuple(counts) for sig, counts in table.items()}


def sigma_class_counts(p: int, q: int) -> tuple[tuple[DiagramClass, int], ...]:
    """(class, multiplicity) over enum_sigma(p, q), without listing it."""
    return _class_count_block(max(_top(_size(p, q), 16), 32)).get((p, q), ())


def _richardson_bits(row: int, start: int, above, mu: int) -> tuple[int, ...]:
    """The sign bits (0 for +) a length group of half-length mu may take in a
    Richardson signing, its first row being row: every row pair (start + 2k,
    start + 2k + 1) has constant parity of sign bit + half-length. Rows inside
    a group share their parity, so only a pair straddling two groups
    constrains anything: it forces the later sign from above, the (sign bit,
    half-length) of the group before."""
    if row > start and (row - start) % 2:
        return ((above[0] + above[1] - mu) % 2,)
    return (0, 1)


def _richardson_in_omega(row: int, start: int, above, bit: int, mu: int) -> bool:
    """Whether a Richardson group of sign bit and half-length mu, first row
    row, is in the admissible set omega: the rows from it down are even in
    number (row - start even) and, past the first group, above (the group
    before's sign bit and half-length) has the same bit or half-length >= mu + 2."""
    return (row - start) % 2 == 0 and (above is None or above[1] >= mu + 2 or above[0] == bit)


def _richardson_rows(length: int, mult: int) -> tuple[tuple[int, int, int], ...]:
    """An odd group signed + and signed -, by sign bit."""
    return (length, mult, 0), (length, 0, mult)


def _richardson(start: int):
    """The _walk rule of sigma_b: one sign bit per group from _richardson_bits, in
    lexicographic order, p, the class key and the text built as in _signed; its
    state carries the group above's (sign bit, half-length) and omega's size."""
    def extend(prefixes, length, mult, row):
        mu = (length - 1) // 2
        signed = _options(_richardson_rows, length, mult, " " if row else "")
        return [(rows + (group,), p + dp, a + da, b + db, rep or drep, text + more,
                 ((bit, mu), omega + _richardson_in_omega(row, start, above, bit, mu)))
                for rows, p, a, b, rep, text, state in prefixes
                for above, omega in [state or (None, 0)]
                for bit in _richardson_bits(row, start, above, mu)
                for group, dp, da, db, drep, more in [signed[bit]]]
    return extend


def _richardson_omega(d: SignedYoungDiagram) -> frozenset[int] | None:
    """The groups j (from 1) of d that _richardson_in_omega admits, or None off
    the Richardson set: empty, an even length, a group holding both signs, or
    a sign _richardson_bits forbids."""
    start = sum([plus + minus for _, plus, minus in d.rows]) % 2
    omega, row, above = set(), 0, None
    for j, (length, plus, minus) in enumerate(d.rows, 1):
        bit, mu = plus == 0, (length - 1) // 2
        if length % 2 == 0 or (plus and minus) or bit not in _richardson_bits(row, start, above, mu):
            return None
        if _richardson_in_omega(row, start, above, bit, mu):
            omega.add(j)
        row += plus + minus
        above = bit, mu
    return frozenset(omega) if d.rows else None


def _pi(text: str, cls: DiagramClass, omega: int, n: int) -> int:
    """pi_size(d), 2^(omega - [class 1] - [n even]), for a Richardson diagram
    d of text text, size n and class cls whose admissible set has omega
    members. Class 3 or a negative exponent signals an upstream bug."""
    if cls.index not in (1, 2):
        raise ArithmeticError("Richardson diagrams are never of class 3")
    exponent = omega - (cls.index == 1) - (n % 2 == 0)
    if exponent < 0:
        raise ArithmeticError(f"negative character-count exponent for {text}; "
                              "upstream classification is inconsistent")
    return 2 ** exponent


@lru_cache(maxsize=64)
def _sigma_b_by_signature(n: int) -> dict:
    # the empty diagram (n = 0) is not Richardson
    return _by_signature(n, n, range(1, n + 1, 2)[::-1], _richardson(n % 2)) if n else {}


@lru_cache(maxsize=16)
def _richardson_block(start: int, top: int) -> list[dict]:
    """[{(a > 0, b > 0, omega's size): packed ways}] by size n <= top over the Richardson
    diagrams, if n > 0 has parity start: a _knapsack over the odd lengths, largest first,
    in each mult and sign bit _richardson_bits allows (p and the class key off _options),
    keyed also by the group above's (sign bit, half-length) and the next group's first row,
    read as the parity of the boxes above, plus 2 past the first: the same answers."""
    width = _digit_width(top)
    def signed(length):
        mu, runs = (length - 1) // 2, {}
        for mult in range(1, top // length + 1):
            for bit, (_, dp, da, db, *_) in enumerate(_options(_richardson_rows, length, mult, "")):
                run = runs.setdefault((bit, mult % 2, da > 0, db > 0), [])
                run.append((length * mult, dp * width))
        def moves(key):
            above, row, a, b, omega = key
            bits = _richardson_bits(row, start, above, mu)
            return [(((bit, mu), (row + odd) % 2 + 2, a | da, b | db,
                      omega + _richardson_in_omega(row, start, above, bit, mu)), run)
                    for (bit, odd, da, db), run in runs.items() if bit in bits]
        return length, moves
    ways = _knapsack(top, map(signed, range(top - 1 + top % 2, 0, -2)), (None, 0, 0, 0, 0))
    block = [{} for _ in ways]
    for n in range(start or 2, top + 1, 2):
        for (_, _, a, b, omega), w in ways[n].items():
            block[n][a, b, omega] = block[n].get((a, b, omega), 0) + w
    return block


@lru_cache(maxsize=None)
def richardson_pi_sums(p: int, q: int) -> tuple[int, int]:
    """The pi_size sums over the class-1 and class-2 members of sigma_b(p, q), memoised,
    none listed: each bucket of its size's _richardson_block (top a multiple of 8)
    adds its ways at p times its _pi, which guards every bucket of the size."""
    n = _size(p, q)
    top = _top(n, 8)
    width, sums = _digit_width(top), [0, 0, 0]
    for (a, b, omega), ways in _richardson_block(n % 2, top)[n].items():
        cls = _class_of(a, b, False)
        pi = _pi(f"a size-{n} diagram of class {cls.index}", cls, omega, n)
        sums[cls.index] += pi * (ways >> p * width & (1 << width) - 1)
    return sums[1], sums[2]


def sigma_b_listing(p: int, q: int) -> tuple[tuple, tuple, tuple, tuple]:
    """enum_sigma_b(p, q)'s rows, and each diagram's class, text and pi_size, in order."""
    return _sigma_b_by_signature(_size(p, q)).get((p, q), ((), (), (), ()))


def enum_sigma_b(p: int, q: int) -> list[SignedYoungDiagram]:
    """Members of the Richardson subset with signature (p, q)."""
    return list(map(SignedYoungDiagram, sigma_b_listing(p, q)[0]))


def _lambda_rows(length: int, mult: int) -> list[tuple[int, int, int]]:
    """Each signing of a group of 2*mult rows: odd lengths matched, even lengths
    with even per-sign counts, plus descending."""
    if length % 2:
        return [(length, mult, mult)]
    return [(length, plus, 2 * mult - plus) for plus in range(2 * mult, -1, -2)]


def _lambda_b_rows(length: int, mult: int) -> list[tuple[int, int, int]]:
    """The Richardson signings of a group of 2*mult rows, as _lambda_rows: an
    odd length holds one row of each sign, an even length a single sign, plus first."""
    if length % 2:
        return [(length, 1, 1)] if mult == 1 else []
    return [(length, 2 * mult, 0), (length, 0, 2 * mult)]


def _doubled_listing(n: int, lengths: range, signings) -> tuple[tuple, tuple, tuple]:
    """The (rows, classes, texts) of every signing by signings of the partitions of n
    into lengths, a group (length, mult) standing for 2*mult rows: signature (n, n)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _by_signature(2 * n, n, lengths, _signed(signings)).get((n, n), ((), (), ()))


@lru_cache(maxsize=64)
def lambda_listing(n: int) -> tuple[tuple, tuple, tuple]:
    """enum_lambda(n)'s rows, and each diagram's class and text, in order: as an odd
    length adds one to both a and b, the class is 3 exactly on the all-even."""
    return _doubled_listing(n, range(n, 0, -1), _lambda_rows)


@lru_cache(maxsize=64)
def lambda_even_listing(n: int) -> tuple[tuple, tuple, tuple]:
    """The all-even part of lambda_listing(n), in the same order; none for odd n."""
    return _doubled_listing(n, range(n, 0, -2) if n % 2 == 0 else range(0), _lambda_rows)


@lru_cache(maxsize=64)
def lambda_b_listing(n: int) -> tuple[tuple, tuple, tuple]:
    """enum_lambda_b(n)'s rows, and each diagram's class and text, in order."""
    return _doubled_listing(n, range(n, 0, -1), _lambda_b_rows)


@lru_cache(maxsize=8)
def _lambda_b_counts(top: int) -> tuple[int, ...]:
    """|Lambda_b(m)| for m = 0 .. top, with no diagram listed: a _knapsack over the lengths,
    a group (length, mult) joining once per signing _lambda_b_rows gives it."""
    def signings(length):
        moves = [(None, [(length * mult, 0) for mult in range(1, top // length + 1)
                         for _ in _lambda_b_rows(length, mult)])]
        return length, lambda key: moves
    ways = _knapsack(top, map(signings, range(1, top + 1)), None)
    return tuple(sum(by_size.values()) for by_size in ways)


def enum_lambda(n: int) -> list[SignedYoungDiagram]:
    """All diagrams of size 2n with odd lengths matched and even lengths
    carrying even per-sign row counts (the signature is forced to (n, n)).
    Every row count is even, so the row lengths are a partition of n with
    each multiplicity doubled."""
    return list(map(SignedYoungDiagram, lambda_listing(n)[0]))


def enum_lambda_even(n: int) -> list[SignedYoungDiagram]:
    """The all-even members of ``enum_lambda(n)``, in the same order."""
    return list(map(SignedYoungDiagram, lambda_even_listing(n)[0]))


def enum_lambda_b(n: int) -> list[SignedYoungDiagram]:
    """The Richardson members of ``enum_lambda(n)``, in the same order: odd
    lengths carry exactly one row of each sign, even lengths one sign."""
    return list(map(SignedYoungDiagram, lambda_b_listing(n)[0]))


def mu_t(t: int) -> SignedYoungDiagram:
    """The uniform-sign staircase of odd lengths 2|t|-1, ..., 3, 1; empty at 0."""
    signs = (1, 0) if t > 0 else (0, 1)
    return SignedYoungDiagram(tuple((length, *signs) for length in range(2 * abs(t) - 1, 0, -2)))


def diii_kappa1_bijection(d: SignedYoungDiagram) -> BiPartition:
    """The explicit pairing of all-even diagrams with bipartitions of size/4:
    a group (2m)^{2p}_+(2m)^{2q}_- maps to m^p in the first slot and m^q in
    the second."""
    first, second = _kappa1_parts(d.rows)
    return BiPartition(Partition(first), Partition(second))


def _kappa1_parts(rows) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The parts of diii_kappa1_bijection's two slots for the rows, unvalidated."""
    first: list[int] = []
    second: list[int] = []
    for length, plus, minus in rows:
        if length % 2:
            raise ValueError(f"{SignedYoungDiagram(rows)} has an odd row length")
        if plus % 2 or minus % 2:
            raise ValueError(f"{SignedYoungDiagram(rows)} has odd per-sign multiplicities")
        first += [length // 2] * (plus // 2)
        second += [length // 2] * (minus // 2)
    return tuple(first), tuple(second)
