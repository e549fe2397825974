"""Integer partitions, bipartitions, and the balanced/weighted variants.

Every listing, here and in ``diagrams``, is the one walk ``_walk`` under its
own extend rule, and every keyed count, here and in ``diagrams``, the one fold
``_knapsack`` under its own moves. Counting functions accept arbitrary rational
arguments and return 0 off the nonnegative integers, so convolution sums need no
boundary cases; the plain counts read one cached dense DP table per kind of part
(``_count_table``), sized to a multiple of 64.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from numbers import Rational


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing tuple of positive integers."""

    parts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for i, p in enumerate(self.parts):
            if p < 1:
                raise ValueError(f"partition parts must be positive, got {p}")
            if i and self.parts[i - 1] < p:
                raise ValueError(f"parts must be weakly decreasing: {self.parts}")

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def __str__(self) -> str:
        return "+".join(map(str, self.parts)) if self.parts else "0"


@dataclass(frozen=True)
class BiPartition:
    """An ordered pair of partitions."""

    first: Partition
    second: Partition


def _as_int(x) -> int | None:
    """Integer value of x, or None if x is not a (rational) integer."""
    if isinstance(x, bool):
        return None
    if isinstance(x, int):
        return x
    if isinstance(x, (Fraction, Rational)):
        return int(x) if x.denominator == 1 else None
    if isinstance(x, float):
        return int(x) if x.is_integer() else None
    return None


def _natural(x) -> int | None:
    """x as an int when it lies in N, else None: the counters' one guard."""
    n = _as_int(x)
    return n if n is not None and n >= 0 else None


def _walk(n: int, lengths: range, extend, prefixes: list, row: int = 0):
    """Partitions of n into the decreasing range of lengths, lexicographically
    decreasing, each multiplicity largest first. extend(prefixes, length, mult,
    row) returns the prefixes built on the groups above (row rows) extended by
    the group (length, mult), once per node of the partition trie; an empty
    result prunes the branch. The last length takes whatever is left. Yields
    each complete partition's prefixes."""
    if not n:
        yield prefixes
        return
    last = len(lengths) - 1
    for i, length in enumerate(lengths):
        if i < last:
            mults = range(n // length, 0, -1)
        else:  # the last length takes whatever is left
            mults = (n // length,) if n % length == 0 else ()
        for mult in mults:
            if extended := extend(prefixes, length, mult, row):
                if left := n - length * mult:
                    yield from _walk(left, lengths[i + 1:], extend, extended, row + mult)
                else:
                    yield extended


def _partitions(n: int):
    """The parts tuples of the partitions of n, lexicographically decreasing:
    each group of the walk adds its length mult times."""
    def flat(prefixes, length, mult, row):
        return [parts + (length,) * mult for parts in prefixes]
    return (parts for parts, in _walk(n, range(n, 0, -1), flat, [()]))


def enum_partitions(n: int) -> list[Partition]:
    """All partitions of n, in lexicographically decreasing order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return list(map(Partition, _partitions(n)))


def _top(n: int, block: int = 64) -> int:
    """The size of the one table that serves n: n rounded up to a multiple of block."""
    return max(-(-n // block), 1) * block


def _knapsack(top: int, steps, start) -> list[dict]:
    """[{key: ways}] by size 0..top, from {start: 1} at size 0: the one keyed fold of the
    count-only routes, a transfer matrix (Stanley, EC1 4.7) over the counting semiring. A
    step (least boxes, moves) joins at most once: moves(key), read once per key, gives each
    key' with its (boxes, shift) pairs, boxes ascending, a pair adding ways << shift at
    size + boxes under key'."""
    ways = [{start: 1}] + [{} for _ in range(top)]
    for least, moves in steps:
        memo = {}
        for size in range(top - least, -1, -1):  # larger first: each source read before it grows
            room = top - size
            for key, w in ways[size].items():
                if (found := memo.get(key)) is None:
                    found = memo[key] = moves(key)
                for then, run in found:
                    for boxes, shift in run:
                        if boxes > room:
                            break
                        target = ways[size + boxes]
                        target[then] = target.get(then, 0) + (w << shift)
    return ways


@lru_cache(maxsize=None)
def _count_table(top: int, odd: bool = False, distinct: bool = False) -> tuple[int, ...]:
    """Counts of the partitions of 0..top, into odd parts if odd and distinct
    parts if distinct, by dense integer DP over the allowed parts; independent
    of any partition walk or series expansion."""
    table = [1] + [0] * top
    for part in range(1, top + 1, 2 if odd else 1):
        # descending totals use each part at most once, ascending any number of times
        for total in range(top, part - 1, -1) if distinct else range(part, top + 1):
            table[total] += table[total - part]
    return tuple(table)


def _count(x, odd: bool = False, distinct: bool = False) -> int:
    n = _natural(x)
    return 0 if n is None else _count_table(_top(n), odd, distinct)[n]


def count_partitions(x) -> int:
    """p(x): number of partitions of x, and 0 when x is not in N."""
    return _count(x)


def count_bipartitions(x) -> int:
    """Number of ordered pairs of partitions with total weight x; 0 off N."""
    n = _natural(x)
    if n is None:
        return 0
    table = _count_table(_top(n), False, False)
    return sum(table[k] * table[n - k] for k in range(n + 1))


def count_distinct_partitions(x) -> int:
    """Number of partitions of x into distinct parts; 0 off N."""
    return _count(x, distinct=True)


def count_distinct_odd_partitions(x) -> int:
    """Number of partitions of x into distinct odd parts; 0 off N."""
    return _count(x, odd=True, distinct=True)


def enum_distinct_odd_balanced(n: int, t: int) -> list[Partition]:
    """Partitions of n into distinct odd parts whose count of parts congruent to
    1 mod 4 exceeds the count congruent to 3 mod 4 by exactly t (their balance)."""
    def distinct(prefixes, length, mult, row):
        return [parts + (length,) for parts in prefixes] if mult == 1 else []
    return [Partition(parts) for parts, in _walk(n, range(1, n + 1, 2)[::-1], distinct, [()])
            if sum(1 if p % 4 == 1 else -1 for p in parts) == t]


@lru_cache(maxsize=None)
def _balanced_counts(top: int) -> list[dict]:
    """[{balance: count}] by total 0..top over the distinct-odd partitions: a _knapsack
    taking each odd part at most once, keyed by the balance the part moves by one."""
    def part(length):
        sign, run = 1 if length % 4 == 1 else -1, [(length, 0)]
        return length, lambda balance: ((balance + sign, run),)
    return _knapsack(top, map(part, range(1, top + 1, 2)), 0)


def count_distinct_odd_balanced(n: int, t: int) -> int:
    """len(enum_distinct_odd_balanced(n, t)), counted from one table, not listed."""
    return _balanced_counts(_top(n))[n].get(t, 0) if n >= 0 else 0


@lru_cache(maxsize=None)
def _weighted_sums(top: int) -> tuple[int, ...]:
    """weighted_odd_partition_sum of 0..top from one _knapsack over the odd lengths, largest
    first, each group (length, mult) keyed by the group above's length, the parity of the
    rows so far and the wide boundaries so far by the parity of the rows above them."""
    def group(length):
        runs = [[(length * mult, 0) for mult in range(2 - flip, top // length + 1, 2)]
                for flip in (0, 1)]  # the even mults, then the odd ones
        def moves(key):
            above, odd, gaps = key
            if above - length >= 4:
                gaps = (gaps[0] + 1, gaps[1]) if odd == 0 else (gaps[0], gaps[1] + 1)
            return [((length, odd ^ flip, gaps), run) for flip, run in enumerate(runs)]
        return length, moves
    ways = _knapsack(top, map(group, range(top - 1 + top % 2, 0, -2)), (0, 0, (0, 0)))
    return tuple(sum(w << gaps[odd] for (_, odd, gaps), w in by_key.items()) for by_key in ways)


def weighted_odd_partition_sum(n: int) -> int:
    """Sum of wt over partitions of n into odd parts.

    Writing the s parts as 2*mu_1+1 >= ... >= 2*mu_s+1, wt doubles once for
    each gap mu_j >= mu_(j+1) + 2 at the prescribed alternating positions:
    pairs (2j-1, 2j) when s is odd, pairs (2j, 2j+1) when s is even. Equal
    parts share mu, so such a gap sits at the boundary of two groups, and it
    is at a prescribed position exactly when the number of rows above the
    boundary has the parity of s.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _weighted_sums(_top(n, 16))[n]
