"""Partition counting against brute-force and recurrence oracles."""
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import enum_oracles as oracles
from sheaf_census import partitions as pt


def brute_partitions(n):
    """Oracle: grow partitions part by part, no cleverness."""
    if n == 0:
        return [()]
    out = []
    def rec(remaining, max_part, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for part in range(min(remaining, max_part), 0, -1):
            rec(remaining - part, part, acc + [part])
    rec(n, n, [])
    return out


def test_enum_matches_bruteforce():
    for n in range(11):
        assert [p.parts for p in pt.enum_partitions(n)] == brute_partitions(n)


def test_generator_modes_match_oracles():
    # enum_partitions and the flat parts it reads against the separate
    # generator it replaced, and the same flat-parts rule on _walk over the
    # odd lengths against the odd generator, every n <= 30
    def flat(prefixes, length, mult, row):
        return [parts + (length,) * mult for parts in prefixes]
    for n in range(31):
        expected = list(oracles.gen_partitions(n, n))
        assert list(pt._partitions(n)) == expected, n
        assert [p.parts for p in pt.enum_partitions(n)] == expected, n
        odd = [parts for parts, in pt._walk(n, range(1, n + 1, 2)[::-1], flat, [()])]
        assert odd == list(oracles.gen_odd_partitions(n, n)), n


def test_walk_extends_each_group_prefix_once():
    # extend runs once per node of the partition trie: a group prefix shared
    # by many partitions is extended once, not once for each of them
    for n in range(17):
        for odd, oracle in ((False, oracles.gen_partitions), (True, oracles.gen_odd_partitions)):
            calls = []

            def extend(prefixes, length, mult, row):
                (groups,) = prefixes
                assert row == sum(m for _, m in groups)
                calls.append(groups + ((length, mult),))
                return [calls[-1]]

            lengths = range(1, n + 1, 2)[::-1] if odd else range(n, 0, -1)
            walked = [groups for groups, in pt._walk(n, lengths, extend, [()])]
            expected = [tuple(oracles._group(p)) for p in oracle(n, n)]
            assert walked == expected, (n, odd)
            assert len(calls) == len(set(calls)), (n, odd)
            assert set(calls) == {groups[:k] for groups in expected
                                  for k in range(1, len(groups) + 1)}, (n, odd)


def test_enum_examples():
    assert [p.parts for p in pt.enum_partitions(0)] == [()]
    assert [p.parts for p in pt.enum_partitions(3)] == [(3,), (2, 1), (1, 1, 1)]
    assert len(pt.enum_partitions(5)) == 7


def test_count_values():
    assert pt.count_partitions(0) == 1
    assert pt.count_partitions(10) == 42
    assert pt.count_partitions(Fraction(3, 2)) == 0
    assert pt.count_partitions(-4) == 0
    assert pt.count_partitions(Fraction(8, 2)) == 5


def test_count_matches_enum():
    for n in range(31):
        assert pt.count_partitions(n) == len(pt.enum_partitions(n))


def test_pentagonal_recurrence():
    # independent oracle: Euler's pentagonal-number recurrence
    p = [1]
    for n in range(1, 201):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p.append(total)
    for n in range(201):
        assert pt.count_partitions(n) == p[n]


def test_bipartitions():
    assert pt.count_bipartitions(0) == 1
    assert pt.count_bipartitions(2) == 5
    assert pt.count_bipartitions(Fraction(1, 2)) == 0
    pairs = [(a, b) for a in range(3) for b in range(3) if a + b == 2]
    direct = sum(len(pt.enum_partitions(a)) * len(pt.enum_partitions(b))
                 for a, b in pairs)
    assert pt.count_bipartitions(2) == direct


def test_distinct_partitions():
    assert pt.count_distinct_partitions(0) == 1
    assert pt.count_distinct_partitions(3) == 2
    assert pt.count_distinct_partitions(6) == 4
    for n in range(21):
        oracle = sum(1 for p in pt.enum_partitions(n)
                     if len(set(p.parts)) == len(p.parts))
        assert pt.count_distinct_partitions(n) == oracle


def test_distinct_odd_partitions():
    for n in range(21):
        oracle = sum(1 for p in pt.enum_partitions(n)
                     if len(set(p.parts)) == len(p.parts)
                     and all(x % 2 for x in p.parts))
        assert pt.count_distinct_odd_partitions(n) == oracle


def test_balanced_distinct_odd_examples():
    assert [p.parts for p in pt.enum_distinct_odd_balanced(5, 1)] == [(5,)]
    assert [p.parts for p in pt.enum_distinct_odd_balanced(4, 0)] == [(3, 1)]
    assert pt.enum_distinct_odd_balanced(12, 2) == []


def test_balanced_distinct_odd_formula():
    for n in range(61):
        for t in range(-5, 6):
            expected = pt.count_partitions(Fraction(n - (2 * t * t - t), 4))
            assert len(pt.enum_distinct_odd_balanced(n, t)) == expected, (n, t)


def test_balanced_count_matches_the_listing():
    # the (total, balance) DP against the listed partitions, every t that occurs
    for n in range(-1, 61):
        for t in range(-9, 10):
            assert pt.count_distinct_odd_balanced(n, t) == \
                len(pt.enum_distinct_odd_balanced(n, t)), (n, t)


def test_balanced_table_matches_filtered_oracle():
    for n in range(41):
        members = list(oracles.gen_distinct_odd(n, n))
        for t in range(-6, 7):
            expected = [parts for parts in members
                        if sum(1 if x % 4 == 1 else -1 for x in parts) == t]
            assert [p.parts for p in pt.enum_distinct_odd_balanced(n, t)] == expected, (n, t)
    assert pt.enum_distinct_odd_balanced(-1, 0) == []


def test_weighted_odd_sum_examples():
    assert pt.weighted_odd_partition_sum(0) == 1
    assert pt.weighted_odd_partition_sum(1) == 1
    assert pt.weighted_odd_partition_sum(2) == 1


def test_weighted_odd_sum_oracle():
    # recompute wt by listing partitions with itertools-style filtering
    for n in range(1, 16):
        total = 0
        for p in pt.enum_partitions(n):
            if any(x % 2 == 0 for x in p.parts):
                continue
            mu = [(x - 1) // 2 for x in p.parts]
            s = len(mu)
            pairs = (list(zip(mu[0::2], mu[1::2])) if s % 2
                     else list(zip(mu[1::2], mu[2::2])))
            weight = 1
            for hi, lo in pairs:
                if hi >= lo + 2:
                    weight *= 2
            total += weight
        assert pt.weighted_odd_partition_sum(n) == total


def test_weighted_odd_sum_matches_per_row_oracle():
    for n in range(41):
        assert pt.weighted_odd_partition_sum(n) == oracles.weighted_odd_partition_sum(n), n


def test_partition_validation():
    with pytest.raises(ValueError):
        pt.Partition((1, 2))
    with pytest.raises(ValueError):
        pt.Partition((2, 0))


@given(st.lists(st.integers(min_value=1, max_value=12), min_size=0, max_size=8))
def test_partition_accepts_any_sorted_multiset(parts):
    p = pt.Partition(tuple(sorted(parts, reverse=True)))
    assert p.weight == sum(parts)


@given(st.integers(min_value=0, max_value=28))
def test_enum_is_sorted_and_weighted(n):
    seen = pt.enum_partitions(n)
    assert all(p.weight == n for p in seen)
    keys = [p.parts for p in seen]
    assert keys == sorted(keys, reverse=True)
    assert len(set(keys)) == len(keys)
