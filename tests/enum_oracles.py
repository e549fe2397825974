"""Reference implementations kept only as test oracles.

These are the generate-then-filter enumerators, every signed diagram of a
size, the token-by-token text form of a diagram, the row-by-row Richardson
and Lambda membership rules, the membership test the Richardson
equal-signature set was once filtered by, the three separate partition
generators that the library used before its enumerators built
their sets directly, the per-row gap-weighted odd-partition sum, and the
direct enumeration of sign characters on a class-2 Richardson orbit, the
stratum support built through ``diagram()``'s merge, and the two bdi
censuses with their orbit decorations branched out by hand, and the three
orbit sums over the listed diagrams, the kappa1 sum with its row-by-row
repeated-sign rule, and the per-size class-count DP that keyed each state
by its box and plus-box counts. They walk a superset and filter it, or count
row by row or state by state, which is slow but easy to trust, and they must
not change: the differential tests compare the library against them list
for list, order included.
"""
import itertools
from collections import Counter

from sheaf_census import diagrams, groups
from sheaf_census.census import (LOW_RANK_WARNING, CensusReport, OrbitLabel,
                                 StratumEntry, theta_k0_count)
from sheaf_census.diagrams import DELTA_NAMES, SignedYoungDiagram, classify, diagram, mu_t
from sheaf_census.groups import eta, pi_size
from sheaf_census.partitions import (count_bipartitions, count_distinct_partitions,
                                     count_partitions)


def gen_partitions(n, max_part):
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in gen_partitions(n - first, first):
            yield (first,) + rest


def gen_odd_partitions(n, max_part):
    if n == 0:
        yield ()
        return
    first = min(n, max_part)
    if first % 2 == 0:
        first -= 1
    while first >= 1:
        for rest in gen_odd_partitions(n - first, first):
            yield (first,) + rest
        first -= 2


def gen_distinct_odd(n, max_part):
    if n == 0:
        yield ()
        return
    first = min(n, max_part)
    if first % 2 == 0:
        first -= 1
    while first >= 1:
        for rest in gen_distinct_odd(n - first, first - 2):
            yield (first,) + rest
        first -= 2


def _group(partition):
    groups = []
    for length in partition:
        if groups and groups[-1][0] == length:
            groups[-1] = (length, groups[-1][1] + 1)
        else:
            groups.append((length, 1))
    return groups


def odd_grouped_candidates(n):
    """Grouped all-odd diagrams of total size n with one sign per group."""
    for partition in gen_partitions(n, n if n % 2 else n - 1 if n else 0):
        if any(part % 2 == 0 for part in partition):
            continue
        groups = _group(partition)
        k = len(groups)
        for bits in range(1 << k):
            signs = tuple((bits >> (k - 1 - j)) & 1 for j in range(k))
            yield SignedYoungDiagram(tuple(
                (length, mult if s == 0 else 0, 0 if s == 0 else mult)
                for (length, mult), s in zip(groups, signs)))


def is_sigma_b(d):
    """Richardson membership: all lengths odd, one sign per group, and
    constant parity of (sign bit + half-length) inside each row pair, pairs
    starting at the second row for odd size and at the first for even."""
    if d.is_empty or not d.all_parts_odd():
        return False
    if any(plus and minus for _, plus, minus in d.rows):
        return False
    parities = []
    for length, plus, minus in d.rows:
        eps = 0 if plus else 1
        parities.extend([(eps + (length - 1) // 2) % 2] * (plus + minus))
    start = 1 if d.size % 2 else 0
    return all(parities[i] == parities[i + 1]
               for i in range(start, len(parities) - 1, 2))


def signed_diagrams(n):
    """Every signed diagram of size n: each group of every partition split
    into plus and minus rows in every way."""
    for partition in gen_partitions(n, n):
        groups = _group(partition)
        for pluses in itertools.product(*(range(mult + 1) for _, mult in groups)):
            yield SignedYoungDiagram(tuple((length, plus, mult - plus)
                                           for (length, mult), plus in zip(groups, pluses)))


def format_diagram(d):
    """The canonical text form built token by token: `<length><sign>[^<mult>]`
    for each sign a group carries, + first; `0` for the empty diagram."""
    if d.is_empty:
        return "0"
    toks = []
    for length, plus, minus in d.rows:
        if plus:
            toks.append(f"{length}+" + (f"^{plus}" if plus > 1 else ""))
        if minus:
            toks.append(f"{length}-" + (f"^{minus}" if minus > 1 else ""))
    return " ".join(toks)


def in_lambda(d):
    """Lambda membership: odd lengths matched, even lengths with both row
    counts even."""
    for length, plus, minus in d.rows:
        if length % 2 == 1 and plus != minus:
            return False
        if length % 2 == 0 and (plus % 2 or minus % 2):
            return False
    return True


def enum_sigma_b(p, q):
    return [d for d in odd_grouped_candidates(p + q)
            if d.signature() == (p, q) and is_sigma_b(d)]


def _assign_lambda_signs(groups, i, acc):
    if i == len(groups):
        yield SignedYoungDiagram(acc)
        return
    length, mult = groups[i]
    if length % 2 == 1:
        yield from _assign_lambda_signs(groups, i + 1, acc + ((length, mult // 2, mult // 2),))
    else:
        for plus in range(mult, -1, -2):
            yield from _assign_lambda_signs(groups, i + 1, acc + ((length, plus, mult - plus),))


def enum_lambda(n):
    """Walk every partition of 2n and keep those with even multiplicities."""
    if n == 0:
        return [SignedYoungDiagram()]
    out = []
    for partition in gen_partitions(2 * n, 2 * n):
        groups = _group(partition)
        if any(mult % 2 for _, mult in groups):
            continue
        out.extend(_assign_lambda_signs(groups, 0, ()))
    return out


def in_lambda_b(d):
    """Odd lengths with exactly one row of each sign; even lengths single-signed."""
    for length, plus, minus in d.rows:
        if length % 2 == 1 and not (plus == minus == 1):
            return False
        if length % 2 == 0 and plus * minus != 0:
            return False
    return in_lambda(d)


def enum_lambda_b(n):
    """Filter the library's enum_lambda(n) by in_lambda_b."""
    if n == 0:
        return [SignedYoungDiagram()]
    return [d for d in diagrams.enum_lambda(n) if in_lambda_b(d)]


def enum_lambda_even(n):
    """Filter the library's enum_lambda(n) by all_parts_even."""
    return [d for d in diagrams.enum_lambda(n) if d.all_parts_even()]


def weighted_odd_partition_sum(n):
    """The gap-weighted odd-partition sum computed row by row: wt doubles for
    each mu_j >= mu_(j+1) + 2 at 1-based pairs (2j-1, 2j) for an odd number
    s of parts, (2j, 2j+1) for even s."""
    total = 0
    for parts in gen_odd_partitions(n, n):
        mu = [(p - 1) // 2 for p in parts]
        s = len(mu)
        if s % 2 == 1:
            gaps = sum(1 for j in range(1, (s - 1) // 2 + 1)
                       if mu[2 * j - 2] >= mu[2 * j - 1] + 2)
        else:
            gaps = sum(1 for j in range(1, s // 2)
                       if mu[2 * j - 1] >= mu[2 * j] + 2)
        total += 2 ** gaps
    return total


def count_sign_characters(d):
    """Independent count for class-2 Richardson diagrams: enumerate all sign
    vectors on the s-1 adjacent-pair generators and keep those trivial
    outside the admissible set."""
    if diagrams.classify(d).index != 2:
        raise ValueError("direct character enumeration applies to class 2 only")
    s = len(d.rows)
    omega = groups.omega_set(d)
    count = 0
    for bits in range(1 << (s - 1)):
        if all(not (bits >> (r - 1)) & 1 or (r + 1) in omega for r in range(1, s)):
            count += 1
    return count


_EMPTY = SignedYoungDiagram()


def _support(m, k, mu):
    return diagram(*diagram((1, m, m), (2, k, k)).rows, *mu.rows)


def support_via_diagram(m, k, mu):
    """mu plus m rows each of 1+ and 1-, and k rows each of 2+ and 2-, merged,
    sorted and checked by diagram()."""
    return diagram((1, m, m), (2, k, k), *mu.rows)


def census_bdi_k0(p, q):
    """The trivial-character census with each orbit count branched by hand:
    four orbits over an empty mu at m = 0, two over a class-2 mu at m = 0,
    one otherwise."""
    N = p + q
    side = "B" if N % 2 else "D"
    entries = []
    for m in range(min(p, q) + 1):
        if N % 2 == 0 and (m - q) % 2:
            continue
        f1, f2 = theta_k0_count(f"ind1-{side}", m), theta_k0_count(f"ind2-{side}", m)
        for k in range((min(p, q) - m) // 2 + 1):
            p1, q1 = p - m - 2 * k, q - m - 2 * k
            pk = count_partitions(k)
            if p1 == 0 and q1 == 0:
                support = _support(m, k, _EMPTY)
                if m > 0:
                    count = theta_k0_count("split-D", m) * pk
                    entries.append(StratumEntry(OrbitLabel(support), m, k,
                                                _EMPTY, count, "empty-mu"))
                else:
                    for delta in DELTA_NAMES:
                        entries.append(StratumEntry(OrbitLabel(support, delta),
                                                    m, k, _EMPTY, pk, "empty-mu"))
                continue
            for mu in diagrams.enum_sigma_b(p1, q1):
                cls = classify(mu)
                pi = pi_size(mu)
                support = _support(m, k, mu)
                if cls.index == 1:
                    entries.append(StratumEntry(OrbitLabel(support), m, k, mu,
                                                f1 * pk * pi, "sigma-b1"))
                elif m > 0:
                    entries.append(StratumEntry(OrbitLabel(support), m, k, mu,
                                                f2 * pk * pi, "sigma-b2"))
                else:
                    for delta in DELTA_NAMES[:2]:
                        entries.append(StratumEntry(OrbitLabel(support, delta),
                                                    m, k, mu, pk * pi, "sigma-b2"))
    warnings = (LOW_RANK_WARNING,) if N < 5 else ()
    return CensusReport(("bdi", p, q), "k0", tuple(entries), warnings)


def census_bdi_k1(p, q):
    """The nontrivial-character census with the m = 0 orbits branched by
    hand: each of several orbits carries the bipartition count alone."""
    N, t = p + q, p - q
    entries = []
    D = N - t * t
    if D >= 0:
        staircase = mu_t(t)
        for k in range(D // 4 + 1):
            m = (D - 4 * k) // 2
            base = count_bipartitions(k)
            if base == 0:
                continue
            support = _support(m, k, staircase)
            if m > 0:
                count = base * eta(m, t) * count_distinct_partitions(m)
                entries.append(StratumEntry(OrbitLabel(support), m, k,
                                            staircase, count, "kappa1-staircase"))
            else:
                mult = classify(support).orbits
                if mult == 1:
                    entries.append(StratumEntry(OrbitLabel(support), m, k, staircase,
                                                base * eta(0, t), "kappa1-staircase"))
                else:
                    for delta in DELTA_NAMES[:mult]:
                        entries.append(StratumEntry(OrbitLabel(support, delta), m, k,
                                                    staircase, base, "kappa1-staircase"))
    warnings = (LOW_RANK_WARNING,) if N < 5 else ()
    return CensusReport(("bdi", p, q), "k1", tuple(entries), warnings)


def kappa1_orbit_sum(p, q):
    """The kappa1 orbit sum over every listed diagram of enum_sigma(p, q): no
    kappa1 irreducible when an odd length carries two rows of one sign, read
    off the rows here, else the case table's count for its class."""
    total = 0
    for d in diagrams.enum_sigma(p, q):
        if any(length % 2 and (plus >= 2 or minus >= 2) for length, plus, minus in d.rows):
            continue
        cls = classify(d)
        total += cls.orbits * groups._kappa1_data(cls, p, q).count
    return total


def kappa0_orbit_sum(p, q):
    """The kappa0 orbit sum over every listed diagram of enum_sigma(p, q)."""
    return sum(classify(d).orbits * 2 ** classify(d).r for d in diagrams.enum_sigma(p, q))


def sigma23_r_sum(p, q):
    """Sum of 2^r over every listed class-2 and class-3 diagram of enum_sigma(p, q)."""
    return sum(2 ** classify(d).r for d in diagrams.enum_sigma(p, q)
               if classify(d).index in (2, 3))


def class_counts_by_signature(n):
    """The class counts of every signature of size n from a DP of its own,
    one dict update per state (boxes, p, a, b, repeated) over the odd
    lengths; even lengths fold in as p(m) ways at 4m boxes, 2m of them plus."""
    ways = {(0, 0, 0, 0, False): 1}
    for length in range(1, n + 1, 2):
        options = [(length * mult, dp, *diagrams._ab((row,)))
                   for mult in range(1, n // length + 1)
                   for row, dp in diagrams._sigma_rows(length, mult)]
        step = dict(ways)  # the length left out
        for (boxes, p, a, b, rep), w in ways.items():
            for dn, dp, da, db, drep in options:
                if boxes + dn > n:
                    break
                key = (boxes + dn, p + dp, a + da, b + db, rep or drep)
                step[key] = step.get(key, 0) + w
        ways = step
    table = {}
    for (boxes, p, a, b, rep), w in ways.items():
        m, rest = divmod(n - boxes, 4)
        if not rest:
            counts = table.setdefault((p + 2 * m, n - p - 2 * m), Counter())
            counts[diagrams._class_of(a, b, rep)] += w * count_partitions(m)
    return table
