"""Reference implementations kept only as test oracles.

These are the generate-then-filter enumerators, every signed diagram of a
size, the token-by-token text form of a diagram, the row-by-row Richardson
and Lambda membership rules, the membership test the Richardson
equal-signature set was once filtered by, the sign swap of a diagram, the
three separate partition generators that the library used before its
enumerators built their sets directly, the per-row gap-weighted odd-partition sum, the
admissible set walked from the last group up, and the direct enumeration
of sign characters on a class-2 Richardson orbit, the stratum support
built through ``diagram()``'s merge, the census as one (m, k, mu, deltas,
count, family, mu_text) record per stratum with each support's text merged
into mu's token by token (the library's rows before it rendered whole
blocks), and the two bdi censuses with their
orbit decorations branched out by hand, and the three orbit sums over the
listed diagrams, the kappa1 sum with its row-by-row repeated-sign rule, and
the per-size class-count DP that keyed each state by its box and plus-box
counts, the block class-count DP on lists of ways by plus-box count (one
slice added per signing), the Richardson pi sums summed over the listed
diagrams, and the sigma and sigma_b size tables as built when every listed
diagram was built and classified by an ``_ab`` walk of its own (the DP and
the sigma table counting a group's plus boxes box by box), and the Kleshchev
bipartitions grown node by node, a representation-theoretic route to the
Hecke counts. They walk a superset and filter it, or count row by row or state
by state, which is slow but easy to trust, and they must not change: the
differential tests compare the library against them list for list, order
included.
"""
import itertools
import operator
from collections import Counter

from sheaf_census import census, diagrams, groups
from sheaf_census.census import OrbitLabel, StratumEntry, theta_k0_count
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
    if not d.rows or any(length % 2 == 0 for length, _, _ in d.rows):
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


def sign_swap(d):
    """d with every row's starting sign swapped: signature (p, q) becomes (q, p)."""
    return SignedYoungDiagram(tuple((length, minus, plus) for length, plus, minus in d.rows))


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
    if not d.rows:
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
    """Filter enum_lambda(n), the walk over every partition of 2n above, by
    in_lambda_b: no library walker feeds it."""
    return [d for d in enum_lambda(n) if in_lambda_b(d)]


def enum_lambda_even(n):
    """Filter enum_lambda(n), the walk above, by all_parts_even."""
    return [d for d in enum_lambda(n) if d.all_parts_even()]


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


def omega_set(d):
    """The admissible set walked from the last group up: j (1-based) is in it
    when the rows from group j down are even in number and, past the first
    group, the half-length drops by 2 or more from group j - 1 or the sign
    bit (1 when a group has no +rows) repeats."""
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
    """The trivial-character census entries, one validated StratumEntry per
    orbit, with each orbit count branched by hand: four orbits over an empty
    mu at m = 0, two over a class-2 mu at m = 0, one otherwise."""
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
    return tuple(entries)


def census_bdi_k1(p, q):
    """The nontrivial-character census entries with the m = 0 orbits branched
    by hand: each of several orbits carries the bipartition count alone."""
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
    return tuple(entries)


def support_text(m, k, mu, mu_text):
    """format_diagram(diagram(*mu, (1, m, m), (2, k, k))), the support, from
    mu_text, mu's, with no diagram built: mu's tokens but those of its 1- and
    2-row groups, then the merged groups'."""
    n, cut, tail = len(mu), 0, []
    for length, added in ((1, m), (2, k)):
        plus, minus = mu[n - 1][1:] if n and mu[n - 1][0] == length else (0, 0)
        if plus + minus:  # mu's own group of this length: cut its tokens
            n, cut = n - 1, cut + (plus > 0) + (minus > 0)
        if plus + minus + added:
            tail.insert(0, diagrams._group_text((length, plus + added, minus + added)))
    head = [mu_text.rsplit(" ", cut)[0]] if n else []
    return " ".join(head + tail) or "0"


def census_records(pair, central):
    """The (m, k, mu's rows, deltas, count, family, mu_text) record of each stratum
    of a census, in the census's order: mu's rows, class, text and pi off the
    sigma_b or Lambda_b listing, or the staircase's; each support's deltas off
    mu's class."""
    if pair[0] == "diii":
        n = pair[1]
        if central == "k0":
            for k in range(n // 2 + 1):
                mus, _, texts = diagrams.lambda_b_listing(n - 2 * k)
                yield from ((2 * k, 0, mu, (None,), count_partitions(k), "diii", text)
                            for mu, text in zip(mus, texts))
        elif n >= 2 and n % 2 == 0:
            yield n, 0, (), (None,), count_bipartitions(n // 2), "diii", "0"
        return
    _, p, q = pair
    if central == "k0":
        for m, k, p1, q1, theta, pk, empty in census._k0_cells(p, q):
            if empty:
                yield (m, k, (), census._support_deltas(m, DELTA_NAMES), empty, "empty-mu", "0")
            for mu, cls, text, pi in zip(*diagrams.sigma_b_listing(p1, q1)):
                yield (m, k, mu, census._support_deltas(m, cls.deltas),
                       theta[cls.index] * pk * pi, f"sigma-b{cls.index}", text)
        return
    t = p - q
    staircase, D = mu_t(t), p + q - t * t
    for k in range(D // 4 + 1):
        m = (D - 4 * k) // 2
        deltas = census._support_deltas(m, classify(staircase).deltas)
        count = count_bipartitions(k) * census.theta_k1_count(m, t)
        yield (m, k, staircase.rows, deltas, count // len(deltas), "kappa1-staircase",
               diagrams.format_diagram(staircase))


def record_rows(records):
    """Each orbit's row off the records, in ROW_KEYS' order, each support's
    text merged by support_text."""
    return [(support_text(m, k, mu, text), delta, m, k, text, family, count)
            for m, k, mu, deltas, count, family, text in records for delta in deltas]


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


def plus_boxes(row):
    """The plus boxes of a group, box by box: box j of a row has its row's
    sign when j is even, the other when j is odd."""
    length, plus, minus = row
    return sum(plus if j % 2 == 0 else minus for j in range(length))


def class_counts_by_signature(n):
    """The class counts of every signature of size n from a DP of its own,
    one dict update per state (boxes, p, a, b, repeated) over the odd
    lengths; even lengths fold in as p(m) ways at 4m boxes, 2m of them plus."""
    ways = {(0, 0, 0, 0, False): 1}
    for length in range(1, n + 1, 2):
        options = [(length * mult, plus_boxes(row), *diagrams._ab((row,)))
                   for mult in range(1, n // length + 1)
                   for row in diagrams._sigma_rows(length, mult)]
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


def class_count_block(top):
    """The class counts of every size 0 .. top by signature as
    diagrams._class_count_block built them before its ways were packed: ways[boxes]
    maps (a, b, repeated) to a list of ways by plus-box count over the odd lengths,
    each group in every signing _sigma_rows gives it, a slice added per option;
    even lengths fold in as p(m) ways at 4m boxes, 2m of them plus."""
    ways = [{} for _ in range(top + 1)]
    ways[0][0, 0, False] = [1]
    for length in range(1, top + 1, 2):
        options = [(length * mult, diagrams._plus_boxes(row), *diagrams._ab((row,)))
                   for mult in range(1, top // length + 1)
                   for row in diagrams._sigma_rows(length, mult)]
        for boxes in range(top - length, -1, -1):  # larger first: each source read before it grows
            for (a, b, rep), vec in ways[boxes].items():
                for dn, dp, da, db, drep in options:
                    if boxes + dn > top:
                        break
                    target, key = ways[boxes + dn], (a + da, b + db, rep or drep)
                    if (out := target.get(key)) is None:
                        out = target[key] = [0] * (boxes + dn + 1)
                    out[dp:dp + boxes + 1] = map(operator.add, out[dp:dp + boxes + 1], vec)
    even = [count_partitions(m) for m in range(top // 4 + 1)]
    table = {}
    for n in range(top + 1):
        acc = {}
        for m, boxes in enumerate(range(n, -1, -4)):
            for key, vec in ways[boxes].items():
                for p, w in enumerate(vec, 2 * m):
                    if w:
                        acc[p, key] = acc.get((p, key), 0) + w * even[m]
        for (p, key), w in acc.items():
            table.setdefault((p, n - p), []).append((diagrams._class_of(*key), w))
    return {sig: tuple(counts) for sig, counts in table.items()}


def richardson_pi_sums(p, q):
    """The class-1 and class-2 sums of pi over the listed Richardson diagrams of
    signature (p, q), each pi as its sigma_b listing computes it."""
    sums = {1: 0, 2: 0}
    for _, cls, _, pi in zip(*diagrams.sigma_b_listing(p, q)):
        sums[cls.index] += pi
    return sums[1], sums[2]


def _by_signature(n, partitions, signings):
    """The sigma or sigma_b size table as built before each signing carried
    its class key: {signature: (diagrams, classes, texts[, pis])}, one
    diagram built and one _ab walk over all its rows per listed diagram."""
    table = {}
    for groups in partitions:
        for rows, p, omega, text in signings(groups):
            ds, classes, texts, pis = table.get(p) or table.setdefault(p, ([], [], [], []))
            ds.append(SignedYoungDiagram(rows))
            classes.append(cls := diagrams._class_of(*diagrams._ab(rows)))
            texts.append(text or "0")
            if omega is not None:
                pis.append(diagrams._pi(text, cls, omega, n))
    return {(p, n - p): tuple(tuple(c) for c in columns if c) for p, columns in table.items()}


def _sigma_signings(groups):
    """(rows, p, None, text) for every signing of the groups by _sigma_rows,
    first group varying slowest."""
    out, sep = [((), 0, None, "")], ""
    for length, mult in groups:
        options = [(row, plus_boxes(row), sep + diagrams._group_text(row))
                   for row in diagrams._sigma_rows(length, mult)]
        out = [(rows + (row,), p + dp, None, text + more)
               for rows, p, _, text in out for row, dp, more in options]
        sep = " "
    return out


def _richardson_signings(groups, start):
    """(rows, p, omega, text), one sign bit per group from _richardson_bits,
    in lexicographic order."""
    out, row, sep = [((), 0, None, 0, "")], 0, ""
    for length, mult in groups:
        mu = (length - 1) // 2
        plus, minus = (length, mult, 0), (length, 0, mult)
        signed = ((plus, mult * (mu + 1), sep + diagrams._group_text(plus)),
                  (minus, mult * mu, sep + diagrams._group_text(minus)))
        out = [(rows + (signed[bit][0],), p + signed[bit][1], (bit, mu),
                omega + diagrams._richardson_in_omega(row, start, above, bit, mu),
                text + signed[bit][2])
               for rows, p, above, omega, text in out
               for bit in diagrams._richardson_bits(row, start, above, mu)]
        row, sep = row + mult, " "
    return [(rows, p, omega, text) for rows, p, _, omega, text in out]


def sigma_by_signature(n):
    """The per-diagram build of diagrams._sigma_by_signature(n), over the
    partitions of n whose even parts have even multiplicity."""
    paired = (_group(p) for p in gen_partitions(n, n)
              if all(p.count(part) % 2 == 0 for part in p if part % 2 == 0))
    return _by_signature(n, paired, _sigma_signings)


def sigma_b_by_signature(n):
    """The per-diagram build of diagrams._sigma_b_by_signature(n)."""
    return _by_signature(n, map(_group, gen_odd_partitions(n, n)) if n else (),
                         lambda groups: _richardson_signings(groups, n % 2))


def _good_node(bipartition, charge, residue, reverse):
    """The bipartition with its good node of the residue added, or None: the
    residue's addable (A) and removable (R) nodes, a node's residue being its
    content plus its component's charge mod 2, listed by component and then
    row from the top (reversed if reverse); each R cancels the nearest
    uncancelled A before it, and the leftmost A left is the good node (the
    Misra-Miwa signature rule, e = 2)."""
    nodes = []
    for c, part in enumerate(bipartition):
        for i in range(len(part) + 1):
            length = part[i] if i < len(part) else 0
            if (i == 0 or part[i - 1] > length) and (length - i + charge[c]) % 2 == residue:
                nodes.append(("A", c, i))
            if length and (i + 1 == len(part) or part[i + 1] < length) \
                    and (length - 1 - i + charge[c]) % 2 == residue:
                nodes.append(("R", c, i))
    left = []
    for node in reversed(nodes) if reverse else nodes:
        if node[0] == "R" and left and left[-1][0] == "A":
            left.pop()
        else:
            left.append(node)
    for kind, c, i in left:
        if kind == "A":
            part = bipartition[c]
            grown = part[:i] + (part[i] + 1,) + part[i + 1:] if i < len(part) else part + (1,)
            return bipartition[:c] + (grown,) + bipartition[c + 1:]
    return None


def kleshchev_count(charge, n, reverse=False):
    """The e = 2 Kleshchev bipartitions of n with the charge: those reached
    from (empty, empty) by adding good nodes, one level per box. By Ariki's
    theorem (Ariki-Mathas, Math. Z. 233, 2000) they index the simple modules
    of the type-B Hecke algebra at q = -1."""
    level = {((), ())}
    for _ in range(n):
        level = {grown for bipartition in level for residue in (0, 1)
                 if (grown := _good_node(bipartition, charge, residue, reverse)) is not None}
    return len(level)
