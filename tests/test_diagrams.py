"""Diagram enumeration against brute-force oracles and the structural
invariants (sign swap, parity of the invariants, staircase signatures)."""
import itertools
import operator
import pickle
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import enum_oracles as oracles
from sheaf_census import diagrams as dg
from sheaf_census.partitions import count_bipartitions, count_partitions, enum_partitions
from sheaf_census.qseries import BiSeries


def test_format_diagram_matches_the_token_oracle():
    # the text joined from memoised group texts against the token-by-token rule
    diagrams = [d for n in range(15) for d in oracles.signed_diagrams(n)]
    assert len(diagrams) > 7000
    for d in diagrams + [dg.SignedYoungDiagram()]:
        assert dg.format_diagram(d) == oracles.format_diagram(d), d.rows
    assert dg.format_diagram(dg.SignedYoungDiagram()) == "0"


def brute_sigma(p, q):
    """Oracle: assign signs row by row over raw partitions and regroup."""
    out = set()
    for part in enum_partitions(p + q):
        rows = part.parts
        for signs in itertools.product("+-", repeat=len(rows)):
            counts = {}
            for length, sign in zip(rows, signs):
                entry = counts.setdefault(length, [0, 0])
                entry[0 if sign == "+" else 1] += 1
            if any(length % 2 == 0 and c[0] != c[1] for length, c in counts.items()):
                continue
            d = dg.diagram(*((length, c[0], c[1]) for length, c in counts.items()))
            if d.signature() == (p, q):
                out.add(d)
    return out


def test_signature_examples():
    assert dg.parse_diagram("5+").signature() == (3, 2)
    assert dg.parse_diagram("2+").signature() == (1, 1)
    assert dg.parse_diagram("2-").signature() == (1, 1)
    assert dg.parse_diagram("3- 1+ 1+").signature() == (3, 2)


def test_enum_sigma_examples():
    found = {str(d) for d in dg.enum_sigma(3, 2)}
    assert found == {"5+", "3+ 1+ 1-", "3- 1+^2", "2+ 2- 1+", "1+^3 1-^2"}
    assert dg.enum_sigma(0, 0) == [dg.SignedYoungDiagram()]
    # value fixed by the brute-force oracle below
    assert {str(d) for d in dg.enum_sigma(2, 1)} == {"3+", "1+^2 1-"}


def test_enum_sigma_against_bruteforce():
    for p in range(6):
        for q in range(6):
            assert set(dg.enum_sigma(p, q)) == brute_sigma(p, q), (p, q)


def test_classify_examples():
    c = dg.classify(dg.parse_diagram("5+"))
    assert (c.a, c.b, c.index, c.r) == (1, 0, 2, 0)
    c = dg.classify(dg.parse_diagram("1+^3 1-^2"))
    assert (c.a, c.b, c.index, c.r) == (1, 1, 1, 0)
    c = dg.classify(dg.SignedYoungDiagram())
    assert (c.a, c.b, c.index, c.r) == (0, 0, 3, 0)
    with pytest.raises(ValueError):
        dg.classify(dg.diagram((2, 1, 0)))


def test_orbit_multiplicity():
    assert dg.classify(dg.parse_diagram("1+^3 1-^2")).orbits == 1
    assert dg.classify(dg.parse_diagram("5+")).orbits == 2
    assert dg.classify(dg.parse_diagram("2+ 2-")).orbits == 4
    assert dg.classify(dg.parse_diagram("1+^3 1-^2")).deltas == (None,)
    assert dg.classify(dg.parse_diagram("5+")).deltas == ("I", "II")
    assert dg.classify(dg.parse_diagram("2+ 2-")).deltas == ("I", "II", "III", "IV")


def test_invariant_parity():
    # the parity pattern of (a, b) holds on the diagrams with at most one
    # row per sign for every odd length (the only ones whose component
    # groups extend); repeated odd rows break it, e.g. 1+^2 1-^2 in (2, 2)
    for p in range(8):
        for q in range(8):
            for d in dg.enum_sigma(p, q):
                if any(length % 2 and (plus > 1 or minus > 1)
                       for length, plus, minus in d.rows):
                    continue
                cls = dg.classify(d)
                if (p + q) % 2:
                    assert (cls.a + cls.b) % 2 == 1
                elif p % 2 == 1 and q % 2 == 1:
                    assert cls.a % 2 == 1 and cls.b % 2 == 1
                elif p % 2 == 0 and q % 2 == 0:
                    assert cls.a % 2 == 0 and cls.b % 2 == 0


def test_signature_recomputation():
    for p in range(7):
        for q in range(7):
            for d in dg.enum_sigma(p, q):
                assert d.signature() == (p, q)
    for n in range(7):
        for d in dg.enum_lambda(n):
            assert d.signature() == (n, n)


def test_enum_sigma_b_examples():
    assert {str(d) for d in dg.enum_sigma_b(3, 2)} == {"5+", "3- 1+^2"}
    assert {str(d) for d in dg.enum_sigma_b(2, 1)} == {"3+"}
    # two unit rows of opposite sign cannot share the mandatory common sign
    assert dg.enum_sigma_b(1, 1) == []
    assert {str(d) for d in dg.enum_sigma_b(2, 2)} == {"3+ 1-", "3- 1+"}
    assert {str(d) for d in dg.enum_sigma_b(4, 2)} == {"5+ 1+", "3+^2", "3- 1+^3"}


def test_enum_sigma_b_matches_filter_oracle():
    # ordered-list equality with the generate-then-filter enumerator
    for total in range(25):
        for p in range(total + 1):
            assert dg.enum_sigma_b(p, total - p) == oracles.enum_sigma_b(p, total - p), \
                (p, total - p)


def test_enum_sigma_b_members_pass_membership_test():
    for total in range(13):
        for p in range(total + 1):
            for d in dg.enum_sigma_b(p, total - p):
                assert dg._richardson_omega(d) is not None and oracles.is_sigma_b(d), str(d)
    assert dg.enum_sigma_b(0, 0) == []
    assert dg._richardson_omega(dg.SignedYoungDiagram()) is None


def test_membership_tests_match_the_row_rules_on_every_diagram():
    # members and non-members alike: the library reads its generators, the
    # oracles apply the rules row by row
    seen = 0
    for n in range(15):
        for d in oracles.signed_diagrams(n):
            seen += 1
            assert (dg._richardson_omega(d) is not None) == oracles.is_sigma_b(d), str(d)
            assert dg.in_lambda(d) == oracles.in_lambda(d), str(d)
    assert seen == 7567


def test_sigma_b_never_class3():
    for p in range(11):
        for q in range(11):
            if p + q > 20:
                continue
            for d in dg.enum_sigma_b(p, q):
                assert dg.classify(d).index in (1, 2)


def test_sigma_b_subset_of_sigma():
    for p in range(8):
        for q in range(8):
            sigma = set(dg.enum_sigma(p, q))
            for d in dg.enum_sigma_b(p, q):
                assert d in sigma


def test_sign_swap_bijection():
    for p in range(9):
        for q in range(9):
            if p + q > 16:
                continue
            swapped = {oracles.sign_swap(d) for d in dg.enum_sigma(p, q)}
            assert swapped == set(dg.enum_sigma(q, p))
            swapped_b = {oracles.sign_swap(d) for d in dg.enum_sigma_b(p, q)}
            assert swapped_b == set(dg.enum_sigma_b(q, p))
            for d in dg.enum_sigma(p, q):
                c, cs = dg.classify(d), dg.classify(oracles.sign_swap(d))
                assert (c.a, c.b, c.r, c.index) == (cs.b, cs.a, cs.r, cs.index)


def test_enum_lambda_examples():
    assert {str(d) for d in dg.enum_lambda(3)} == \
        {"3+ 3-", "2+^2 1+ 1-", "2-^2 1+ 1-", "1+^3 1-^3"}
    assert {str(d) for d in dg.enum_lambda_b(3)} == \
        {"3+ 3-", "2+^2 1+ 1-", "2-^2 1+ 1-"}
    assert dg.enum_lambda_b(0) == [dg.SignedYoungDiagram()]


def test_enum_lambda_matches_filter_oracle():
    for n in range(17):
        assert dg.enum_lambda(n) == oracles.enum_lambda(n), n


def test_enum_lambda_b_matches_filter_oracle():
    for n in range(21):
        assert dg.enum_lambda_b(n) == oracles.enum_lambda_b(n), n


def test_enum_lambda_even_matches_filter_oracle():
    # the all-even walk lists the filter's diagrams in the filter's order
    for n in range(23):
        assert dg.enum_lambda_even(n) == oracles.enum_lambda_even(n), n
    with pytest.raises(ValueError):
        dg.enum_lambda_even(-1)


def test_enum_lambda_b_has_p_of_n_members():
    # prod(1+x^s) / prod(1-x^(2s)) = prod 1/(1-x^s): the independent count
    # that census --check uses for the diii nilpotent subset
    from sheaf_census.partitions import count_partitions
    for n in range(17):
        assert len(dg.enum_lambda_b(n)) == count_partitions(n), n


def test_parse_merges_groups_through_diagram():
    assert dg.parse_diagram("1+ 3- 1+ 1-") == dg.diagram((3, 0, 1), (1, 2, 1))
    assert dg.parse_diagram("1+ 3- 1+ 1-") == dg.parse_diagram("3- 1+^2 1-")
    for text, message in (("3x", "bad diagram token"), ("1+^0", "bad multiplicity"),
                          ("0+", "row lengths must be positive")):
        with pytest.raises(ValueError, match=message):
            dg.parse_diagram(text)


def test_mu_t():
    assert str(dg.mu_t(2)) == "3+ 1+"
    assert dg.mu_t(0) == dg.SignedYoungDiagram()
    d = dg.mu_t(-3)
    assert str(d) == "5- 3- 1-"
    assert d.signature() == (3, 6)
    for t in range(-6, 7):
        expected = ((t * t + t) // 2, (t * t - t) // 2)
        assert dg.mu_t(t).signature() == expected


def test_join():
    # diagram() merges the rows of two diagrams, regrouped by length
    unit_pair = dg.diagram((1, 1, 1))
    assert str(dg.diagram(*unit_pair.rows, *dg.mu_t(2).rows)) == "3+ 1+^2 1-"
    d = dg.parse_diagram("2+ 2-")
    assert dg.diagram(*d.rows, *dg.SignedYoungDiagram().rows) == d
    assert str(dg.diagram(*d.rows, *d.rows)) == "2+^2 2-^2"


def test_diii_bijection_examples():
    b = dg.diii_kappa1_bijection(dg.parse_diagram("2+^2 2-^2"))
    assert (b.first.parts, b.second.parts) == ((1,), (1,))
    b = dg.diii_kappa1_bijection(dg.parse_diagram("4+^2"))
    assert (b.first.parts, b.second.parts) == ((2,), ())
    b = dg.diii_kappa1_bijection(dg.SignedYoungDiagram())
    assert (b.first.parts, b.second.parts) == ((), ())
    with pytest.raises(ValueError):
        dg.diii_kappa1_bijection(dg.parse_diagram("3+ 3-"))


def test_diii_bijection_counts():
    for n in range(2, 21, 2):
        all_even = [d for d in dg.enum_lambda(n) if d.all_parts_even()]
        images = {(dg.diii_kappa1_bijection(d).first.parts,
                   dg.diii_kappa1_bijection(d).second.parts) for d in all_even}
        assert len(images) == len(all_even)
        assert len(all_even) == count_bipartitions(n // 2)


def test_text_round_trip_fixed():
    for text in ("0", "5+", "3- 1+^2", "2+ 2- 1+", "1+^3 1-^2"):
        assert dg.format_diagram(dg.parse_diagram(text)) == text
    # ungrouped tokens collapse into groups
    assert dg.format_diagram(dg.parse_diagram("3- 1+ 1+")) == "3- 1+^2"
    with pytest.raises(ValueError):
        dg.parse_diagram("3* 1+")


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7),
       st.randoms(use_true_random=False))
def test_text_round_trip_random(p, q, rng):
    pool = dg.enum_sigma(p, q) + dg.enum_lambda(min(p, 5))
    if not pool:
        return
    d = rng.choice(pool)
    assert dg.parse_diagram(dg.format_diagram(d)) == d


def test_diagram_validation():
    with pytest.raises(ValueError):
        dg.SignedYoungDiagram(((2, 1, 0), (3, 1, 0)))  # increasing lengths
    with pytest.raises(ValueError):
        dg.SignedYoungDiagram(((2, 0, 0),))  # empty group
    with pytest.raises(ValueError):
        dg.SignedYoungDiagram(((0, 1, 0),))  # zero length


def test_sigma_classes_match_classify():
    # the class-count DP against the classes of the listed diagrams
    for total in range(27):
        for p in range(total + 1):
            q = total - p
            counts = dg.sigma_class_counts(p, q)
            assert all(n > 0 for _, n in counts), (p, q)
            assert dict(counts) == Counter(map(dg.classify, dg.enum_sigma(p, q))), (p, q)
    with pytest.raises(ValueError):
        dg.sigma_class_counts(-1, 3)


def test_sigma_class_counts_match_the_per_size_dp():
    # the block walk against the per-size DP oracle, every pair with p+q <= 40
    for total in range(41):
        table = oracles.class_counts_by_signature(total)
        for p in range(total + 1):
            q = total - p
            assert dict(dg.sigma_class_counts(p, q)) == dict(table.get((p, q), {})), (p, q)


@pytest.mark.parametrize("top", [32, 48, 64])
def test_class_count_block_matches_the_slice_oracle(top):
    # the packed DP against the slice DP it replaced: every signature, class and count
    got, expected = dg._class_count_block(top), oracles.class_count_block(top)
    assert got.keys() == expected.keys()
    for sig, counts in expected.items():
        assert len(got[sig]) == len(counts) and dict(got[sig]) == dict(counts), (top, sig)


def test_richardson_pi_sums_match_the_listing_sums():
    # the Richardson knapsack against pi summed over the sigma_b listing, every p+q <= 40
    for total in range(41):
        for p in range(total + 1):
            q = total - p
            assert dg.richardson_pi_sums(p, q) == oracles.richardson_pi_sums(p, q), (p, q)


@pytest.mark.parametrize("start", [0, 1])
@pytest.mark.parametrize("top", [24, 48, 80])
def test_richardson_block_matches_its_own_loop(start, top):
    # the keyed fold against the knapsack loop it replaced: every bucket of every size
    assert dg._richardson_block(start, top) == oracles.richardson_block(start, top)


@pytest.mark.parametrize("top", [1, 8, 25, 96])
def test_packed_digits_stay_inside_their_width(top):
    # a digit holds count_bipartitions(top), which bounds every count of diagrams
    # of size <= top: no digit either DP produces reaches its width, and the
    # digits of each size sum to the size's count, so none carried into the next
    width, bound = dg._digit_width(top), count_bipartitions(top)
    sigma = [1] + [0] * top  # |sigma(n)|: any odd rows of either sign, even rows in +- pairs
    for length in range(1, top + 1):
        for step in (length, length) if length % 2 else (2 * length,):
            for n in range(step, top + 1):
                sigma[n] += sigma[n - step]
    by_size = [0] * (top + 1)
    for (p, q), counts in dg._class_count_block(top).items():
        by_size[p + q] += sum(n for _, n in counts)
        assert max(n for _, n in counts) <= bound < 1 << width, (top, p, q)
    assert by_size == sigma
    for n in range(1, top + 1):
        buckets = dg._richardson_block(n % 2, top)[n].values()
        digits = [packed >> p * width & (1 << width) - 1 for packed in buckets for p in range(n + 1)]
        assert max(digits, default=0) <= bound and not any(w >> (n + 1) * width for w in buckets)
        if n <= 30:  # the Richardson diagrams the size's sigma_b table lists
            assert sum(digits) == sum(len(columns[0]) for columns in
                                      dg._sigma_b_by_signature(n).values()), (top, n)


def _sigma_product(order, keep):
    """The closed product over k >= 1 of 1/(1 - u^k v^(k-1)) for a +row of odd
    length 2k - 1, 1/(1 - u^(k-1) v^k) for a -row, each if keep(k, sign), and
    1/(1 - u^2k v^2k) for a pair 2k+ 2k-, to u and v order `order`."""
    s = BiSeries.one(order, order)
    for k in range(1, order + 1):
        for sign, ue, ve in (("+", k, k - 1), ("-", k - 1, k)):
            if keep(k, sign):
                s = s.mul_binomial(-1, ue, ve, -1)
        s = s.mul_binomial(-1, 2 * k, 2 * k, -1)
    return s


def test_sigma_counts_are_closed_products():
    # a sigma diagram is a multiset of odd rows, each starting with either
    # sign, and of +- pairs of even rows: |sigma(p, q)| is the u^p v^q
    # coefficient of the full product. An odd length 2k - 1 is 1 mod 4 for odd
    # k, so a = 0 drops the +rows of odd k and the -rows of even k, and b = 0
    # the other two kinds; a class has 1 + [a = 0] + [b = 0] + [a = b = 0]
    # orbits, so the orbit count is the sum of the four products
    order = 24
    rules = (lambda k, sign: True, lambda k, sign: (sign == "+") == (k % 2 == 0),
             lambda k, sign: (sign == "+") == (k % 2 == 1), lambda k, sign: False)
    full, *fewer = (_sigma_product(order, keep) for keep in rules)
    for total in range(order + 1):
        for p in range(total + 1):
            q = total - p
            _, classes, _ = dg.sigma_listing(p, q)
            counts = dg.sigma_class_counts(p, q)
            assert len(classes) == sum(n for _, n in counts) == full.coeff(p, q), (p, q)
            orbits = full.coeff(p, q) + sum(s.coeff(p, q) for s in fewer)
            assert sum(c.orbits for c in classes) == \
                sum(c.orbits * n for c, n in counts) == orbits, (p, q)


def test_one_class_count_walk_serves_a_block_of_sizes():
    # sizes 0..32 share the walk to 32, and a second sweep walks none
    dg._class_count_block.cache_clear()
    sweep = [(p, total - p) for total in range(33) for p in range(total + 1)]
    for p, q in sweep:
        dg.sigma_class_counts(p, q)
    assert dg._class_count_block.cache_info().misses == 1
    for p, q in sweep:
        dg.sigma_class_counts(p, q)
    assert dg._class_count_block.cache_info().misses == 1


def test_classes_are_shared_and_carry_their_orbits():
    c = dg.classify(dg.parse_diagram("5+"))
    assert c is dg.classify(dg.parse_diagram("3- 2+ 2-"))  # both (a, b) = (1, 0)
    assert c == dg.DiagramClass(1, 0, 2, 0)
    for text, orbits in (("1+^3 1-^2", 1), ("5+", 2), ("2+ 2-", 4)):
        cls = dg.classify(dg.parse_diagram(text))
        assert (cls.orbits, len(cls.deltas)) == (orbits, orbits)
    # only an odd length repeating a sign counts, and it keeps its own instance
    for text, repeated in (("1+^3 1-^2", True), ("3+^2", True), ("3+ 1+ 1-", False),
                           ("2+^2 2-^2 1+", False)):
        assert dg.classify(dg.parse_diagram(text)).repeated is repeated, text
    assert dg.classify(dg.parse_diagram("5+^2")) is not c


def test_enumerated_diagrams_pass_the_public_checks():
    # enumerator output is built through the constructor's checks, and a
    # diagram rebuilt from its rows is equal to it
    pools = [dg.enum_lambda(n) + dg.enum_lambda_b(n) for n in range(11)]
    for total in range(21):
        for p in range(total + 1):
            pools.append(dg.enum_sigma(p, total - p) + dg.enum_sigma_b(p, total - p))
    for pool in pools:
        for d in pool:
            checked = dg.SignedYoungDiagram(d.rows)
            assert checked == d and hash(checked) == hash(d)


def test_diagram_builders_keep_validating():
    # a length below 1 is refused even in a group with no rows to drop
    for group in ((0, 1, 0), (0, 0, 0), (-2, 0, 0), (-2, 1, 1)):
        with pytest.raises(ValueError, match="^row lengths must be positive$"):
            dg.diagram(group)
    with pytest.raises(ValueError, match="^row lengths must be positive$"):
        dg.diagram((3, 1, 0), (0, 0, 0))
    # a negative row count is refused before groups merge, so it cannot cancel
    for groups in (((1, 1, -1),), ((3, 1, -1), (3, 0, 1))):
        with pytest.raises(ValueError, match="negative row count"):
            dg.diagram(*groups)
    # groups with no rows are still dropped
    assert dg.diagram((1, 0, 0), (2, 1, 1)) == dg.parse_diagram("2+ 2-")
    with pytest.raises(ValueError):
        dg.parse_diagram("0+ 1-")


def test_slotted_diagram_pickles():
    for d in (dg.parse_diagram("3- 1+^2"), dg.enum_sigma(3, 2)[0], dg.SignedYoungDiagram()):
        back = pickle.loads(pickle.dumps(d))
        assert back == d and hash(back) == hash(d) and str(back) == str(d)
    assert not hasattr(d, "__dict__")


def test_table_keys_are_signatures():
    # the table builders carry p group by group instead of calling signature(),
    # and list each diagram's rows with its class (and a Richardson one's pi)
    for n in range(25):
        for table in (dg._sigma_by_signature(n), dg._sigma_b_by_signature(n)):
            for sig, (listed, classes, *_) in table.items():
                ds = tuple(map(dg.SignedYoungDiagram, listed))
                assert all(d.signature() == sig for d in ds), (n, sig)
                assert classes == tuple(map(dg.classify, ds)), (n, sig)
    assert dg.sigma_listing(3, 2) == dg._sigma_by_signature(5)[3, 2]
    assert dg.sigma_b_listing(3, 2) == dg._sigma_b_by_signature(5)[3, 2]
    assert dg.sigma_b_listing(0, 0) == ((), (), (), ())


def test_tables_match_the_per_diagram_oracle():
    # each signing's class key, summed group by group, against _ab walked over
    # the whole diagram: rows, order, the one shared class instance, texts, pi
    cases = [(dg._sigma_by_signature, oracles.sigma_by_signature, n) for n in range(31)]
    cases += [(dg._sigma_b_by_signature, oracles.sigma_b_by_signature, n) for n in range(41)]
    listed = 0
    for table, oracle, n in cases:
        got, expected = table(n), oracle(n)
        assert list(got) == list(expected), n
        for sig, (ds, classes, texts, *pis) in expected.items():
            rows, got_classes, got_texts, *got_pis = got[sig]
            assert rows == tuple(d.rows for d in ds), (n, sig)
            assert len(got_classes) == len(classes), (n, sig)
            assert all(map(operator.is_, got_classes, classes)), (n, sig)
            assert (got_texts, got_pis) == (texts, pis), (n, sig)
            listed += len(ds)
    assert listed == 150604 + 42966  # sigma of sizes 0..30, sigma_b of sizes 0..40


def test_listed_texts_are_the_canonical_format():
    # each table builds its diagrams' text as it signs their groups
    for N in range(25):
        for p in range(N + 1):
            for listing in (dg.sigma_listing, dg.sigma_b_listing):
                listed, _, texts = listing(p, N - p)[:3]
                ds = map(dg.SignedYoungDiagram, listed)
                assert texts == tuple(map(dg.format_diagram, ds)), (listing.__name__, p, N - p)
    assert dg.sigma_listing(0, 0)[2] == ("0",)


def test_lambda_listings_list_the_canonical_texts():
    # the Lambda, Lambda_b and all-even listings sign their groups through
    # the sigma walker, and build each text the same way
    for listing, bound in ((dg.lambda_listing, 16), (dg.lambda_b_listing, 20),
                           (dg.lambda_even_listing, 22)):
        for n in range(bound + 1):
            rows, classes, texts = listing(n)
            assert len(rows) == len(classes) == len(texts), (listing.__name__, n)
            assert texts == tuple(map(dg.format_diagram, map(dg.SignedYoungDiagram, rows))), \
                (listing.__name__, n)
    assert dg.lambda_listing(0)[2] == dg.lambda_b_listing(0)[2] == ("0",)
    assert dg.lambda_even_listing(3) == ((), (), ())
    for listing in (dg.lambda_listing, dg.lambda_b_listing, dg.lambda_even_listing):
        with pytest.raises(ValueError, match="^n must be nonnegative$"):
            listing(-1)


def test_the_lambda_b_knapsack_counts_the_listing():
    # |Lambda_b(m)| from the knapsack over _lambda_b_rows' signings against the
    # listing's length, and against p(m): prod(1+x^s)/prod(1-x^(2s)) = prod 1/(1-x^s)
    sizes = dg._lambda_b_counts(30)
    assert sizes == tuple(len(dg.lambda_b_listing(m)[0]) for m in range(31))
    assert sizes == tuple(count_partitions(m) for m in range(31))
    assert all(dg._lambda_b_counts(m) == sizes[:m + 1] for m in range(31))

def test_lambda_classes_give_the_kappa1_counts():
    # an odd length holds rows of both signs, so a listed class is 3 exactly
    # on the all-even diagrams: the kappa1 count orbits diii reads off it
    from sheaf_census.groups import kappa1_data_DIII
    for n in range(15):
        for listing in (dg.lambda_listing, dg.lambda_b_listing):
            rows, classes, _ = listing(n)
            for row, cls in zip(rows, classes):
                d = dg.SignedYoungDiagram(row)
                assert int(cls.index == 3) == kappa1_data_DIII(d).count, (n, str(d))
                assert cls == dg._class_of(*dg._ab(row)), (n, str(d))


def test_lambda_enumerators_leave_the_option_cache_as_it_is():
    # the option cache is keyed on its option function: each listing passes a
    # module-level one, so calls after the first add no entry
    for n in range(12):
        dg.enum_lambda(n), dg.enum_lambda_b(n), dg.enum_lambda_even(n)
    size = dg._options.cache_info().currsize
    for cache in (dg.lambda_listing, dg.lambda_b_listing, dg.lambda_even_listing):
        cache.cache_clear()
    for _ in range(3):
        for n in range(12):
            dg.enum_lambda(n), dg.enum_lambda_b(n), dg.enum_lambda_even(n)
    assert dg._options.cache_info().currsize == size


def test_enum_lambda_b_returns_a_fresh_list():
    first = dg.enum_lambda_b(5)
    first.clear()
    assert dg.enum_lambda_b(5) == oracles.enum_lambda_b(5)
