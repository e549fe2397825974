"""Diagram enumeration against brute-force oracles and the structural
invariants (sign swap, parity of the invariants, staircase signatures)."""
import itertools
import pickle
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import enum_oracles as oracles
from sheaf_census import diagrams as dg
from sheaf_census.partitions import count_bipartitions, enum_partitions


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
                assert dg.is_sigma_b(d) and oracles.is_sigma_b(d), str(d)
    assert dg.enum_sigma_b(0, 0) == []
    assert not dg.is_sigma_b(dg.SignedYoungDiagram())


def test_membership_tests_match_the_row_rules_on_every_diagram():
    # members and non-members alike: the library reads its generators, the
    # oracles apply the rules row by row
    seen = 0
    for n in range(15):
        for d in oracles.signed_diagrams(n):
            seen += 1
            assert dg.is_sigma_b(d) == oracles.is_sigma_b(d), str(d)
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
            swapped = {d.sign_swap() for d in dg.enum_sigma(p, q)}
            assert swapped == set(dg.enum_sigma(q, p))
            swapped_b = {d.sign_swap() for d in dg.enum_sigma_b(p, q)}
            assert swapped_b == set(dg.enum_sigma_b(q, p))
            for d in dg.enum_sigma(p, q):
                c, cs = dg.classify(d), dg.classify(d.sign_swap())
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


def test_one_class_count_walk_serves_a_block_of_sizes():
    # sizes 0..32 share the walks to 0, 8, 16, 24 and 32
    dg._class_count_block.cache_clear()
    sweep = [(p, total - p) for total in range(33) for p in range(total + 1)]
    for p, q in sweep:
        dg.sigma_class_counts(p, q)
    assert dg._class_count_block.cache_info().misses == 5
    for p, q in sweep:
        dg.sigma_class_counts(p, q)
    assert dg._class_count_block.cache_info().misses == 5


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
    # enumerator output skips the constructor's checks; it must pass them
    pools = [dg.enum_lambda(n) + dg.enum_lambda_b(n) for n in range(11)]
    for total in range(21):
        for p in range(total + 1):
            pools.append(dg.enum_sigma(p, total - p) + dg.enum_sigma_b(p, total - p))
    for pool in pools:
        for d in pool:
            checked = dg.SignedYoungDiagram(d.rows)
            assert checked == d and hash(checked) == hash(d)


def test_diagram_builders_keep_validating():
    with pytest.raises(ValueError):
        dg.diagram((0, 1, 0))
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
    # and list each diagram's class next to it
    for n in range(25):
        for table in (dg._sigma_by_signature(n), dg._sigma_b_by_signature(n)):
            for sig, (ds, classes) in table.items():
                assert all(d.signature() == sig for d in ds), (n, sig)
                assert classes == tuple(map(dg.classify, ds)), (n, sig)
    assert dg.sigma_listing(3, 2) == dg._sigma_by_signature(5)[3, 2]
    assert dg.sigma_b_listing(3, 2) == dg._sigma_b_by_signature(5)[3, 2]
    assert dg.sigma_b_listing(0, 0) == ((), ())


def test_enum_lambda_b_returns_a_fresh_list():
    first = dg.enum_lambda_b(5)
    first.clear()
    assert dg.enum_lambda_b(5) == oracles.enum_lambda_b(5)
