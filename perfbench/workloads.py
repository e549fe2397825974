"""Seeded operation lists for the three benchmark workloads.

An operation is the argv of one `sheaf-census` call. The seed only permutes
operations or picks values that do not change their size, so every seed of a
workload does the same amount of work and the same outputs can be checked.
This module does not import the package under test.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

DEFAULT_SEED = 1

VERIFY_ORDER = 40
VERIFY_SWEEP = 24
# The 33 ids of the identity suite, in registry order. A benchmark test keeps
# this list equal to `verify.suite_ids()`.
VERIFY_IDS = (
    "number1-k0", "number1-k1", "kappa1-orbit-sum", "lemma-n1", "lemma-n1-2var",
    "numbert-closure", "psi1-a", "psi1-b", "psi1-c", "oe-split", "eqn-oeterms",
    "bb-odd", "bb-even", "tb1", "b2-odd", "b2-even", "b2-weighted-oracle",
    "fn1B", "fn1D", "fn2B", "fn-split-D", "fn-ind2-D", "coro-cuspidal-k0",
    "coro-cuspidal-k1", "nilcoro-k0-odd", "nilcoro-k0-even", "nilcoro-k1",
    "diii-k0-closure", "diii-k1-bijection", "PNt-formula", "jacobi-t",
    "k1-series-rewrite", "euler-smoke",
)

# Every (p, q) with p + q = CENSUS_N gets one census and one orbits call.
CENSUS_N = 30

SERIES_ORDER = 400
# Each template is (inverted, terms); a term is a tuple of factor families
# (stride, offset, power). The templates fix the cost of a call, and each is
# expanded once for every pattern of signs, so the mix of signs is the same
# for all seeds. The seed picks the prefixes, the sign between two terms and
# the call order. Offsets and inversion are not seeded: either can change the
# cost of a call twofold, and a pass would then cost more on some seeds.
SERIES_TEMPLATES = (
    (True, (((2, 1, 1), (3, -1, 1)),)),
    (False, (((2, 0, 1),), ((3, -1, 2),))),
)
PREFIXES = (Fraction(1, 2), Fraction(2, 3), Fraction(3, 7), Fraction(5, 4),
            Fraction(7, 9), Fraction(9, 5))

WORKLOADS = ("verify-suite", "census-sweep", "series-expand")


def verify_suite(rng: random.Random) -> list[list[str]]:
    ids = list(VERIFY_IDS)
    rng.shuffle(ids)
    return [["verify", "--suite", cid, "--order", str(VERIFY_ORDER),
             "--sweep", str(VERIFY_SWEEP)] for cid in ids]


def census_sweep(rng: random.Random) -> list[list[str]]:
    ps = list(range(CENSUS_N + 1))
    rng.shuffle(ps)
    ops = []
    for p in ps:
        pq = ["--p", str(p), "--q", str(CENSUS_N - p)]
        ops.append(["census", "bdi", *pq, "--central", "both", "--check"])
        ops.append(["orbits", "bdi", *pq])
    return ops


# A series spec is (inverted, joiner, terms); a term is (prefix, groups) and a
# group is (sign, stride, offset, power), read as prod_s (1 + sign x^(stride s
# + offset))^power. `joiner` is the sign between the terms of a two-term sum.
# An inverted term is `prefix*inv(prod...)`: the inverse of a product with
# integer coefficients, so its cost does not depend on the prefix.

def _series_text(spec) -> str:
    inverted, joiner, terms = spec
    pieces = []
    for prefix, groups in terms:
        body = "prod" + "".join(
            f"(1{'+' if sign > 0 else '-'}x^{{{stride}s"
            f"{'' if not offset else f'{offset:+d}'}}})"
            f"{'' if power == 1 else f'^{power}'}"
            for sign, stride, offset, power in groups)
        pieces.append(f"{prefix}*inv({body})" if inverted else f"{prefix}*{body}")
    return ("+" if joiner > 0 else "-").join(pieces)


def series_specs(rng: random.Random) -> list[tuple]:
    specs = []
    for inverted, template in SERIES_TEMPLATES:
        families = sum(len(term) for term in template)
        for signs in itertools.product((1, -1), repeat=families):
            it = iter(signs)
            terms = tuple((rng.choice(PREFIXES),
                           tuple((next(it), stride, offset, power)
                                 for stride, offset, power in term))
                          for term in template)
            specs.append((inverted, rng.choice((1, -1)), terms))
    rng.shuffle(specs)
    return specs


def series_expand(rng: random.Random) -> list[list[str]]:
    return [["series", "--expr", _series_text(spec), "--order", str(SERIES_ORDER)]
            for spec in series_specs(rng)]


def operations(workload: str, seed: int) -> list[list[str]]:
    """The argv of every operation of one pass, in the seed's order."""
    generators = {"verify-suite": verify_suite, "census-sweep": census_sweep,
                "series-expand": series_expand}
    return generators[workload](random.Random(f"{workload}:{seed}"))


def series_spec_by_text(seed: int) -> dict[str, tuple]:
    """Map each series expression of a seed to its spec, for the oracle."""
    return {_series_text(spec): spec
            for spec in series_specs(random.Random(f"series-expand:{seed}"))}


# ---------------------------------------------------------------------------
# An independent expansion of the generated series expressions. Products are
# expanded over Python ints (every factor has integer coefficients and the
# constant term 1); the rational prefixes are applied at the end.
# ---------------------------------------------------------------------------

def _int_product(groups, order: int) -> list[int]:
    vals = [1] + [0] * order
    for sign, stride, offset, power in groups:
        s = 1
        while stride * s + offset <= order:
            e = stride * s + offset
            for _ in range(power):
                for k in range(order, e - 1, -1):
                    vals[k] += sign * vals[k - e]
            s += 1
    return vals


def _int_inverse(vals: list[int]) -> list[int]:
    # valid because vals[0] == 1
    out = [1] + [0] * (len(vals) - 1)
    for k in range(1, len(vals)):
        out[k] = -sum(vals[j] * out[k - j] for j in range(1, k + 1) if vals[j])
    return out


def expected_coefficients(spec, order: int) -> list[Fraction]:
    inverted, joiner, terms = spec
    total = [Fraction(0)] * (order + 1)
    for i, (prefix, groups) in enumerate(terms):
        sign = 1 if i == 0 else joiner
        series = _int_product(groups, order)
        if inverted:
            series = _int_inverse(series)
        for k, c in enumerate(series):
            total[k] += sign * prefix * c
    return total
