"""Truncated formal power series over exact rationals.

Everything here is exact: a series is stored as int numerators over one
reduced denominator and read back as Fractions, binary operations truncate
to the smaller order, and infinite products are expanded factor by factor
with early exit once a factor's lowest exponent passes the order. Every
operation (sums, products, scaling, inverses, products of factors and
bilateral sums) works on the int numerators and builds no Fraction.

`prod_series` expands a product on one packed int v = sum c_k*2^(k*B) mod
2^((order+1)*B) (Kronecker substitution). As x -> 2^B is a ring map from
Z[x]/(x^(order+1)) to that ring, `_expand` multiplies by a factor
(1 + sign*x^e)^P: a multiply by 1 + sign*x^e is one exact shift-and-add
v +- (v << e*B), a divide multiplies by 1 - sign*x^e and by each
1 + x^(e*2^i) up to the order (1/(1-z) = prod 1 + z^(2^i)), and a power past
the order's reach multiplies once by the truncated binomial series. Only the
final coefficients must fit a digit, so B comes from a bound on them (`_width`
for a product, the input's size times the largest binomial term for
`FormalSeries.mul_binomial`), and one biased to_bytes pass reads them back.
BiSeries (ints when new) offers `one`, `coeff` and `mul_binomial`; callers sum
its cells.

The module also owns the text grammar for product expressions used by the
command line (`parse_series_expr`). `inv()` of exactly one product is that
product with its powers negated, so it never takes the generic inverse.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import ceil, comb, exp, expm1, gcd, inf, lcm, log, log1p, pi, sqrt
from operator import add, mul, sub
from typing import Callable, Iterable

DEFAULT_ORDER = 40


def _check_order(order: int) -> None:
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")


@dataclass(frozen=True)
class FormalSeries:
    """A power series known exactly for exponents 0..order: the coefficient of
    x^k is nums[k]/den, and len(nums) is order+1. The constructor reduces the
    fraction (den >= 1, gcd(den, *nums) == 1), so equal series are equal values
    with equal hashes."""

    nums: tuple[int, ...]
    den: int = 1

    def __post_init__(self) -> None:
        if not self.nums:
            raise ValueError("a series needs at least its constant term")
        if not self.den:
            raise ZeroDivisionError("a series needs a nonzero denominator")
        g = gcd(self.den, *self.nums)  # refuses a non-int with a TypeError
        if self.den < 0:
            g = -g
        if g != 1:
            object.__setattr__(self, "nums", tuple(v // g for v in self.nums))
            object.__setattr__(self, "den", self.den // g)

    @property
    def order(self) -> int:
        return len(self.nums) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Every coefficient as a Fraction, built on each read; a loop reads coeff(k)."""
        return tuple(Fraction(v, self.den) for v in self.nums)

    @staticmethod
    def from_values(values: Iterable, order: int | None = None) -> FormalSeries:
        vals = [Fraction(v) for v in values]
        den = lcm(*(v.denominator for v in vals))
        nums = [v.numerator * (den // v.denominator) for v in vals]
        if order is not None:
            _check_order(order)
            nums = (nums + [0] * (order + 1))[: order + 1]
        return FormalSeries(tuple(nums), den)

    @staticmethod
    def monomial(exponent: int, coefficient=1, order: int = DEFAULT_ORDER) -> FormalSeries:
        if exponent < 0:
            raise ValueError("negative exponents are not representable")
        return FormalSeries.from_values([0] * min(exponent, order + 1) + [coefficient], order)

    def coeff(self, k: int) -> Fraction:
        if k < 0:
            return Fraction(0)
        if k > self.order:
            raise ValueError(f"exponent {k} beyond truncation order {self.order}")
        return Fraction(self.nums[k], self.den)

    def __add__(self, other: FormalSeries) -> FormalSeries:
        return self._termwise(add, other)

    def __sub__(self, other: FormalSeries) -> FormalSeries:
        return self._termwise(sub, other)

    def _termwise(self, op, other: FormalSeries) -> FormalSeries:
        """op of the two series' numerators over their least common denominator."""
        n = min(self.order, other.order) + 1
        den = lcm(self.den, other.den)
        a, b = (map(mul, s.nums[:n], repeat(den // s.den)) for s in (self, other))
        return FormalSeries(tuple(map(op, a, b)), den)

    def __mul__(self, other: FormalSeries) -> FormalSeries:
        n = min(self.order, other.order)
        a, b = self.nums[: n + 1], other.nums[: n + 1]
        return FormalSeries(tuple(sum(map(mul, a[: k + 1], b[k::-1])) for k in range(n + 1)),
                            self.den * other.den)

    def scale(self, scalar) -> FormalSeries:
        s = Fraction(scalar)
        return FormalSeries(tuple(map(mul, self.nums, repeat(s.numerator))),
                            self.den * s.denominator)

    def inverse(self) -> FormalSeries:
        a, c0, n = self.nums, self.nums[0], self.order
        if not c0:
            raise ZeroDivisionError("series with zero constant term has no inverse")
        # over the denominator c0^(n+1), the numerators q of 1/a have q_0 = c0^n
        # and c0*q_k = -sum_{j>=1} a_j*q_(k-j), which c0 divides exactly
        q = [c0 ** n]
        for k in range(1, n + 1):
            q.append(-sum(map(mul, a[k:0:-1], q)) // c0)
        return FormalSeries(tuple(v * self.den for v in q), c0 * q[0])

    def mul_binomial(self, sign: int, exponent: int, power: int = 1) -> FormalSeries:
        """Multiply by (1 + sign*x^exponent)^power; power may be negative."""
        if exponent < 1:
            raise ValueError("binomial factors need exponent >= 1")
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        m, reach = abs(power), self.order // exponent
        big = comb(m, min(reach, m // 2)) if power > 0 else comb(m + reach, reach)
        # each product coefficient sums distinct input numerators, each times one
        # binomial term of at most big: that bound's bits and a sign bit
        width = ((sum(map(abs, self.nums)) * big).bit_length() + 8) // 8 * 8
        vals = _expand(self.nums, self.order, width, [(sign, [exponent], power)])
        return FormalSeries(tuple(vals), self.den)

    def __str__(self) -> str:
        terms = [f"{c}*x^{k}" if k else f"{c}" for k, c in enumerate(self.coeffs) if c]
        return f"{' + '.join(terms) or '0'} + O(x^{self.order + 1})"


def _width(order: int, factors) -> int:
    """Bits per packed coefficient of prod_series, in whole bytes: 3 past
    log2 of a Cauchy bound M(r)*r^-order on every |c_k|, r = e^-t, where the
    majorant M, the product of (1+x^e)^P over P > 0 and (1-x^e)^P over P < 0,
    has nonnegative coefficients dominating |c_k|. A family of lowest
    exponent e and stride d adds |P| times a bound on sum_s f(t*(e+d*s)) to
    log M(r), f(u) = log(1+e^-u), or -log(1-e^-u) for P < 0: the smaller of
    (1 - e/d)*f(t*e) + I/(d*t), I the integral of the decreasing f, and the
    geometric tail of f(u) <= e^-u, or e^-u/(1-e^-u). t is the minimiser of
    a/t + order*t (a sums the |P|*I/d), or, for large powers, where their
    total times r^e for the least e falls to the order."""
    # a stride past the order is cut to order+1, keeping the one exponent <= order
    live = [(min(d, order + 1), d + o, p) for _, d, o, p in factors if p and d + o <= order]
    n = max(order, 1)
    a = sum(min(abs(p), 1e300) * pi * pi / (12 if p > 0 else 6) / d for d, _, p in live)
    low = min((e for _, e, _ in live), default=1)
    mass = sum(abs(p) for *_, p in live) * low
    best = inf
    for t in (sqrt(a / n), (log(mass) - log(n)) / low) if mass > n else (sqrt(a / n),):
        nats = order * t
        for d, e, p in live:
            tail = -e * t - log(-expm1(-d * t))  # log r^e/(1 - r^d)
            if p > 0:
                head = (1 - e / d) * log1p(exp(-e * t)) + pi * pi / (12 * d * t)
            else:
                f = -log(-expm1(-e * t))  # -log(1 - r^e)
                head, tail = (1 - e / d) * f + pi * pi / (6 * d * t), tail + f
            # in logs, so that neither a huge power nor a vanishing tail overflows
            nats += exp(log(abs(p)) + min(log(head), tail))
        best = min(best, nats)
    return (ceil(best / log(2)) + 10) // 8 * 8


def prod_series(order: int, *factors: tuple[int, int, int, int],
                scalar=1, shift: int = 0) -> FormalSeries:
    """Expand scalar * x^shift times, for each (sign, stride, offset, power)
    factor, prod_{s>=1} (1 + sign*x^(stride*s+offset))^power to the order."""
    for sign, stride, offset, _ in factors:
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if stride < 1:
            raise ValueError("stride must be positive")
        if stride + offset < 1:
            raise ValueError("lowest factor exponent must be >= 1")
    if shift < 0:
        raise ValueError("negative exponents are not representable")
    _check_order(order)
    vals = _expand([1], order, _width(order, factors),
                   [(sign, range(stride + offset, order + 1, stride), power)
                    for sign, stride, offset, power in factors])
    return FormalSeries(tuple(([0] * shift + vals)[: order + 1])).scale(scalar)


def _expand(nums, order: int, width: int, factors) -> list[int]:
    """The ints nums, zero-padded to order + 1, times (1 + sign*x^e)^power for
    each (sign, exponents, power) of factors and e of exponents, on one packed
    int of width-bit digits (module docstring). Only nums and the product's
    digits must lie in [-2^(width-1), 2^(width-1)); a factor's cost is bounded
    by the order."""
    nbytes, half = width // 8, 1 << (width - 1)
    mask = (1 << (order + 1) * width) - 1  # refuses an order no int can hold
    # half in every digit, so that each packed or read byte group is c_k + half in [0, 2^B)
    half_digit = bytes(nbytes - 1) + b"\x80"
    bias = int.from_bytes(half_digit * (order + 1), "little")
    v = (int.from_bytes(b"".join((c + half).to_bytes(nbytes, "little") for c in nums), "little")
         - int.from_bytes(half_digit * len(nums), "little"))
    for sign, exponents, power in factors:
        m = abs(power)
        for exponent in exponents:
            reach = order // exponent
            if m > reach:
                # one pass of the binomial series, its terms x^(j*exponent) to the order
                terms = (comb(m, j) * sign ** j if power > 0 else comb(m + j - 1, j) * (-sign) ** j
                         for j in range(reach + 1))
                v = sum(c * v << j * exponent * width for j, c in enumerate(terms)) & mask
                continue
            # a divide by 1 - z, z = -sign*x^exponent, multiplies by 1 + z and
            # by each 1 + z^(2^i) = 1 + x^(exponent*2^i) of exponent <= order
            op = add if (sign > 0) == (power > 0) else sub
            doubling = [] if power > 0 else range(1, reach.bit_length())
            for _ in range(m):
                v = op(v, v << exponent * width) & mask
                for i in doubling:
                    v = (v + (v << (exponent * width << i))) & mask
    raw = ((v + bias) & mask).to_bytes((order + 1) * nbytes, "little")
    return [int.from_bytes(raw[i:i + nbytes], "little") - half
            for i in range(0, len(raw), nbytes)]


def bilateral_sum(constant_term, terms: Callable[[int], Iterable[tuple[int, int]]],
                  order: int = DEFAULT_ORDER) -> FormalSeries:
    """Bilateral sum symmetric under k -> -k: the k=0 term plus twice each
    k>=1 term, the sum of x^start/(1+x^step) over the (start, step) pairs
    of terms(k), each expanded as an alternating geometric series."""
    _check_order(order)
    vals = [0] * (order + 1)
    # term k has valuation >= k in every family used here, so indices past
    # the truncation order contribute nothing
    for k in range(1, order + 1):
        for start, step in terms(k):
            if start < 1 or step < 1:
                raise ValueError("start and step must be positive for a power-series expansion")
            vals[start::2 * step] = [v + 2 for v in vals[start::2 * step]]
            vals[start + step::2 * step] = [v - 2 for v in vals[start + step::2 * step]]
    return FormalSeries(tuple(vals)) + FormalSeries.monomial(0, constant_term, order)


class BiSeries:
    """A truncated series in two variables u, v with exact coefficients.

    Coefficients are held in a dense matrix indexed [i][j] for u^i v^j,
    truncated independently in each variable, with no common denominator: a
    new series holds ints, and a given matrix of Fractions keeps them cell by cell.
    """

    __slots__ = ("u_order", "v_order", "m")

    def __init__(self, u_order: int, v_order: int, matrix=None):
        if u_order < 0 or v_order < 0:
            raise ValueError(f"orders must be nonnegative, got ({u_order}, {v_order})")
        self.u_order = u_order
        self.v_order = v_order
        if matrix is None:
            matrix = [[0] * (v_order + 1) for _ in range(u_order + 1)]
        self.m = matrix

    @staticmethod
    def one(u_order: int, v_order: int) -> BiSeries:
        s = BiSeries(u_order, v_order)
        s.m[0][0] = 1
        return s

    def coeff(self, i: int, j: int) -> int | Fraction:
        if i > self.u_order or j > self.v_order:
            raise ValueError("exponent beyond truncation order")
        return self.m[i][j] if i >= 0 and j >= 0 else 0

    def mul_binomial(self, sign: int, ue: int, ve: int, power: int = 1) -> BiSeries:
        """Multiply by (1 + sign*u^ue*v^ve)^power; power may be negative.
        Requires ue+ve >= 1. The factor is swept over rows: each binomial
        term c*u^(t*ue)*v^(t*ve) within both orders adds c times row
        i - t*ue, shifted t*ve along, to row i. Multiplying walks from the
        last row back (earlier rows still hold the input); dividing walks
        from the first (earlier rows already hold the quotient). A pure-v
        factor (ue == 0) sweeps the transpose as the pure-u factor (ve, 0)."""
        if ue < 0 or ve < 0 or ue + ve < 1:
            raise ValueError("factor exponents must be nonnegative with positive total")
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if ue == 0:
            transpose = BiSeries(self.v_order, self.u_order, [list(c) for c in zip(*self.m)])
            transpose = transpose.mul_binomial(sign, ve, 0, power)
            return BiSeries(self.u_order, self.v_order, [list(c) for c in zip(*transpose.m)])
        out = [row[:] for row in self.m]
        m = abs(power)
        reach = min(m, self.u_order // ue, self.v_order // ve if ve else m)
        # dividing subtracts each term of the quotient instead of adding the input's
        terms = [(t * ue, t * ve, comb(m, t) * sign ** t * (1 if power > 0 else -1))
                 for t in range(1, reach + 1)]
        for i in range(self.u_order, -1, -1) if power > 0 else range(self.u_order + 1):
            row = out[i]
            for du, dv, c in terms:
                if du > i:
                    break
                below = out[i - du] if c in (1, -1) else map(mul, repeat(c), out[i - du])
                row[dv:] = map(sub if c == -1 else add, row[dv:], below)
        return BiSeries(self.u_order, self.v_order, out)


# ---------------------------------------------------------------------------
# Text grammar for series expressions (used by the CLI `series` command).
#
#   EXPR     := TERM { ('+'|'-') TERM }
#   TERM     := [RATIONAL '*'] FACTOR { FACTOR }
#   FACTOR   := 'prod' GROUP { GROUP } | 'x^' INT | '(' EXPR ')' | 'inv' '(' EXPR ')'
#   GROUP    := '(' '1' ('+'|'-') 'x^{' LIN '}' ')' [ '^' INT ]
#   LIN      := INT 's' [ ('+'|'-') INT ]
#   RATIONAL := INT [ '/' INT ]
# ---------------------------------------------------------------------------

class SeriesParseError(ValueError):
    """Parse failure with enough context for caret diagnostics."""

    def __init__(self, message: str, text: str, pos: int):
        super().__init__(message)
        self.message = message
        self.text = text
        self.pos = pos

    def diagnostic(self) -> str:
        caret = " " * self.pos + "^"
        return f"{self.message}\n  {self.text}\n  {caret}"


_TOKEN_RE = re.compile(r"\s*(prod|inv|\d+|[()+\-*/^{}sx])")


class _Parser:
    def __init__(self, text: str, order: int):
        self.text = text
        self.order = order
        self.toks: list[tuple[str, int]] = []  # (token, its position in text)
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m:
                stripped = len(text[pos:]) - len(text[pos:].lstrip())
                raise SeriesParseError("unexpected character", text, pos + stripped)
            self.toks.append((m.group(1), m.start(1)))
            pos = m.end()
        self.i = 0

    def peek(self, ahead: int = 0) -> str | None:
        j = self.i + ahead
        return self.toks[j][0] if j < len(self.toks) else None

    def next(self) -> str:
        """Consume the next token; every caller has peeked it first."""
        tok = self.toks[self.i][0]
        self.i += 1
        return tok

    def expect(self, what: str) -> str:
        if self.peek() != what:
            raise self.error(f"expected '{what}'")
        return self.next()

    def error(self, message: str, at: int | None = None) -> SeriesParseError:
        """A parse error with its caret at token at (the next by default), or at the end."""
        at = self.i if at is None else at
        pos = self.toks[at][1] if at < len(self.toks) else len(self.text)
        return SeriesParseError(message, self.text, pos)

    def parse(self) -> FormalSeries:
        series = self.expr()
        if self.peek() is not None:
            raise self.error("trailing input after expression")
        return series

    def expr(self) -> FormalSeries:
        series = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()
            rhs = self.term()
            series = series + rhs if op == "+" else series - rhs
        return series

    def term(self) -> FormalSeries:
        scalar = Fraction(1)
        if self._at_rational_prefix():
            scalar = self._rational()
            self.expect("*")
        series = self.factor()
        while self._at_factor_start():
            series = series * self.factor()
        return series.scale(scalar)

    def _at_rational_prefix(self) -> bool:
        if not (self.peek() or "").isdigit():
            return False
        # a number is a scalar prefix only when followed by '*' or '/INT*'
        if self.peek(1) == "*":
            return True
        return self.peek(1) == "/" and (self.peek(2) or "").isdigit() and self.peek(3) == "*"

    def _rational(self) -> Fraction:
        num, den = int(self.next()), 1
        if self.peek() == "/":
            self.next()
            den = int(self.next())
            if den == 0:
                raise self.error("zero denominator", self.i - 1)
        return Fraction(num, den)

    def _at_factor_start(self) -> bool:
        return self.peek() in ("prod", "inv", "x", "(")

    def _at_prod_group(self) -> bool:
        return (self.peek() == "(" and self.peek(1) == "1"
                and self.peek(2) in ("+", "-") and self.peek(3) == "x")

    def factor(self) -> FormalSeries:
        """One factor. inv() of exactly one prod and its groups expands the
        groups with negated powers; any other inv() inverts its series."""
        tok = self.peek()
        if tok == "prod":
            return prod_series(self.order, *self._prod_groups())
        if tok == "inv":
            at = self.i  # the 'inv', where a non-unit series is reported
            self.next()
            self.expect("(")
            start = self.i
            if self.peek() == "prod":
                factors = self._prod_groups()
                if self.peek() == ")":
                    self.next()
                    return prod_series(self.order, *((s, st, o, -p) for s, st, o, p in factors))
                self.i = start  # more follows the product: parse the contents as an expression
            inner = self.expr()
            self.expect(")")
            if not inner.nums[0]:
                raise self.error("inv() of a series with zero constant term", at)
            return inner.inverse()
        if tok == "x":
            self.next()
            self.expect("^")
            exp = self._int()
            return FormalSeries.monomial(exp, 1, self.order)
        if tok == "(":
            self.next()
            inner = self.expr()
            self.expect(")")
            return inner
        raise self.error("expected a factor")

    def _prod_groups(self) -> list[tuple[int, int, int, int]]:
        self.next()  # the 'prod'
        if not self._at_prod_group():
            raise self.error("expected '(1+x^{...})' after prod")
        factors = []
        while self._at_prod_group():
            factors.append(self._prod_group())
        return factors

    def _prod_group(self) -> tuple[int, int, int, int]:
        at = self.i  # the group's '(', where a bad lowest exponent is reported
        self.expect("(")
        self.expect("1")
        sign = 1 if self.next() == "+" else -1
        self.expect("x")
        self.expect("^")
        self.expect("{")
        stride = self._int()
        self.expect("s")
        offset = 0
        if self.peek() in ("+", "-"):
            op = self.next()
            off = self._int()
            offset = off if op == "+" else -off
        self.expect("}")
        self.expect(")")
        power = 1
        if self.peek() == "^":
            self.next()
            power = self._int()
        if stride < 1 or stride + offset < 1:
            raise self.error("product factor must have lowest exponent >= 1", at)
        return sign, stride, offset, power

    def _int(self) -> int:
        tok = self.peek()
        if not (tok or "").isdigit():
            raise self.error("expected an integer")
        return int(self.next())


def parse_series_expr(text: str, order: int = DEFAULT_ORDER) -> FormalSeries:
    """Parse and evaluate a series expression at the given truncation order."""
    return _Parser(text, order).parse()
