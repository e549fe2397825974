"""Truncated formal power series over exact rationals.

Everything here is exact: coefficients are Fractions, binary operations
truncate to the smaller order, and infinite products are expanded factor by
factor with early exit once a factor's lowest exponent passes the order.
Products of factors, inverses, products of two series and bilateral sums
are computed over Python ints (denominators cleared first) and converted to
one Fraction per coefficient at the end. The two-variable BiSeries (ints when
new) offers `one`, `coeff` and `mul_binomial`; callers sum its cells.

The module also owns the text grammar for product expressions used by the
command line (`parse_series_expr`).
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from operator import mul
from typing import Callable, Iterable

DEFAULT_ORDER = 40

_ZERO = Fraction(0)


@dataclass(frozen=True)
class FormalSeries:
    """A power series known exactly for exponents 0..order.

    Stored densely: coeffs[k] is the coefficient of x^k and len(coeffs) is
    order+1.
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a series needs at least its constant term")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def from_values(values: Iterable, order: int | None = None) -> FormalSeries:
        vals = [Fraction(v) for v in values]
        if order is not None:
            vals = (vals + [_ZERO] * (order + 1))[: order + 1]
        return FormalSeries(tuple(vals))

    @staticmethod
    def monomial(exponent: int, coefficient=1, order: int = DEFAULT_ORDER) -> FormalSeries:
        if exponent < 0:
            raise ValueError("negative exponents are not representable")
        vals = [_ZERO] * (order + 1)
        if exponent <= order:
            vals[exponent] = Fraction(coefficient)
        return FormalSeries(tuple(vals))

    def coeff(self, k: int) -> Fraction:
        if k < 0:
            return _ZERO
        if k > self.order:
            raise ValueError(f"exponent {k} beyond truncation order {self.order}")
        return self.coeffs[k]

    def __add__(self, other: FormalSeries) -> FormalSeries:
        n = min(self.order, other.order)
        return FormalSeries(tuple(self.coeffs[k] + other.coeffs[k] for k in range(n + 1)))

    def __sub__(self, other: FormalSeries) -> FormalSeries:
        n = min(self.order, other.order)
        return FormalSeries(tuple(self.coeffs[k] - other.coeffs[k] for k in range(n + 1)))

    def __mul__(self, other: FormalSeries) -> FormalSeries:
        n = min(self.order, other.order)
        da, a = _cleared(self.coeffs[: n + 1])
        db, b = _cleared(other.coeffs[: n + 1])
        den = da * db
        return FormalSeries(tuple(Fraction(sum(map(mul, a[: k + 1], b[k::-1])), den)
                                  for k in range(n + 1)))

    def scale(self, scalar) -> FormalSeries:
        s = Fraction(scalar)
        return FormalSeries(tuple(c * s for c in self.coeffs))

    def inverse(self) -> FormalSeries:
        if not self.coeffs[0]:
            raise ZeroDivisionError("series with zero constant term has no inverse")
        # with den*self = ints and c0 = ints[0], the inverse is m_k*den/c0^(k+1)
        # where m_0 = 1 and m_k = -sum_{j>=1} ints_j*c0^(j-1)*m_(k-j)
        den, ints = _cleared(self.coeffs)
        c0 = ints[0]
        w = [a * c0 ** j for j, a in enumerate(ints[1:])]
        m = [1]
        for k in range(1, self.order + 1):
            m.append(-sum(map(mul, w[k - 1::-1], m)))
        return FormalSeries(tuple(Fraction(mk * den, c0 ** (k + 1)) for k, mk in enumerate(m)))

    def mul_binomial(self, sign: int, exponent: int, power: int = 1) -> FormalSeries:
        """Multiply by (1 + sign*x^exponent)^power; power may be negative."""
        if exponent < 1:
            raise ValueError("binomial factors need exponent >= 1")
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        vals = list(self.coeffs)
        _mul_binomial(vals, sign, exponent, power)
        return FormalSeries(tuple(vals))

    def __str__(self) -> str:
        chunks = []
        for k, c in enumerate(self.coeffs):
            if c:
                chunks.append(f"{c}*x^{k}" if k else f"{c}")
        body = " + ".join(chunks) if chunks else "0"
        return f"{body} + O(x^{self.order + 1})"


def _cleared(coeffs) -> tuple[int, list[int]]:
    """A common denominator of the rationals coeffs, and their numerators over it."""
    den = lcm(*(c.denominator for c in coeffs))
    return den, [c.numerator * (den // c.denominator) for c in coeffs]


def _mul_binomial(vals: list, sign: int, exponent: int, power: int) -> None:
    """Multiply the coefficient list vals in place by (1 + sign*x^exponent)^power,
    truncated to its length; the cost is bounded by the order, not by power."""
    n, m = len(vals) - 1, abs(power)
    # the binomial terms C(m, j)*sign^j*x^(j*exponent) that fall within the order
    terms = [(j * exponent, comb(m, j) * sign ** j) for j in range(1, min(m, n // exponent) + 1)]
    if power < 0:
        # divide: ascending, so vals[k - shift] already holds the quotient
        for k in range(exponent, n + 1):
            acc = 0
            for shift, c in terms:
                if shift > k:
                    break
                acc += c * vals[k - shift]
            vals[k] -= acc
    else:
        # multiply: add each shifted term of the input, read from a copy
        src = vals[:]
        for shift, c in terms:
            vals[shift:] = [v + c * u for v, u in zip(vals[shift:], src)]


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
    vals = [1] + [0] * order
    for sign, stride, offset, power in factors:
        for exponent in range(stride + offset, order + 1, stride):
            _mul_binomial(vals, sign, exponent, power)
    s = Fraction(scalar)
    vals = ([0] * shift + [v * s.numerator for v in vals])[: order + 1]
    return FormalSeries(tuple(Fraction(v, s.denominator) for v in vals))


def bilateral_sum(constant_term, terms: Callable[[int], Iterable[tuple[int, int]]],
                  order: int = DEFAULT_ORDER) -> FormalSeries:
    """Bilateral sum symmetric under k -> -k: the k=0 term plus twice each
    k>=1 term, the sum of x^start/(1+x^step) over the (start, step) pairs
    of terms(k), each expanded as an alternating geometric series."""
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    vals = [0] * (order + 1)
    # term k has valuation >= k in every family used here, so indices past
    # the truncation order contribute nothing
    for k in range(1, order + 1):
        for start, step in terms(k):
            if start < 1 or step < 1:
                raise ValueError("start and step must be positive for a power-series expansion")
            vals[start::2 * step] = [v + 2 for v in vals[start::2 * step]]
            vals[start + step::2 * step] = [v - 2 for v in vals[start + step::2 * step]]
    return FormalSeries((Fraction(constant_term), *map(Fraction, vals[1:])))


class BiSeries:
    """A truncated series in two variables u, v with exact coefficients.

    Coefficients are held in a dense matrix indexed [i][j] for u^i v^j,
    truncated independently in each variable; a new series holds ints, and
    the kernel keeps whatever exact numbers a given matrix holds.
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
        Requires ue+ve >= 1. The factor acts independently on each line of
        cells (i0 + t*ue, j0 + t*ve), t >= 0, with i0 < ue or j0 < ve, as
        (1 + sign*w)^power on a series in w."""
        if ue < 0 or ve < 0 or ue + ve < 1:
            raise ValueError("factor exponents must be nonnegative with positive total")
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        out = [row[:] for row in self.m]
        far = self.u_order + self.v_order
        for i0 in range(self.u_order + 1):
            for j0 in range(self.v_order + 1) if i0 < ue else range(min(ve, self.v_order + 1)):
                steps = min((self.u_order - i0) // ue if ue else far,
                            (self.v_order - j0) // ve if ve else far)
                cells = [(i0 + t * ue, j0 + t * ve) for t in range(steps + 1)]
                line = [out[i][j] for i, j in cells]
                # a line that is zero before its last cell is unchanged
                if any(line[:-1]):
                    _mul_binomial(line, sign, 1, power)
                    for (i, j), c in zip(cells, line):
                        out[i][j] = c
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
        if self.i >= len(self.toks):
            raise SeriesParseError("unexpected end of expression", self.text, len(self.text))
        tok = self.toks[self.i][0]
        self.i += 1
        return tok

    def expect(self, what: str) -> str:
        if self.peek() != what:
            raise self.error(f"expected '{what}'")
        return self.next()

    def error(self, message: str) -> SeriesParseError:
        """A parse error with its caret at the next token, or at the end."""
        pos = self.toks[self.i][1] if self.i < len(self.toks) else len(self.text)
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
        num = int(self.next())
        if self.peek() == "/":
            self.next()
            den = int(self.next())
            if den == 0:
                raise self.error("zero denominator")
            return Fraction(num, den)
        return Fraction(num)

    def _at_factor_start(self) -> bool:
        return self.peek() in ("prod", "inv", "x", "(")

    def _at_prod_group(self) -> bool:
        return (self.peek() == "(" and self.peek(1) == "1"
                and self.peek(2) in ("+", "-") and self.peek(3) == "x")

    def factor(self) -> FormalSeries:
        tok = self.peek()
        if tok == "prod":
            self.next()
            if not self._at_prod_group():
                raise self.error("expected '(1+x^{...})' after prod")
            factors = []
            while self._at_prod_group():
                factors.append(self._prod_group())
            return prod_series(self.order, *factors)
        if tok == "inv":
            self.next()
            self.expect("(")
            inner = self.expr()
            self.expect(")")
            if not inner.coeffs[0]:
                raise self.error("inv() of a series with zero constant term")
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

    def _prod_group(self) -> tuple[int, int, int, int]:
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
            raise self.error("product factor must have lowest exponent >= 1")
        return sign, stride, offset, power

    def _int(self) -> int:
        tok = self.peek()
        if not (tok or "").isdigit():
            raise self.error("expected an integer")
        return int(self.next())


def parse_series_expr(text: str, order: int = DEFAULT_ORDER) -> FormalSeries:
    """Parse and evaluate a series expression at the given truncation order."""
    return _Parser(text, order).parse()
