"""Reference series arithmetic kept only as test oracles.

These are the Fraction-only loops the library used before its kernels moved
to Python ints: the product expansion seeds a monomial and multiplies by each
binomial factor one pass per unit of power, the inverse and the product of
two series run on Fractions throughout, the two-variable binomial multiply
makes one pass over the whole matrix per unit of power, and a bilateral sum
adds a Fraction series for every term. They are
slow but easy to trust, and they must not change: the differential tests
compare the library against them coefficient for coefficient.
"""
from fractions import Fraction

from sheaf_census.qseries import FormalSeries, ProductFactor

_ZERO = Fraction(0)


def mul_binomial(coeffs, sign, exponent, power=1):
    """coeffs times (1 + sign*x^exponent)^power, |power| passes of one term."""
    vals = list(coeffs)
    n = len(vals) - 1
    for _ in range(abs(power)):
        if power > 0:
            for k in range(n, exponent - 1, -1):
                if vals[k - exponent]:
                    vals[k] += sign * vals[k - exponent]
        else:
            for k in range(exponent, n + 1):
                if vals[k - exponent]:
                    vals[k] -= sign * vals[k - exponent]
    return vals


def prod_series(order, *factors, scalar=1, shift=0):
    families = [ProductFactor(*f) for f in factors]
    series = FormalSeries.monomial(shift, scalar, order)
    coeffs = list(series.coeffs)
    for f in families:
        for exponent in range(f.stride + f.offset, order + 1, f.stride):
            coeffs = mul_binomial(coeffs, f.sign, exponent, f.power)
    return FormalSeries(tuple(coeffs))


def inverse(series):
    coeffs = series.coeffs
    if not coeffs[0]:
        raise ZeroDivisionError("series with zero constant term has no inverse")
    inv0 = 1 / coeffs[0]
    out = [inv0] + [_ZERO] * series.order
    for k in range(1, series.order + 1):
        acc = _ZERO
        for j in range(1, k + 1):
            if coeffs[j]:
                acc += coeffs[j] * out[k - j]
        out[k] = -inv0 * acc
    return FormalSeries(tuple(out))


def product(a, b):
    n = min(a.order, b.order)
    out = [_ZERO] * (n + 1)
    for i in range(n + 1):
        if not a.coeffs[i]:
            continue
        for j in range(n - i + 1):
            if b.coeffs[j]:
                out[i + j] += a.coeffs[i] * b.coeffs[j]
    return FormalSeries(tuple(out))


def bi_mul_binomial(matrix, sign, ue, ve, power=1):
    """matrix times (1 + sign*u^ue*v^ve)^power, |power| passes of one term."""
    out = [row[:] for row in matrix]
    u_order, v_order = len(out) - 1, len(out[0]) - 1
    for _ in range(abs(power)):
        if power > 0:
            for i in range(u_order, ue - 1, -1):
                for j in range(v_order, ve - 1, -1):
                    if out[i - ue][j - ve]:
                        out[i][j] += sign * out[i - ue][j - ve]
        else:
            for i in range(ue, u_order + 1):
                for j in range(ve, v_order + 1):
                    if out[i - ue][j - ve]:
                        out[i][j] -= sign * out[i - ue][j - ve]
    return out


def geometric_alternating(start, step, order):
    """x^start / (1 + x^step) expanded as an alternating geometric series."""
    if start < 1 or step < 1:
        raise ValueError("start and step must be positive for a power-series expansion")
    vals = [_ZERO] * (order + 1)
    k, sign = start, 1
    while k <= order:
        vals[k] += sign
        sign = -sign
        k += step
    return FormalSeries(tuple(vals))


def bilateral_sum(constant_term, pos_term, order):
    """The k=0 term plus twice each series pos_term(k), k = 1 .. order."""
    total = FormalSeries.constant(constant_term, order)
    for k in range(1, order + 1):
        term = pos_term(k)
        total = total + term + term
    return total
