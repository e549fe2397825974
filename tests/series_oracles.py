"""Reference series arithmetic kept only as test oracles.

These are the Fraction-only loops the library used before its kernels moved
to Python ints: the product expansion seeds a monomial and multiplies by each
binomial factor one pass per unit of power, the inverse and the product of
two series run on Fractions throughout, the two-variable binomial multiply
makes one pass over the whole matrix per unit of power (or walks one line of
cells at a time through this module's `mul_binomial`), a bilateral sum
adds a Fraction series for every term, and the two-variable product of the
lemma-n1-2var check builds both its halves and adds them cell by cell. The
trivial-character count formula reads its coefficient off FormalSeries
operations, where the library sums the bases' int coefficients. They are
slow but easy to trust, and they must not change: the differential tests
compare the library against them coefficient for coefficient.
"""
from fractions import Fraction

from sheaf_census import census
from sheaf_census.qseries import FormalSeries

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
    series = FormalSeries.monomial(shift, scalar, order)
    coeffs = list(series.coeffs)
    for sign, stride, offset, power in factors:
        for exponent in range(stride + offset, order + 1, stride):
            coeffs = mul_binomial(coeffs, sign, exponent, power)
    return FormalSeries.from_values(coeffs)


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
    return FormalSeries.from_values(out)


def product(a, b):
    n = min(a.order, b.order)
    a, b = a.coeffs, b.coeffs
    out = [_ZERO] * (n + 1)
    for i in range(n + 1):
        if not a[i]:
            continue
        for j in range(n - i + 1):
            if b[j]:
                out[i + j] += a[i] * b[j]
    return FormalSeries.from_values(out)


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


def bi_mul_binomial_by_lines(matrix, sign, ue, ve, power=1):
    """matrix times (1 + sign*u^ue*v^ve)^power, one line of cells at a time:
    the factor acts independently on each line (i0 + t*ue, j0 + t*ve), t >= 0,
    with i0 < ue or j0 < ve, as (1 + sign*w)^power on a series in w."""
    out = [row[:] for row in matrix]
    u_order, v_order = len(out) - 1, len(out[0]) - 1
    far = u_order + v_order
    for i0 in range(u_order + 1):
        for j0 in range(v_order + 1) if i0 < ue else range(min(ve, v_order + 1)):
            steps = min((u_order - i0) // ue if ue else far,
                        (v_order - j0) // ve if ve else far)
            cells = [(i0 + t * ue, j0 + t * ve) for t in range(steps + 1)]
            line = [out[i][j] for i, j in cells]
            # a line that is zero before its last cell is unchanged
            if any(line[:-1]):
                for (i, j), c in zip(cells, mul_binomial(line, sign, 1, power)):
                    out[i][j] = c
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
    return FormalSeries.from_values(vals)


def bilateral_sum(constant_term, pos_term, order):
    """The k=0 term plus twice each series pos_term(k), k = 1 .. order."""
    total = FormalSeries.from_values([constant_term], order)
    for k in range(1, order + 1):
        term = pos_term(k)
        total = total + term + term
    return total


def two_variable_product(ou, ov):
    """The two-variable product as a matrix to u order ou and v order ov:
    one half with factors (1+u^a v^b)/(1-u^a v^b) at (a, b) = (2m+2, 2m+1)
    and (2m, 2m+1) times 1/(1-u^2m v^2m), plus the half with a and b swapped."""
    reach = range(max(ou, ov) // 2 + 1)
    pairs = [(2 * m + 2, 2 * m + 1) for m in reach] + [(2 * m, 2 * m + 1) for m in reach]
    def half(swap):
        out = [[1 if i == j == 0 else 0 for j in range(ov + 1)] for i in range(ou + 1)]
        for ue, ve in ((ve, ue) for ue, ve in pairs) if swap else pairs:
            if ue <= ou and ve <= ov:
                out = bi_mul_binomial(out, 1, ue, ve, 1)
                out = bi_mul_binomial(out, -1, ue, ve, -1)
        for m in range(1, min(ou, ov) // 2 + 1):
            out = bi_mul_binomial(out, -1, 2 * m, 2 * m, -1)
        return out
    first, second = half(False), half(True)
    return [[a + b for a, b in zip(r, s)] for r, s in zip(first, second)]


def antidiagonal_sums(matrix):
    """The u = v = x specialisation: entry n sums matrix[i][j] over i+j = n,
    for n up to the smaller of the two orders."""
    n = min(len(matrix), len(matrix[0])) - 1
    vals = [0] * (n + 1)
    for i, row in enumerate(matrix):
        for j, c in enumerate(row):
            if i + j <= n:
                vals[i + j] += c
    return vals


def count_formula_k0(p, q):
    """The x^q coefficient of the trivial-character count formula as a Fraction,
    by FormalSeries operations on the bases at order q: scale them, divide by
    1+x^t and multiply by (1+x^t)/(1+x^2t); p < q is swapped first."""
    if p < q:
        p, q = q, p
    t = p - q
    base1, base2, base3 = census._k0_bases(q)
    if t == 0:
        total = base1.scale(Fraction(1, 4)) + base3.scale(Fraction(9, 4))
    else:
        total = base1.scale(Fraction(1, 2)).mul_binomial(1, t, -1)
    rest = base2.scale(Fraction(3, 2))
    if t:
        rest = rest.mul_binomial(1, t, 1).mul_binomial(1, 2 * t, -1)
    return (total + rest).coeff(q)
