"""Sparse Laurent polynomials in one variable v with integer coefficients.

The zero polynomial has no degree: ``degree()`` and ``min_degree()``
raise ``ValueError`` on it, and callers test for zero first.
"""
from __future__ import annotations

from math import gcd

ONE = {0: 1}  # raw form of 1


def addmul(acc: dict, a: dict, b: dict = ONE) -> None:
    """acc += a * b on raw {exponent: coeff} dicts, in place; zero entries
    stay for the caller to drop.  The shorter factor runs in the outer
    loop, so a plain add (b = ONE) or a shift costs one pass over a."""
    if len(b) > len(a):
        a, b = b, a
    get = acc.get
    for e2, c2 in b.items():
        for e1, c1 in a.items():
            e = e1 + e2
            acc[e] = get(e, 0) + c1 * c2


def _raw(x) -> dict:
    """The raw coefficient dict of a LaurentPoly or an int."""
    return {0: x} if isinstance(x, int) else x.coeffs


def _nonzero(raw: dict) -> LaurentPoly:
    """Wrap a raw dict, dropping its zero coefficients."""
    return LaurentPoly.wrap({e: c for e, c in raw.items() if c})


class LaurentPoly:
    """Integer Laurent polynomial, stored as {exponent: nonzero coeff}."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        data = {}
        if coeffs:
            for e, c in coeffs.items():
                if c:
                    if int(e) != e or int(c) != c:
                        raise ValueError(f"non-integer term {c!r} v^{e!r}")
                    data[int(e)] = int(c)
        self.coeffs = data

    @classmethod
    def wrap(cls, coeffs):
        """Take a dict of non-zero coefficients as it is, without a copy."""
        res = cls.__new__(cls)
        res.coeffs = coeffs
        return res

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def term(cls, coeff, exp=0):
        """The monomial coeff * v^exp."""
        return cls({exp: coeff})

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        if self.coeffs.keys() <= {0}:  # a constant hashes as its int
            return hash(self.coeffs.get(0, 0))
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        out = dict(self.coeffs)
        addmul(out, _raw(other))
        return _nonzero(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly.wrap({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        out = {}
        addmul(out, self.coeffs, _raw(other))
        return _nonzero(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers are not defined here")
        result, base = None, self  # no product with one, no square past the top bit
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return LaurentPoly.one() if result is None else result

    def shift(self, k):
        """Multiply by v^k."""
        return LaurentPoly.wrap({e + k: c for e, c in self.coeffs.items()})

    def degree(self):
        return max(self.coeffs)

    def min_degree(self):
        return min(self.coeffs)

    def exact_div(self, other):
        """Divide by ``other`` in one pass from the top, raising ArithmeticError unless exact."""
        if not other:
            raise ZeroDivisionError("division by zero polynomial")
        if not self:
            return LaurentPoly.zero()
        top, dtop = self.degree(), other.degree()
        dlead = other.coeffs[dtop]
        lower = [(d - dtop, a) for d, a in other.coeffs.items() if d != dtop]
        # the remainder keeps the top's class mod the gcd of all exponent differences
        step = gcd(*(e - top for e in self.coeffs), *(d for d, _ in lower)) or 1
        rem = dict(self.coeffs)
        get, quot = rem.get, {}
        for e in range(top, self.min_degree() - other.min_degree() + dtop - 1, -step):
            c = rem.pop(e, 0)  # the remainder's top coefficient, or 0
            if c:
                c, r = divmod(c, dlead)
                if r:
                    raise ArithmeticError("division is not exact")
                quot[e - dtop] = c
                for d, a in lower:  # rem -= c v^(e - dtop) other, its top popped
                    rem[e + d] = get(e + d, 0) - c * a
        if any(rem.values()):
            raise ArithmeticError("division is not exact")
        return LaurentPoly.wrap(quot)

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"LaurentPoly({self.coeffs!r})"


def format_poly(p: LaurentPoly) -> str:
    """Render like "v^18 - v^10 - v^6 - v^2", highest exponent first."""
    if not p:
        return "0"
    parts = []
    for e in sorted(p.coeffs, reverse=True):
        c = p.coeffs[e]
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            var = "v" if e == 1 else f"v^{e}"
            body = var if mag == 1 else f"{mag}*{var}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text

