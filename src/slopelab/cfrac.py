"""Continued-fraction expansions of rationals, one flavor per function.

Expansions are "positive", r = b0 + 1/(b1 + 1/(... + 1/bl)), produced
by truncation toward zero, so every partial quotient after b0 carries
the sign of the fractional part; ``eval_cfe`` evaluates them.  The
edge-path builders instead read "negative" expansions,
r = b0 - 1/(b1 - 1/(...)), whose prefix values ``partial_evaluations``
lists.  ``negative_cfe`` gives the floor-rounded one, every entry
after b0 at most -2; its prefix values are the vertices of every
edge-path, from b0 to r.

Several consumers need the expansion of the tail to have even length
(an even number of entries after b0); ``even_length_cfe`` pads with a
final +/-1 when necessary.
"""
from __future__ import annotations

from fractions import Fraction


def positive_cfe(r) -> list[int]:
    """Partial quotients [b0, b1, ..., bl] with truncation toward zero.

    The final quotient has magnitude >= 2 except for integer input,
    which yields the single-entry expansion [r].
    """
    r = Fraction(r)
    b0 = int(r)  # truncates toward zero
    out = [b0]
    rem = r - b0
    while rem:
        x = 1 / rem
        b = int(x)
        out.append(b)
        rem = x - b
    return out


def even_length_cfe(r) -> list[int]:
    """Expansion [b0, a1, ..., al] with l even (for non-integer input).

    Rewrites a final quotient b as (b -/+ 1, +/-1) when the tail length
    is odd.  Integers come back as [n] unchanged.
    """
    cf = positive_cfe(r)
    if len(cf) % 2 == 1:  # tail length is even
        return cf
    last = cf[-1]
    if last > 0:
        return cf[:-1] + [last - 1, 1]
    return cf[:-1] + [last + 1, -1]


def eval_cfe(entries) -> Fraction:
    """Evaluate b0 + 1/(b1 + 1/(...)); a zero denominator raises
    ZeroDivisionError."""
    return Fraction(*_continuants(entries, 1)[-1])


def partial_evaluations(entries) -> list[Fraction]:
    """Values of every prefix of b0 - 1/(b1 - 1/(...)), shortest first;
    a prefix with a zero denominator raises ZeroDivisionError."""
    return [Fraction(num, den) for num, den in _continuants(entries, -1)]


def negative_cfe(r) -> list[int]:
    """Entries [b0, b1, ...] of r = b0 - 1/(b1 - 1/(...)), each the floor
    of what is left, so the last prefix value is r itself."""
    r = Fraction(r)
    p, q = r.numerator, r.denominator
    out = []
    while True:
        b, rem = divmod(p, q)  # x = p/q, b = floor(x), rem/q = x - b
        out.append(b)
        if not rem:
            return out
        p, q = -q, rem  # 1/(b - x); the denominator falls every step


def _continuants(entries, sign):
    if not entries:
        raise ValueError("empty continued fraction")
    p_prev, q_prev = 1, 0
    p, q = entries[0], 1
    pairs = [(p, q)]
    for b in entries[1:]:
        p, p_prev = b * p + sign * p_prev, p
        q, q_prev = b * q + sign * q_prev, q
        pairs.append((p, q))
    return pairs


def bracket_sums(cf) -> tuple[int, int, int]:
    """Tail sums of an even-length expansion [cf[0], cf[1], ..., cf[l]].

    Returns (even_sum, odd_sum, total): even_sum adds the cf[j] with j
    even and j >= 4, odd_sum those with j odd and j >= 3.  Expansions
    shorter than four entries give (0, 0, 0).
    """
    even_sum = sum(cf[4::2])
    odd_sum = sum(cf[3::2])
    return even_sum, odd_sum, even_sum + odd_sum
