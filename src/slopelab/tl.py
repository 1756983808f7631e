"""Exact skein evaluation in the Temperley-Lieb algebra.

Elements live on a disk with boundary points numbered counterclockwise:
for an element with a inputs and b outputs, points 0..a-1 run left to
right along the bottom and points a..a+b-1 right to left along the top.
A planar matching is stored as a partner tuple (partner[i] = j).  An
element is a dict from matchings to Laurent-polynomial coefficients; a
closed loop created while gluing contributes the loop value
delta = -v^-2 - v^2.  Because the top is numbered right to left, stacking
a (b, c) element on an (a, b) one joins top point p of the lower element
to bottom point a + b - 1 - p of the upper one, and the same expression
maps back.

A product stacks every term of the upper element on every term of the
lower one.  For each term of the element with fewer terms, the other
element's coefficients are summed per (output matching, loop count),
scaled by the loop power (narrow: loops + 1 monomials) once per key and
summed per output matching; each non-zero sum is then multiplied by that
term's coefficient once.  So the wide coefficient products number one
per (term of the smaller element, output matching), not one per pair of
terms.  The closure likewise sums coefficients per loop count before
multiplying by the loop power.  All of them accumulate in place in raw
{exponent: coeff} dicts and wrap each surviving coefficient into a
LaurentPoly once, at the end.

Tangles are evaluated in the same boxed form the diagram builder uses:
a crossing box is a width-2n braid block crossing two n-strand bundles,
a word in the braid generators v^k 1 + v^-k e_i = v^k (1 + v^-2k e_i).
Stacking one generator on an element rewrites each matching in place (a
swap of partners, or one loop), so a crossing costs time linear in the
number of terms: the identity smoothing keeps each coefficient, only the
e_i targets accumulate, and a run of blocks carries one v^k shift.  A
horizontal run stacks blocks on top; a vertical run does the same on
the tangle turned a quarter turn, then turns it back.

The cable of a knot carries a Jones-Wenzl projector on each of its two
bottom bundles: the cable is one band, so a projector slides along it,
and two give the same bracket as one because a projector is idempotent.
The running element is built bottom to top without them.  A term with
a cup inside either bottom bundle is killed by the projectors, and
stacking on top never removes a bottom cup, so the kernels skip such
terms before any coefficient work (their cable argument).  The closure
is one cached trace per surviving matching m, the closure of the two
projectors stacked under m, so no projector product is formed per
knot.  The crossing smoothing weights are fixed by the same chirality
convention as the diagrams, ``diagrams.over_diagonal`` (see ``KAPPA``
and the tests).
"""
from __future__ import annotations

from functools import lru_cache

from .diagrams import over_diagonal
from .errors import ColorTooLarge, InadmissibleTriple
from .knots import require_knot
from .laurent import LaurentPoly

# Smoothing weight of a crossing whose over strand runs along the
# NW-SE diagonal (over_diagonal == 0): v^KAPPA on the through-going
# smoothing, v^-KAPPA on the turn-back smoothing.  The opposite
# diagonal swaps the weights.  Pinned by the bracket of the
# three-crossing reference diagram; see the tests.
KAPPA = -1

DEFAULT_COLOR_CAP = 4

PlanarMatching = tuple  # partner tuple: PlanarMatching[i] == j iff i -- j

LOOP = LaurentPoly({-2: -1, 2: -1})
ONE = {0: 1}  # raw form of 1


def _matching(pairs, size) -> PlanarMatching:
    partner = [-1] * size
    for i, j in pairs:
        if partner[i] != -1 or partner[j] != -1:
            raise ValueError(f"point of ({i}, {j}) is already paired")
        partner[i] = j
        partner[j] = i
    if -1 in partner:
        raise ValueError(f"point {partner.index(-1)} is left unpaired")
    return tuple(partner)


class TLElement:
    """Formal sum of planar matchings on a fixed (a, b) frame."""

    __slots__ = ("a", "b", "terms")

    def __init__(self, a: int, b: int, terms=None):
        self.a = a
        self.b = b
        self.terms = dict(terms or {})

    @classmethod
    def identity(cls, n: int) -> "TLElement":
        size = 2 * n
        m = _matching([(i, size - 1 - i) for i in range(n)], size)
        return cls(n, n, {m: LaurentPoly.one()})

    @classmethod
    def cup_generator(cls, n: int, i: int) -> "TLElement":
        """e_i: turn-back at bottom strands i-1, i (1-based i < n)."""
        size = 2 * n
        pairs = [(i - 1, i), (size - 1 - i, size - i)]
        pairs += [(j, size - 1 - j) for j in range(n) if j not in (i - 1, i)]
        return cls(n, n, {_matching(pairs, size): LaurentPoly.one()})

    def scale(self, poly) -> "TLElement":
        if isinstance(poly, int):
            poly = LaurentPoly({0: poly})
        terms = {}
        for m, c in self.terms.items():
            c = c * poly
            if c:
                terms[m] = c
        return TLElement(self.a, self.b, terms)

    def __add__(self, other) -> "TLElement":
        if (self.a, self.b) != (other.a, other.b):
            raise ValueError(
                f"frames differ: ({self.a}, {self.b}) and ({other.a}, {other.b})"
            )
        terms = {m: dict(c.coeffs) for m, c in self.terms.items()}
        for m, c in other.terms.items():
            _addmul(terms.setdefault(m, {}), c.coeffs)
        return TLElement(self.a, self.b, _wrap(terms))

    def __sub__(self, other) -> "TLElement":
        return self + other.scale(-1)

    def __eq__(self, other):
        if not isinstance(other, TLElement):
            return NotImplemented
        return (self.a, self.b) == (other.a, other.b) and self.terms == other.terms

    def __repr__(self):
        return f"TLElement({self.a},{self.b},{len(self.terms)} terms)"


def _stack(mx, my, a: int, b: int):
    """Stack matching my on matching mx along their b seam points.

    mx is an (a, b) partner tuple and my a (b, c) one; returns the (a, c)
    partner tuple and the number of closed loops.  Seam point q is my's
    bottom point q and mx's top point a + b - 1 - q, so one expression
    crosses the seam either way.
    """
    seam = a + b - 1
    lift = a - b  # my's top point j is the result's point j + lift
    out = [-1] * (len(my) + lift)
    seen = [False] * b
    for start in range(len(out)):
        if out[start] >= 0:
            continue
        if start < a:
            s = mx[start]
            if s < a:
                out[start], out[s] = s, start
                continue
            seen[seam - s] = True
            r = my[seam - s]
        else:
            r = my[start - lift]
        # r is a point of my: cross down while it lies on the seam
        while r < b:
            seen[r] = True
            s = mx[seam - r]
            if s < a:
                end = s
                break
            seen[seam - s] = True
            r = my[seam - s]
        else:
            end = r + lift
        out[start], out[end] = end, start
    loops = 0
    for q in range(b):
        if not seen[q]:
            loops += 1
            while not seen[q]:
                seen[q] = True
                r = my[q]
                seen[r] = True
                q = seam - mx[seam - r]
    return tuple(out), loops


@lru_cache(maxsize=None)
def _loop_power(loops: int) -> LaurentPoly:
    """LOOP**loops: loops + 1 monomials."""
    return LOOP**loops


def _addmul(acc: dict, a: dict, b: dict = ONE) -> None:
    """acc += a * b on raw {exponent: coeff} dicts, in place; zero entries
    stay until _wrap.  The shorter factor runs in the outer loop, so a
    plain add (b = ONE) or a shift costs one pass over a."""
    if len(b) > len(a):
        a, b = b, a
    get = acc.get
    for e2, c2 in b.items():
        for e1, c1 in a.items():
            e = e1 + e2
            acc[e] = get(e, 0) + c1 * c2


def _wrap(raw: dict, shift: int = 0) -> dict:
    """Wrap each raw coefficient once (times v^shift), dropping zeros."""
    shifted = ((m, {e + shift: c for e, c in d.items() if c}) for m, d in raw.items())
    return {m: LaurentPoly.wrap(d) for m, d in shifted if d}


def _killed(m: PlanarMatching, cable: int) -> bool:
    """Whether m has a cup inside bottom bundle 1 (points 0..cable-1) or
    bottom bundle 2 (cable..2*cable-1), so that the projectors stacked
    below it kill it.  A cup inside a bundle encloses one that joins
    neighbours, so only neighbours are checked."""
    return any(m[i] == i + 1 for i in range(2 * cable - 1) if i != cable - 1)


def tl_multiply(x: TLElement, y: TLElement, cable: int = 0) -> TLElement:
    """Stack y on top of x (compose x then y), grouped per output
    matching for each term of the element with fewer terms (see the
    module docstring).  With cable > 0, x is a cable's running element:
    an output matching that _killed rejects is skipped before any
    coefficient work."""
    if x.b != y.a:
        raise ValueError(f"arity mismatch: {x.b} outputs into {y.a} inputs")
    a, b = x.a, x.b
    x_outer = len(x.terms) < len(y.terms)
    outer, inner = (x, y) if x_outer else (y, x)
    out = {}
    for mo, co in outer.terms.items():
        keyed = {}  # (matching, loops) -> raw sum, or None when killed
        for mi, ci in inner.terms.items():
            key = _stack(mo, mi, a, b) if x_outer else _stack(mi, mo, a, b)
            acc = keyed.get(key)
            if acc is not None:
                _addmul(acc, ci.coeffs)
            elif key not in keyed:
                keyed[key] = None if cable and _killed(key[0], cable) else dict(ci.coeffs)
        groups = {}
        for (m, loops), c in keyed.items():
            if c is not None:
                _addmul(groups.setdefault(m, {}), c, _loop_power(loops).coeffs)
        for m, c in groups.items():
            c = {e: v for e, v in c.items() if v}
            if c:
                _addmul(out.setdefault(m, {}), c, co.coeffs)
    return TLElement(a, y.b, _wrap(out))


def tensor(x: TLElement, y: TLElement) -> TLElement:
    """Place y to the right of x."""
    # Result points run x's bottom, all of y, then x's top.
    width = y.a + y.b
    label = [i if i < x.a else i + width for i in range(x.a + x.b)]
    shifted = [(tuple(x.a + j for j in my), cy) for my, cy in y.terms.items()]
    out = {}
    for mx, cx in x.terms.items():
        relabeled = tuple(label[j] for j in mx)
        bottom, top = relabeled[: x.a], relabeled[x.a :]
        for my, cy in shifted:
            c = cx * cy
            if c:
                out[bottom + my + top] = c
    return TLElement(x.a + y.a, x.b + y.b, out)


def rotate(x: TLElement, k: int) -> TLElement:
    """Rotate the disk by k boundary points (labels move up by k)."""
    size = x.a + x.b
    return TLElement(
        x.a,
        x.b,
        {
            tuple((m[(i - k) % size] + k) % size for i in range(size)): c
            for m, c in x.terms.items()
        },
    )


def markov_closure(x: TLElement) -> LaurentPoly:
    """Close an (n, n) element around the side; returns a scalar."""
    if x.a != x.b:
        raise ValueError(f"cannot close a ({x.a}, {x.b}) element")
    size = x.a + x.b
    # the closure, a (size, 0) matching, joins i and size - 1 - i
    closure = tuple(range(size - 1, -1, -1))
    by_loops = {}
    for m, c in x.terms.items():
        _, loops = _stack(m, closure, 0, size)
        _addmul(by_loops.setdefault(loops, {}), c.coeffs)
    total = {}
    for loops, c in by_loops.items():
        _addmul(total, c, _loop_power(loops).coeffs)
    return LaurentPoly(total)


# ---------------------------------------------------------------------------
# crossing blocks and tangle assembly


def _times_word(x: TLElement, word, over_diag: int, cable: int = 0) -> TLElement:
    """Stack the braid generators v^k 1 + v^-k e_i for i in word on top
    of x, where k = KAPPA for over_diag 0 and -KAPPA otherwise, each as
    1 + v^-2k e_i; the factors v^k are one shift, at the wrap.  An e_i
    target is copied on its first write, so no input dict changes.  With
    cable > 0, x is a cable's running element: its terms that _killed
    rejects are dropped, and so is an e_i target that joins two points
    of one bottom bundle, before any coefficient work."""
    k = KAPPA if over_diag == 0 else -KAPPA
    loop, down = LOOP.shift(-2 * k).coeffs, {-2 * k: 1}
    bottom = 2 * cable  # points below this lie in the bottom bundles
    terms = {m: c.coeffs for m, c in x.terms.items() if not (cable and _killed(m, cable))}
    for i in word:
        # labels of the top points on strands i-1 and i (counted from the left)
        u = x.a + x.b - i
        w = u - 1
        out = dict(terms)
        owned = set()
        for m, c in terms.items():
            # e_i smoothing: cap u and w together and cup them again above
            if m[u] == w:  # u and w already meet: one closed loop
                turned, weight = m, loop
            else:
                a, b = m[u], m[w]
                if a < bottom and b < bottom and (a < cable) == (b < cable):
                    continue  # a new cup inside one bottom bundle
                p = list(m)
                p[a], p[b], p[u], p[w] = b, a, w, u
                turned, weight = tuple(p), down
            if turned not in owned:
                owned.add(turned)
                out[turned] = dict(out.get(turned, ()))
            _addmul(out[turned], c, weight)
        terms = out
    return TLElement(x.a, x.b, _wrap(terms, k * len(word)))


def _times_block(
    x: TLElement, cable: int, over_diag: int, count: int = 1, drop: bool = False
) -> TLElement:
    """Stack count crossing blocks of two cable-strand bundles on top of
    x; with drop, x is a cable's running element (see _times_word)."""
    word = [i for t in range(cable) for i in range(cable - t, 2 * cable - t)]
    return _times_word(x, count * word, over_diag, cable if drop else 0)


@lru_cache(maxsize=None)
def crossing_block(cable: int, over_diag: int) -> TLElement:
    """One crossing of two cable-strand bundles, as a width-2*cable braid."""
    return _times_block(TLElement.identity(2 * cable), cable, over_diag)


def tangle_element(runs, cable: int) -> TLElement:
    """Evaluate one tangle recipe at the given cable width.

    Blocks of a horizontal run are stacked on top.  A vertical run
    attaches them below the east-west axis instead; turned a quarter
    turn, that is stacking on top again, and the block turned a quarter
    turn is the block of the opposite over diagonal.
    """
    element = None
    for axis, count, sense in runs:
        over_diag = over_diagonal(sense)
        if element is None and count:
            element, count = crossing_block(cable, over_diag), count - 1
        if not count:
            continue
        if axis == "h":
            element = _times_block(element, cable, over_diag, count)
        else:
            turned = _times_block(rotate(element, cable), cable, 1 - over_diag, count)
            element = rotate(turned, -cable)
    if element is None:
        raise ValueError("tangle has no crossings")
    return element


def _is_braid_like(runs) -> bool:
    """Whether the tangle is a plain braid word: horizontal runs only,
    after a first run that may be a single vertical crossing."""
    (axis, count, _), *rest = runs
    return (axis == "h" or count == 1) and all(a == "h" for a, _, _ in rest)


# ---------------------------------------------------------------------------
# Jones-Wenzl projectors


@lru_cache(maxsize=None)
def delta_n(n: int) -> LaurentPoly:
    """Loop value of an n-colored unknot."""
    if n == -1:
        return LaurentPoly.zero()
    if n < -1:
        raise ValueError("loop value undefined below n = -1")
    num = LaurentPoly({-2 * (n + 1): 1, 2 * (n + 1): -1})
    if n % 2 == 1:
        num = num * -1
    den = LaurentPoly({-2: 1, 2: -1})
    return num.exact_div(den)


@lru_cache(maxsize=None)
def jw_projector(n: int) -> tuple[TLElement, LaurentPoly]:
    """Common-denominator form (P_n, D_n) of the n-strand projector.

    The projector itself is P_n / D_n; keeping the pair avoids
    non-integer coefficients.
    """
    if n < 1:
        raise ValueError("projector needs at least one strand")
    if n == 1:
        return TLElement.identity(1), LaurentPoly.one()
    p_prev, d_prev = jw_projector(n - 1)
    wide = tensor(p_prev, TLElement.identity(1))
    cap = TLElement.cup_generator(n, n - 1)
    dk = delta_n(n - 1)
    dk_prev = delta_n(n - 2)
    term1 = wide.scale(d_prev * dk)
    term2 = tl_multiply(tl_multiply(wide, cap), wide).scale(dk_prev)
    return term1 - term2, d_prev * d_prev * dk


def theta(a: int, b: int, c: int) -> LaurentPoly:
    """Loop value of two trivalent vertices joined along all three legs."""
    if (a + b + c) % 2 or abs(a - b) > c or c > a + b or min(a, b, c) < 0:
        raise InadmissibleTriple(f"colors ({a}, {b}, {c}) cannot meet")
    m = (a + b - c) // 2
    n = (b + c - a) // 2
    p = (c + a - b) // 2

    def dfact(k):
        out = LaurentPoly.one()
        for i in range(k + 1):
            out = out * delta_n(i)
        return out

    num = dfact(m + n + p) * dfact(m - 1) * dfact(n - 1) * dfact(p - 1)
    den = dfact(m + n - 1) * dfact(n + p - 1) * dfact(p + m - 1)
    return num.exact_div(den)


# ---------------------------------------------------------------------------
# colored Jones evaluation


@lru_cache(maxsize=None)
def _projector_trace(m: PlanarMatching, cable: int) -> LaurentPoly:
    """Closure of tensor(P, P) stacked under the single matching m,
    where P is jw_projector(cable)'s numerator."""
    proj, _ = jw_projector(cable)
    width = 2 * cable
    single = TLElement(width, width, {m: LaurentPoly.one()})
    return markov_closure(tl_multiply(tensor(proj, proj), single))


def _projected_bracket(knot, cable: int) -> LaurentPoly:
    """Kauffman bracket of the cable with a projector on each bottom
    bundle.  The cable of a knot is one band, so the projector of one
    bundle slides round to the other, and a projector is idempotent: two
    give the bracket with one inserted."""
    element = TLElement.identity(2 * cable)
    for runs in knot.twist_runs:
        # a braid word is stacked onto the running element directly
        if _is_braid_like(runs):
            for axis, count, sense in runs:
                element = _times_block(element, cable, over_diagonal(sense), count, drop=True)
        else:
            element = tl_multiply(element, tangle_element(runs, cable), cable)
    _, denom = jw_projector(cable)
    total = {}
    for m, c in element.terms.items():
        _addmul(total, c.coeffs, _projector_trace(m, cable).coeffs)
    return LaurentPoly(total).exact_div(denom * denom)


def colored_jones(knot, n: int, color_cap: int = DEFAULT_COLOR_CAP) -> LaurentPoly:
    """n-colored Jones polynomial of the knot, unknot-normalized to the
    convention where the unknot gives (v^2n - v^-2n)/(v^2 - v^-2)."""
    if n < 1:
        raise ValueError("color must be at least 1")
    if n > color_cap:
        raise ColorTooLarge(f"color {n} exceeds cap {color_cap}")
    require_knot(knot)
    cable = n - 1
    if cable == 0:
        return LaurentPoly.one()
    bracket = _projected_bracket(knot, cable)
    framing = LaurentPoly.term(1 if cable % 2 == 0 else -1, -knot.writhe * (n * n - 1))
    return framing * bracket
