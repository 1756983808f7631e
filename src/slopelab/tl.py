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

A product x y sums, over the terms of x, the coefficient times the row
of its matching: that matching stacked under y, with y's coefficients
summed per (output matching, loop count) and scaled by the loop power
(loops + 1 monomials) once per key.  So the wide coefficient products
number one per (term of x, output matching); in a cable's state sum x
is the running element, the side with the fewer terms.  The closure is
one more product, against the cap round the side.  Coefficients
accumulate in place in raw {exponent: coeff} dicts (``laurent.addmul``),
the state sum's in dense lists (``_dense``), exact by the Kauffman
bracket's parity: the states that leave the same outputs agree mod 4.

Tangles are evaluated in the same boxed form the diagram builder uses:
a crossing box is a width-2n braid block crossing two n-strand bundles,
a word in the braid generators v^k 1 + v^-k e_i = v^k (1 + v^-2k e_i).
Stacking one generator on an element rewrites each matching in place (a
swap of partners, or one loop), so a crossing costs time linear in the
number of terms: the identity smoothing keeps each coefficient, only the
e_i targets accumulate, and a run of blocks carries one v^k shift.  A
horizontal run stacks its blocks' word on top; a vertical run is the
same word on the points a quarter turn round, where a block's over
diagonal flips.  Each tangle, a single crossing included, is assembled
once per process for each (recipe, cable, seam mask).  The state sum
takes one step per tangle but the last: each term of the running element
times the row of its matching with the tangle, cached once per process.

The cable of a knot carries a Jones-Wenzl projector on each of its two
bottom bundles: the cable is one band, so a projector slides along it,
and two give the same bracket as one because a projector is idempotent.
The running element is built bottom to top without them.  They kill a
term with a cup inside either bottom bundle (see ``BOTTOM``), and
stacking on top never removes a bottom cup, so a row leaves such outputs
out before any coefficient work.  The closure is linear, so the last
tangle closes with it: each term times its matching's cached closed row,
whose outputs o carry the closure of the projectors under o over one of
their two denominators D by its closed form (Kauffman-Lins): 0 on a cup
inside a bundle, else D Δ_c² / Δ_k when k pairs of o join the bottom
bundles.  The sum divides by the other D.  The smoothing weights follow
``diagrams.over_diagonal`` (see ``KAPPA``).

The same pair of projectors may sit on a seam between tangles.  The
seam above tangle T_i carries it when the tangles above route both
bottom points to the top, which their fractions decide mod 2: the sum
of the fractions above, folded without reducing by
``knots.tangle_sum_parity``, has an odd denominator (the parity gate).
The projector then slides up through them and round the closure onto
the bottom projectors, which absorb it.  On such a seam every term
with a cup inside a top bundle is zero, in the running element and in
T_i itself.  Seams are filtered bottom to top, one side each: the
bottom cups of T_(i+1) are kept, since dropping them would slide the
projector down through an element that is already filtered.  Inside a
tangle, a cup in a bundle that neither the current run nor a later one
touches is permanent and is dropped at once; the run axes say which: a
vertical run acts on bundles 1 and 2 only, a horizontal run on 2 and 3,
so a pretzel column drops top bundle 3 from its second block on.  Each
drop is one rule: ``_cups`` turns a bundle mask into the points i whose
cup (i, i + 1) a projector kills, and each kernel takes that tuple.
"""
from __future__ import annotations

from functools import lru_cache

from .diagrams import over_diagonal
from .errors import ColorTooLarge
from .knots import require_knot, tangle_sum_parity
from .laurent import LaurentPoly, addmul
from .qip import integral

# Smoothing weight of a crossing whose over strand runs along the
# NW-SE diagonal (over_diagonal == 0): v^KAPPA on the through-going
# smoothing, v^-KAPPA on the turn-back smoothing.  The opposite
# diagonal swaps the weights.  Pinned by the bracket of the
# three-crossing reference diagram; see the tests.
KAPPA = -1

DEFAULT_COLOR_CAP = 4

PlanarMatching = tuple  # partner tuple: PlanarMatching[i] == j iff i -- j

LOOP = LaurentPoly({-2: -1, 2: -1})

# Bundle masks on a cable's (2 cable, 2 cable) frame: bit j selects
# bundle j, points j*cable .. (j+1)*cable - 1.  Bundles 0 and 1 are the
# bottom, left to right, and 2 and 3 the top, right to left.
BOTTOM, TOP = 0b0011, 0b1100


class TLElement:
    """Formal sum of planar matchings on a fixed (a, b) frame."""

    __slots__ = ("a", "b", "terms")

    def __init__(self, a: int, b: int, terms=None):
        self.a = a
        self.b = b
        self.terms = dict(terms or {})

    @classmethod
    def identity(cls, n: int) -> "TLElement":
        # point i meets point 2n - 1 - i
        return cls(n, n, {tuple(range(2 * n - 1, -1, -1)): LaurentPoly.one()})

    @classmethod
    def cup_generator(cls, n: int, i: int) -> "TLElement":
        """e_i: turn-back at bottom strands i-1, i (1-based i < n)."""
        size = 2 * n
        m = list(range(size - 1, -1, -1))
        m[i - 1], m[i], m[size - 1 - i], m[size - i] = i, i - 1, size - i, size - 1 - i
        return cls(n, n, {tuple(m): LaurentPoly.one()})

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


def _wrap(raw: dict, shift: int = 0) -> dict:
    """Wrap each raw coefficient once (times v^shift), dropping zeros."""
    shifted = ((m, {e + shift: c for e, c in d.items() if c}) for m, d in raw.items())
    return {m: LaurentPoly.wrap(d) for m, d in shifted if d}


def _cups(cable: int, mask: int) -> tuple:
    """The points i that share a bundle of mask with i + 1 (see BOTTOM)."""
    bundles = [j for j in range(4) if mask >> j & 1]
    return tuple(i for j in bundles for i in range(j * cable, (j + 1) * cable - 1))


def _killed(m: PlanarMatching, cups: tuple) -> bool:
    """Whether m joins some i of cups to i + 1: a cup inside a bundle of
    the mask, which the projectors on those bundles kill.  A cup inside a
    bundle encloses one that joins neighbours, so neighbours suffice."""
    return any(m[i] == i + 1 for i in cups)


def _drop_killed(x: TLElement, cups: tuple) -> TLElement:
    """x without the terms that _killed rejects for cups."""
    return TLElement(x.a, x.b, {m: c for m, c in x.terms.items() if not _killed(m, cups)})


def _matching_times(mx: PlanarMatching, y: TLElement, a: int, cups: tuple = ()) -> dict:
    """The row of mx: y stacked on the one matching mx of an (a, y.a)
    element, as raw sums per output matching without the zero ones.  An
    output that _killed rejects for cups is skipped before any work."""
    keyed = {}  # (matching, loops) -> raw sum, or None when killed
    for my, cy in y.terms.items():
        key = _stack(mx, my, a, y.a)
        acc = keyed.get(key)
        if acc is not None:
            addmul(acc, cy.coeffs)
        elif key not in keyed:
            keyed[key] = None if cups and _killed(key[0], cups) else dict(cy.coeffs)
    groups = {}
    for (m, loops), c in keyed.items():
        if c is not None:
            addmul(groups.setdefault(m, {}), c, _loop_power(loops).coeffs)
    nonzero = ((m, {e: v for e, v in c.items() if v}) for m, c in groups.items())
    return {m: c for m, c in nonzero if c}


def tl_multiply(x: TLElement, y: TLElement) -> TLElement:
    """Stack y on top of x (compose x then y); see the module docstring."""
    if x.b != y.a:
        raise ValueError(f"arity mismatch: {x.b} outputs into {y.a} inputs")
    out = {}
    for mx, cx in x.terms.items():
        for m, c in _matching_times(mx, y, x.a).items():
            addmul(out.setdefault(m, {}), c, cx.coeffs)
    return TLElement(x.a, y.b, _wrap(out))


def _raw(dense: tuple) -> dict:
    """The nonzero {exponent: coeff} of a dense (lo, [c0, c1, ...]): the sum of c_i v^(lo + 4i)."""
    return {dense[0] + 4 * i: c for i, c in enumerate(dense[1]) if c}


def _dense(raw: dict) -> tuple:
    """Dense form (see _raw) of a raw coefficient; ArithmeticError on two classes mod 4."""
    exps = [e for e, c in raw.items() if c]
    lo = min(exps, default=0)
    if any((e - lo) % 4 for e in exps):
        raise ArithmeticError(f"exponents {sorted(exps)} lie in two classes mod 4")
    return lo, [raw.get(e, 0) for e in range(lo, max(exps, default=lo - 1) + 1, 4)]


def _sum_rows(terms: dict, row, *args) -> dict:
    """One state-sum step: nonzero dense terms {matching: (lo, coeffs)} times the dense
    row(matching, *args), into fresh lists that keep the end zeros where products cancel,
    without the zero sums; ArithmeticError when two products for one output differ mod 4."""
    out = {}
    for mx, (lx, cx) in terms.items():
        for m, (lr, cr) in row(mx, *args).items():
            a, b = (cx, cr) if len(cx) <= len(cr) else (cr, cx)
            held, acc = out.setdefault(m, (lx + lr, []))
            start, r = divmod(lx + lr - held, 4)
            if r:
                raise ArithmeticError(f"exponents {held} and {lx + lr} lie in two classes mod 4")
            if start < 0:
                acc[:0] = [0] * -start
                out[m], start = (lx + lr, acc), 0
            acc.extend([0] * (start + len(a) + len(b) - 1 - len(acc)))
            for i, c in enumerate(a, start):
                if c:
                    for j, d in enumerate(b, i):
                        acc[j] += c * d
    return {m: c for m, c in out.items() if any(c[1])}


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


def markov_closure(x: TLElement) -> LaurentPoly:
    """Close an (n, n) element around the side; returns a scalar."""
    if x.a != x.b:
        raise ValueError(f"cannot close a ({x.a}, {x.b}) element")
    size = x.a + x.b
    # x read as a (0, size) element, under the identity's matching read
    # as the (size, 0) cap that joins i to size - 1 - i
    cap = TLElement(size, 0, TLElement.identity(x.a).terms)
    return tl_multiply(TLElement(0, size, x.terms), cap).terms.get((), LaurentPoly.zero())


# ---------------------------------------------------------------------------
# crossing blocks and tangle assembly


def _times_word(x: TLElement, word, over_diag: int, cups: tuple = ()) -> TLElement:
    """Stack the braid generators v^k 1 + v^-k e_i for i in word on top
    of x, where k = KAPPA for over_diag 0 and -KAPPA otherwise, each as
    1 + v^-2k e_i; the factors v^k are one shift, at the wrap.  An e_i
    target is copied on its first write, so no input dict changes.  The
    word touches no bundle of cups (see _cups), so a cup inside one is
    never undone: x's terms that _killed rejects are dropped first, then
    each e_i target whose new pair is one of cups, before any coefficient
    work.  As u and w lie outside those bundles, any other new pair inside
    one would enclose a neighbour pair that the term already had."""
    k = KAPPA if over_diag == 0 else -KAPPA
    loop, down = LOOP.shift(-2 * k).coeffs, {-2 * k: 1}
    terms = {m: c.coeffs for m, c in x.terms.items() if not _killed(m, cups)}
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
                if (a - b == 1 and b in cups) or (b - a == 1 and a in cups):
                    continue  # a new cup inside one masked bundle
                p = list(m)
                p[a], p[b], p[u], p[w] = b, a, w, u
                turned, weight = tuple(p), down
            if turned not in owned:
                owned.add(turned)
                out[turned] = dict(out.get(turned, ()))
            addmul(out[turned], c, weight)
        terms = out
    return TLElement(x.a, x.b, _wrap(terms, k * len(word)))


def _block_word(cable: int) -> list:
    """Generator word of one crossing of two cable-strand bundles."""
    return [i for t in range(cable) for i in range(cable - t, 2 * cable - t)]


@lru_cache(maxsize=None)
def crossing_block(cable: int, over_diag: int) -> TLElement:
    """One crossing of two cable-strand bundles, as a width-2*cable braid."""
    return _times_word(TLElement.identity(2 * cable), _block_word(cable), over_diag)


def tangle_element(runs, cable: int, mask: int = 0) -> TLElement:
    """Evaluate one tangle recipe at the given cable width.  mask selects
    top bundles that carry a projector on the seam above the tangle (see
    _seam_masks): their cups are dropped once no later run touches the
    bundle, and all of them after assembly.  Each distinct (runs, cable,
    mask) is assembled once per process and shared: callers must not
    change it."""
    return _assemble_tangle(tuple(runs), cable, mask)


# A verify pass over 62 knots at colours 2-3 makes about 70 assemblies
# (0.2 MB); at colour 4 one of a run of 21 crossings holds about 0.1 MB.
@lru_cache(maxsize=128)
def _assemble_tangle(runs: tuple, cable: int, mask: int) -> TLElement:
    """The first block, then per run the word that stacks its other
    blocks, dropping the cups of mask in each bundle that neither the run
    nor a later one touches, read off the run axes (see the module docstring)."""
    left = [count for _, count, _ in runs]
    first = next((r for r, count in enumerate(left) if count), None)
    if first is None:
        raise ValueError("tangle has no crossings")
    left[first] -= 1
    element = crossing_block(cable, over_diagonal(runs[first][2]))
    for r, (axis, _, sense) in enumerate(runs):
        if not left[r]:
            continue
        later = {a for (a, _, _), count in zip(runs[r:], left[r:]) if count}
        busy = (0b0110 if "v" in later else 0) | (0b1100 if "h" in later else 0)
        word, over_diag = left[r] * _block_word(cable), over_diagonal(sense)
        if axis == "v":
            # a word index counts top labels round the disk, so generator
            # i + cable is generator i a quarter turn round
            word, over_diag = [i + cable for i in word], 1 - over_diag
        element = _times_word(element, word, over_diag, _cups(cable, mask & ~busy))
    return _drop_killed(element, _cups(cable, mask))


def _seam_masks(fractions) -> list:
    """Per tangle, TOP when the seam above it carries a projector on each
    bundle, else 0: when the tangles above route both bottom points to
    the top (``tangle_sum_parity`` reads q odd), so that the projectors
    slide up through them and round the closure onto the bottom ones."""
    return [TOP if tangle_sum_parity(fractions[i + 1 :])[1] else 0 for i in range(len(fractions))]


# A seed-1 verify_c3 pass builds 122 rows (0.14 MB), a jones_c4 pass 22 (0.03 MB).
@lru_cache(maxsize=1024)
def _row(m: PlanarMatching, runs: tuple, cable: int, top: int) -> dict:
    """The dense row of matching m times one tangle, without the outputs
    that the projectors on the bottom bundles or, on a gated seam (top, see
    _seam_masks), the top ones kill.  Shared: callers must not change it."""
    tangle = tangle_element(runs, cable, top)
    raw = _matching_times(m, tangle, 2 * cable, _cups(cable, BOTTOM | top))
    return {o: _dense(c) for o, c in raw.items()}


# ---------------------------------------------------------------------------
# Jones-Wenzl projectors


def delta_n(n: int) -> LaurentPoly:
    """Loop value of an n-colored unknot, (-1)^n [n+1]."""
    if n < -1:
        raise ValueError("loop value undefined below n = -1")
    return LaurentPoly({2 * n - 4 * k: (-1) ** n for k in range(n + 1)})


@lru_cache(maxsize=None)
def jw_projector(n: int) -> tuple[TLElement, LaurentPoly]:
    """Common-denominator form (P_n, D_n) of the n-strand projector.

    The projector itself is P_n / D_n; keeping the pair avoids
    non-integer coefficients.  With W = tensor(P_{n-1}, 1) and d_k =
    delta_n(k), the Wenzl recursion is one sandwich product,
    P_n = W (d_{n-1} 1 - d_{n-2} e_{n-1}) W, since W W = D_{n-1} W.
    """
    if n < 1:
        raise ValueError("projector needs at least one strand")
    if n == 1:
        return TLElement.identity(1), LaurentPoly.one()
    p_prev, d_prev = jw_projector(n - 1)
    wide = tensor(p_prev, TLElement.identity(1))
    (ident,) = TLElement.identity(n).terms
    (cup,) = TLElement.cup_generator(n, n - 1).terms
    middle = TLElement(n, n, {ident: delta_n(n - 1), cup: -delta_n(n - 2)})
    return tl_multiply(tl_multiply(wide, middle), wide), d_prev * d_prev * delta_n(n - 1)


# ---------------------------------------------------------------------------
# colored Jones evaluation


@lru_cache(maxsize=None)
def _projector_trace(m: PlanarMatching, cable: int) -> dict:
    """Closure of P ⊗ P under the single matching m over D, for jw_projector(cable)'s
    (P, D), as a dense row into (): {} when a projector kills m, else closure(P)² /
    (D Δ_k) if k pairs join the bottom bundles.  That is D Δ_c² / Δ_k, which is exact,
    as D_c = D_(c-1)² Δ_(c-1) holds each Δ_k, k < c."""
    if _killed(m, _cups(cable, BOTTOM | TOP)):
        return {}
    proj, denom = jw_projector(cable)
    closure = markov_closure(proj)
    k = sum(1 for i in range(cable) if cable <= m[i] < 2 * cable)
    return {(): _dense((closure * closure).exact_div(denom * delta_n(k)).coeffs)}


# One seed-1 verify_c3 pass closes 80 rows (36 kB), a jones_c4 pass 16 (8 kB).
@lru_cache(maxsize=1024)
def _closed_row(m: PlanarMatching, runs: tuple, cable: int, top: int) -> dict:
    """_row(m, runs, cable, top) times the _projector_traces, D Δ_c² / Δ_k each, one D
    short: a dense row into the closure's ().  Shared: callers must not change it."""
    return _sum_rows(_row(m, runs, cable, top), _projector_trace, cable)


CACHES = (_loop_power, crossing_block, _assemble_tangle, _row, jw_projector, _projector_trace,
          _closed_row)


def clear_caches() -> None:
    """Empty CACHES, every process-wide cache of this module."""
    for cache in CACHES:
        cache.cache_clear()


def _projected_bracket(knot, cable: int) -> LaurentPoly:
    """Kauffman bracket of the cable with a projector on each bottom
    bundle and each bundle of every seam that _seam_masks gates: one _row
    step per tangle but the last, which each term closes by _closed_row.
    The traces hold one D of the projectors' D²; one division sheds the other."""
    terms = dict.fromkeys(TLElement.identity(2 * cable).terms, (0, [1]))
    masks = _seam_masks(knot.fractions)
    *steps, last = [(tuple(runs), cable, top) for runs, top in zip(knot.twist_runs, masks)]
    for step in steps:
        terms = _sum_rows(terms, _row, *step)
    total = _sum_rows(terms, _closed_row, *last).get((), (0, []))
    return LaurentPoly.wrap(_raw(total)).exact_div(jw_projector(cable)[1])


def colored_jones(knot, n: int, color_cap: int = DEFAULT_COLOR_CAP) -> LaurentPoly:
    """n-colored Jones polynomial of the knot, unknot-normalized to the
    convention where the unknot gives (v^2n - v^-2n)/(v^2 - v^-2)."""
    n = integral(n, "color")
    if n < 1:
        raise ValueError("color must be at least 1")
    if n > color_cap:
        raise ColorTooLarge(f"color {n} exceeds cap {color_cap}")
    require_knot(knot)
    cable = n - 1
    if cable == 0:
        return LaurentPoly.one()
    framing = LaurentPoly.term(1 if cable % 2 == 0 else -1, -knot.writhe * (n * n - 1))
    return framing * _projected_bracket(knot, cable)
