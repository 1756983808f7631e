"""Cross-checks between the degree, surface, and diagram computations.

A verification run triangulates one knot three ways: the closed-form
degree quadratic (js, jx), the candidate surface whose boundary slope
and Euler characteristic should reproduce it, and direct evaluations
of the colored Jones polynomial on the standard diagram, whose minimal
degrees a per-color predictor must hit exactly.  A report collects the
three views, the comparisons, and a machine-readable JSON rendering;
``scan`` runs the same check across a family.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .degrees import (
    SSTAR,
    DegreeQuadratic,
    montesinos_js_jx,
    pretzel_js_jx,
)
# Kept as a module attribute: perfbench's tracer test checks that a name
# bound here by ``from .diagrams import`` is wrapped where it is bound.
from .diagrams import build_standard_diagram  # noqa: F401
from .errors import ColorTooLarge
from .knots import PretzelKnot, parse_knot_spec, require_knot
from .qip import integral, maximize_degree
from .surfaces import (
    CandidateSurface,
    boundary_slope,
    build_reference_surface,
    build_sstar_surface,
    euler_over_sheets,
    incompressibility_check,
    twist_number,
)
from .tl import DEFAULT_COLOR_CAP, colored_jones

SCHEMA = "slopelab-report/1"

# Above this many crossings the default direct evaluation stops at
# color 2; smaller diagrams also get color 3.
_SMALL_DIAGRAM_CROSSINGS = 30


def predicted_min_degree(knot, color: int) -> int:
    """Predicted minimal degree of the color-``color`` polynomial.

    Combines the diagram writhe with the lattice degree maximum of the
    underlying twist vector and, for general tangle fractions, the
    inherited-state and twist-reduction shifts.  The lattice minima and
    the shifts live on the knot record, so every colour of one knot
    shares one lattice solve.
    """
    color = integral(color, "color")
    if color < 1:
        raise ValueError(f"color must be at least 1, got {color}")
    data = knot.associated
    n = color - 1
    quad_shift, lin_shift = knot.reduction_total
    return -(
        knot.writhe * (color * color - 1)
        + maximize_degree(knot.tight_states, n)
        + (data.inherited + quad_shift) * n * n
        + lin_shift * n
    )


@dataclass(frozen=True)
class OracleCheck:
    """One direct polynomial evaluation against the degree predictor."""

    color: int
    measured_min_degree: int
    predicted_min_degree: int

    @property
    def match(self) -> bool:
        return self.measured_min_degree == self.predicted_min_degree


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one knot's three-way consistency check."""

    knot: str
    family: str
    forced: bool
    degree: DegreeQuadratic
    surface: CandidateSurface
    reference: CandidateSurface
    tw_surface: Fraction
    tw_reference: Fraction
    slope: Fraction
    euler: Fraction
    verdict: str
    crossings: int
    writhe: int
    oracle: tuple[OracleCheck, ...]
    fitted_constants: tuple[tuple[int, Fraction], ...]
    constant_consistent: Optional[bool]
    reasons: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.reasons

    def to_json_dict(self) -> dict:
        deg = self.degree
        corrections = None
        if deg.corrections is not None:
            corrections = {k: v for k, v in sorted(deg.corrections.as_dict().items())}
        paths = []
        for path in self.surface.edgepaths:
            paths.append(
                {
                    "vertices": [f"{v.numerator}/{v.denominator}" for v in path.vertices],
                    "final_fraction": [path.stop, self.surface.M] if path.stop else None,
                }
            )
        return {
            "schema": SCHEMA,
            "knot": self.knot,
            "family": self.family,
            "forced": self.forced,
            "pass": self.passed,
            "reasons": list(self.reasons),
            "degree": {
                "s": str(deg.s),
                "s1": str(deg.s1),
                "js": str(deg.js),
                "jx": str(deg.jx),
                "case": deg.case,
                "surface_hint": deg.surface_hint,
                "strict_ok": deg.strict_ok,
                "corrections": corrections,
            },
            "surface": {
                "selected": deg.surface_hint,
                "M": self.surface.M,
                "K": list(self.surface.K),
                "q_negative": self.surface.q_negative,
                "edgepaths": paths,
                "rvalues": list(self.surface.rvalues),
                "tw": str(self.tw_surface),
                "tw_reference": str(self.tw_reference),
                "reference_slope": str(self.reference.reference_slope),
                "boundary_slope": str(self.slope),
                "two_chi_over_sheets": str(self.euler),
                "verdict": self.verdict,
            },
            "oracle": {
                "crossings": self.crossings,
                "writhe": self.writhe,
                "colors": [c.color for c in self.oracle],
                "checks": {
                    str(c.color): {
                        "measured_min_degree": c.measured_min_degree,
                        "predicted_min_degree": c.predicted_min_degree,
                        "match": c.match,
                    }
                    for c in self.oracle
                },
                "fitted_constants": {
                    str(color): str(value) for color, value in self.fitted_constants
                },
                "constant_consistent": self.constant_consistent,
            },
        }


def _requested_colors(oracle_colors) -> Optional[tuple[int, ...]]:
    """The explicitly requested oracle colors, or None for the default.

    Raises ValueError for a color that is not integer-valued, and
    ColorTooLarge before any work when a color is over the cap.
    """
    if oracle_colors is None:
        return None
    try:
        values = iter(oracle_colors)
    except TypeError:  # a top color
        values = range(2, integral(oracle_colors, "oracle color") + 1)
    ints = {integral(c, "oracle color") for c in values}
    colors = tuple(sorted(c for c in ints if c >= 2))
    if colors and colors[-1] > DEFAULT_COLOR_CAP:
        raise ColorTooLarge(f"color {colors[-1]} exceeds cap {DEFAULT_COLOR_CAP}")
    return colors


def verify(knot_spec, oracle_colors=None, force: bool = False) -> VerificationReport:
    """Run the full three-way consistency check on one knot.

    ``oracle_colors`` may be None (diagram-size-dependent default), an
    integer-valued top color, or an iterable of integer-valued colors; colors
    below 2 are dropped, and a color that is not integer-valued raises
    ValueError and one over the cap ColorTooLarge, before any work
    starts.  ``force`` evaluates the degree formulas outside their
    proven hypotheses; the report then records any disagreement
    instead of refusing to start.
    """
    if isinstance(knot_spec, str):
        knot = parse_knot_spec(knot_spec)
    else:
        knot = knot_spec
    require_knot(knot)
    colors = _requested_colors(oracle_colors)
    if isinstance(knot, PretzelKnot):
        family = "pretzel"
        degree = pretzel_js_jx(knot.q, strict=not force)
    else:
        family = "montesinos"
        degree = montesinos_js_jx(knot, strict=not force)

    reference = build_reference_surface(knot)
    if degree.surface_hint == SSTAR:
        surface = build_sstar_surface(knot)
    else:
        surface = reference
    tw_surface = twist_number(surface)
    tw_reference = twist_number(reference)
    slope = boundary_slope(surface, reference)
    euler = euler_over_sheets(surface)
    verdict = incompressibility_check(surface)

    crossings = len(knot.diagram.crossings)
    if colors is None:
        top = 3 if crossings <= _SMALL_DIAGRAM_CROSSINGS else 2
        colors = tuple(range(2, top + 1))
    checks = []
    constants = []
    for color in colors:
        measured = colored_jones(knot, color).min_degree()
        predicted = predicted_min_degree(knot, color)
        checks.append(OracleCheck(color, measured, predicted))
        constants.append(
            (color, -measured - degree.js * color * color - degree.jx * color)
        )
    consistent: Optional[bool] = None
    if len(constants) >= 2:
        consistent = len({value for _, value in constants}) == 1

    reasons = []
    if slope != degree.js:
        reasons.append(
            f"boundary slope {slope} differs from degree slope {degree.js}"
        )
    if euler != degree.jx:
        reasons.append(
            f"surface Euler ratio {euler} differs from degree value {degree.jx}"
        )
    for check in checks:
        if not check.match:
            reasons.append(
                f"color {check.color}: measured minimal degree "
                f"{check.measured_min_degree} differs from predicted "
                f"{check.predicted_min_degree}"
            )
    return VerificationReport(
        knot=knot.spec(),
        family=family,
        forced=force,
        degree=degree,
        surface=surface,
        reference=reference,
        tw_surface=tw_surface,
        tw_reference=tw_reference,
        slope=slope,
        euler=euler,
        verdict=verdict,
        crossings=crossings,
        writhe=knot.writhe,
        oracle=tuple(checks),
        fitted_constants=tuple(constants),
        constant_consistent=consistent,
        reasons=tuple(reasons),
    )


def iter_strict_pretzels(q0_min: int, qi_max: int, tangle_counts=(2,)):
    """All strict twist vectors with q0 >= q0_min and qi <= qi_max.

    Entries are odd, the leading one at most -3, the others at least
    3 and sorted; tangle counts must be even, and a repeated count is
    scanned once.
    """
    for m in dict.fromkeys(tangle_counts):
        if m % 2 != 0 or m < 2:
            raise ValueError(f"tangle count {m} must be even and at least 2")
        for q0 in range(q0_min, -2):
            if q0 % 2 == 0:
                continue
            for rest in itertools.combinations_with_replacement(
                range(3, qi_max + 1, 2), m
            ):
                yield (q0,) + rest


def scan(
    *,
    q0_min: int = -9,
    qi_max: int = 9,
    tangle_counts=(2,),
    oracle_colors=None,
    force: bool = False,
) -> list[VerificationReport]:
    """Verify every strict twist vector in the box and return the reports.

    No filter is needed: odd entries, odd in number, close up into a knot.
    """
    return [
        verify(PretzelKnot(q), oracle_colors=oracle_colors, force=force)
        for q in iter_strict_pretzels(q0_min, qi_max, tangle_counts)
    ]
