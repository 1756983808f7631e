"""Exception types shared across the package."""
from __future__ import annotations


class SlopelabError(Exception):
    """Base class for domain errors."""


class NotAKnot(SlopelabError):
    """The tangle data describes a link with more than one component."""


class MoreThanOneNegativeTangle(SlopelabError):
    """Normalization left several negative tangle fractions."""


class MultiComponent(SlopelabError):
    """A diagram traversal found more than one component."""


class ColorTooLarge(SlopelabError):
    """Requested color exceeds the configured evaluation budget."""


class HypothesisViolation(SlopelabError):
    """Input violates the hypotheses a formula needs.

    Carries ``failures``, a list of human-readable reasons.
    """

    def __init__(self, failures):
        self.failures = list(failures)
        super().__init__("; ".join(self.failures))


class AdjacencyViolation(SlopelabError):
    """Consecutive vertices of an edge path are not adjacent slopes."""


class NoSolution(SlopelabError):
    """No candidate surface satisfies the gluing equations."""
