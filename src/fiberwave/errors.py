"""Exception taxonomy shared by all fiberwave modules."""

from __future__ import annotations


class FiberwaveError(Exception):
    """Base class for all errors raised by fiberwave."""


class ThresholdCollision(FiberwaveError):
    """The spectral parameter coincides with a cross-section eigenvalue."""


class TooManyModes(FiberwaveError):
    """A cross-section has more than cross_section.MAX_MODES thresholds."""


class NoInfiniteChannels(FiberwaveError):
    """The graph has no infinite channel, so no scattering problem exists."""


class GraphInvalid(FiberwaveError):
    """The metric graph violates structural invariants.

    Carries the list of violations produced by ``validate_graph``.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations)
        super().__init__(f"invalid graph: {lines}")


class UnresolvableJunction(FiberwaveError):
    """A junction model cannot produce a matrix at the requested lambda."""


class DimensionMismatch(FiberwaveError):
    """A junction matrix does not match the vertex's propagating-mode count."""


class SingularAtThreshold(FiberwaveError):
    """Some channel mode has zero longitudinal wavenumber at this lambda."""


class NearSingular(FiberwaveError):
    """The assembled system is too ill-conditioned to certify the solution."""

    def __init__(self, rcond: float, lam: float):
        self.rcond = rcond
        self.lam = lam
        super().__init__(
            f"solve at lambda={lam!r} refused: reciprocal condition {rcond:.3e} "
            "below certification threshold (likely resonance / embedded eigenvalue)"
        )


class InsufficientSamples(FiberwaveError):
    """Too few samples for the requested fit."""


class IntervalContainsThreshold(FiberwaveError):
    """A sweep interval contains a cross-section threshold."""


class GeometryInvalid(FiberwaveError):
    """A planar geometry violates its structural invariants."""


class GridTooCoarse(FiberwaveError):
    """The grid spacing cannot resolve the requested wavelength or modes."""


class GridBudgetExceeded(FiberwaveError):
    """The discretized domain exceeds the allowed number of grid nodes."""


class NonConvergedSolve(FiberwaveError):
    """The linear solve of the discrete Helmholtz system did not converge."""


class ParseError(FiberwaveError):
    """Malformed input file (carries a human-readable location)."""
