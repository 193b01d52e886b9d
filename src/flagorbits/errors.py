"""Exception types shared across the package."""

from __future__ import annotations


class FlagOrbitsError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidCartan(FlagOrbitsError):
    """Matrix is not a valid finite-type Cartan matrix, or lattice data is inconsistent."""


class InvalidTwist(FlagOrbitsError):
    """Twist is not an involutive diagram automorphism."""


class NotARoot(FlagOrbitsError):
    """Integer vector is not a root of the datum."""


class NotPositiveRoot(FlagOrbitsError):
    """Root argument must be positive."""


class TableTooLarge(FlagOrbitsError):
    """A whole-group operation would tabulate more elements than the cap."""


class DatumMismatch(FlagOrbitsError):
    """Operands belong to different root data."""


class NotReduced(FlagOrbitsError):
    """Word is not reduced."""


class NotADescent(FlagOrbitsError):
    """Simple root is not a descent of the element."""


class ParabolicMismatch(FlagOrbitsError):
    """Operands belong to different parabolic quotients."""


class NotPReduced(FlagOrbitsError):
    """Word is not reduced with respect to the parabolic quotient."""


class NotDownward(FlagOrbitsError):
    """Step does not move downward in the quotient."""


class NotNoncompact(FlagOrbitsError):
    """Cayley transform is defined only at noncompact imaginary roots."""


class NotReal(FlagOrbitsError):
    """Inverse Cayley transform is defined only at real roots."""


class NoOpenNode(FlagOrbitsError):
    """Graph has no unique maximal-length node."""


class Unreachable(FlagOrbitsError):
    """Node cannot be reached by downward steps; the graph violates generation."""


class Mismatch(FlagOrbitsError):
    """Arguments come from different graphs or Levi subsets."""


class ParseError(FlagOrbitsError):
    """Text does not conform to the expected serialization format."""


class AxiomViolation(FlagOrbitsError):
    """Structure violates one of its defining axioms.

    Carries the full list of violation strings in ``violations``.
    """

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        head = violations[0] if violations else "unknown"
        more = f" (+{len(violations) - 1} more)" if len(violations) > 1 else ""
        super().__init__(f"{head}{more}")
