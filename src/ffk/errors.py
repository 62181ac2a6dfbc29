"""Exception hierarchy for frame and fusion-frame analysis.

Every error raised deliberately by this package derives from
:class:`FrameError`, so callers (including the command-line driver) can
catch one type and report a structured failure.
"""


class FrameError(Exception):
    """Base class for all analysis errors raised by this package."""


# --- matrix-level failures -------------------------------------------------

class NonFiniteEntries(FrameError):
    """A matrix or vector contains NaN or infinite entries."""


class NotSquare(FrameError):
    """A square matrix was required."""


class NotPositiveDefinite(FrameError):
    """A Hermitian positive definite matrix was required."""


class AllColumnsNumericallyZero(FrameError):
    """Orthonormalization received a matrix of numerical rank zero."""


class DimensionMismatch(FrameError):
    """Shapes, ambient dimensions, or scalar fields do not agree."""


class SingularOperator(FrameError):
    """An invertible operator was required."""


# --- vector-frame failures -------------------------------------------------

class ZeroVector(FrameError):
    """A frame vector has numerically zero norm."""


class NotAFrame(FrameError):
    """The vector family does not span the ambient space."""


class NotUnitVector(FrameError):
    """Pointwise redundancy is only defined on unit vectors."""


class WrongEtaCount(FrameError):
    """The perturbation list must contain one vector per frame member."""


class NotADual(FrameError):
    """The candidate family fails the reconstruction identity."""


# --- fusion-frame failures -------------------------------------------------

class NonPositiveWeight(FrameError):
    """Subspace weights must be strictly positive."""


class ZeroSubspace(FrameError):
    """A subspace span collapsed to the zero space."""


class NotAFusionFrame(FrameError):
    """The weighted family is Bessel only: its lower bound vanishes."""


class EmptyRemainder(FrameError):
    """Erasing every member leaves nothing to analyze."""


class NotUniformWeights(FrameError):
    """The operation is stated for families with all weights equal to one."""


# --- system failures -------------------------------------------------------

class MemberCountMismatch(FrameError):
    """Local frame lists must parallel the subspace list."""


class VectorOutsideSubspace(FrameError):
    """A local frame vector does not lie in its subspace."""


class LocalNotAFrame(FrameError):
    """A local family does not span its subspace."""


class LocalNotParseval(FrameError):
    """A local family is not Parseval for its subspace."""


# --- document / CLI failures -----------------------------------------------

class ParseError(FrameError):
    """A document is malformed; the message cites the offending location."""


class SchemaVersionUnsupported(FrameError):
    """The document declares a schema version this build does not read."""


class UnknownExample(FrameError):
    """No built-in example carries the requested name."""


class InvariantViolation(FrameError):
    """A fact the analysis relies on failed its numerical check."""
