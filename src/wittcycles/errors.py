"""Exception hierarchy: every refusal is a WittCyclesError, all cli.main catches."""


class WittCyclesError(Exception):
    """Base class for every error raised by this package."""


class ParseError(WittCyclesError):
    """Malformed input text, argument or name, or a level over cli's limit."""


class ShapeError(WittCyclesError, ValueError):
    """Levels, lengths, degrees or index subsets that do not fit; a ValueError."""


class ResourceLimit(WittCyclesError):
    """An input or an output is over a documented size limit."""


class ContextMismatch(WittCyclesError):
    """Operands belong to different variable contexts."""


class DivisionByZero(WittCyclesError):
    """A division by 0, 0^0 (= 0^1 / 0^1) included."""


class ZeroArgument(WittCyclesError):
    """dlog or a symbol entry received 0."""


class NotRelative(WittCyclesError):
    """A form with a nonzero t^0 part where a relative form is required."""


class NotAUnit(WittCyclesError):
    """Constant term of a truncated polynomial is 0."""


class BadConstantTerm(WittCyclesError):
    """exp needs constant term 0; log and gamma_inv need constant term 1."""


class NoPrincipalEntry(WittCyclesError):
    """A relative symbol has no entry in 1 + t*F_m."""


class ZeroEntry(WittCyclesError):
    """A symbol entry, identity input, valuation argument or curve coordinate is 0."""


class NonRationalPoint(WittCyclesError):
    """Residue field of the valuation is a proper extension of F."""


class NonRationalSupport(WittCyclesError):
    """Zeros/poles outside the rational points of the u-line."""


class NonRationalBoundary(NonRationalSupport):
    pass


class FaceDegenerate(WittCyclesError):
    """A boundary point hits a cube face."""


class NotAdmissible(WittCyclesError):
    pass


class HypothesisViolated(WittCyclesError):
    """Filtration hypothesis sum(ord(y_i - 1)) >= m fails."""


class DegenerateBranch(WittCyclesError):
    """The two-entry identity landed in its zero branch."""
