"""Exception hierarchy shared by all modules."""


class WittCyclesError(Exception):
    """Base class for every error raised by this package."""


class ParseError(WittCyclesError):
    pass


class ContextMismatch(WittCyclesError):
    """Operands belong to different variable contexts."""


class DivisionByZero(WittCyclesError):
    pass


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
    pass


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
