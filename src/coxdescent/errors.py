"""Exception hierarchy shared by all modules."""


class CoxDescentError(Exception):
    """Base class for all errors raised by this package."""


class TowerMismatchError(CoxDescentError):
    """Two field elements belong to different towers."""


class RingMismatchError(CoxDescentError):
    """Two polynomials or ideals belong to different rings."""


class InhomogeneousError(CoxDescentError):
    """A polynomial is not homogeneous for the ring's grading.

    Carries two offending monomials (as exponent tuples) when available.
    """

    def __init__(self, message, monomials=None):
        super().__init__(message)
        self.monomials = monomials


class UnitIdealError(CoxDescentError):
    """An operation that requires a proper ideal received the unit ideal."""


class ExponentCapError(CoxDescentError):
    """A monomial in a Groebner computation passed ``rings.EXPONENT_CAP``.

    Exponents are checked where polynomials are made; this is the engine's
    own guard, for the degrees that a computation reaches from them.
    """


class SaturationDirectionError(CoxDescentError):
    """Saturation against the zero ideal is undefined."""


class ParseError(CoxDescentError):
    """Syntax error in a polynomial or problem file; carries a line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class DescentPreconditionError(CoxDescentError):
    """A precondition of the descent algorithm failed.

    ``reason`` is one of ``NOT_INVARIANT``, ``NOT_STRICT``, ``DEGREE_MISMATCH``,
    or ``NO_FIXED_GENERATOR``: the stabilizer of a degree class fixes no
    element of a generator's orbit span that can replace it, as when it
    acts linearly with no fixed vector (x0 -> t*x0, t of order 3).
    """

    def __init__(self, reason, message=""):
        super().__init__("%s%s" % (reason, ": " + message if message else ""))
        self.reason = reason


class ActionError(CoxDescentError):
    """A semilinear action is inconsistent with the ring or grading."""
