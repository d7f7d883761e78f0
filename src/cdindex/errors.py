"""Exception types shared across the library."""


class CdindexError(Exception):
    """Base class for every error raised by this package."""


class CycleDetected(CdindexError):
    """The cover relation contains a directed cycle."""


class NotGraded(CdindexError):
    """A rank-dependent operation was applied to a non-graded poset."""


class RequiresBounds(CdindexError):
    """The operation needs both a minimum and a maximum element."""


class RequiresMin(CdindexError):
    """The operation needs a minimum element."""


class MissingBounds(CdindexError):
    """A constructive operator was given a poset without the bound it needs."""


class NotNearEulerian(CdindexError):
    """The semisuspension construction did not produce an Eulerian poset."""


class NotALattice(CdindexError):
    """Join or meet failed to be unique for some pair of elements."""


class RankTooLarge(CdindexError):
    """Flag enumeration is limited to proper rank at most 62."""


class NotCdExpressible(CdindexError):
    """No integer cd-polynomial expands to the given ab-polynomial.

    Carries the residual p - expand_cd(Phi) of the Phi peeled off the
    sparse flag f-vector of p (see ``ncpoly.to_cd``); seeing this usually
    means a non-Eulerian poset was fed into a cd-index computation.
    """

    def __init__(self, residual):
        super().__init__("not expressible in c, d; residual %s" % (residual,))
        self.residual = residual


class DegreeTooHigh(CdindexError):
    """Polynomial reversal was asked for below the actual degree."""


class NotPure(CdindexError):
    """The operation is defined for pure simplicial complexes only."""


class FaceNotFound(CdindexError):
    """A face or element id is absent from the complex or poset."""


class DomainError(CdindexError):
    """A numeric argument is outside the meaningful range."""


class InvalidSubdivision(CdindexError):
    """A subdivision map failed validation or an asserted identity."""


class InvalidChain(CdindexError):
    """The given elements do not form a chain of the poset."""


class ValidationRequired(CdindexError):
    """The operation refuses to run on an unvalidated subdivision map."""


class NotLowerEulerian(CdindexError):
    """Some closed interval of the input is not Eulerian."""


class SearchCutoff(CdindexError):
    """Backtracking search exceeded its node budget (distinct from an
    exhausted search, which returns None)."""
