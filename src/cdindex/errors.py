"""Exception types and the record base shared across the library."""


class CdindexError(Exception):
    """Base class for every error raised by this package."""


class CycleDetected(CdindexError):
    """The cover relation contains a directed cycle."""


class NotGraded(CdindexError):
    """A rank-dependent operation was applied to a non-graded poset."""


class RequiresBounds(CdindexError):
    """The poset lacks the minimum, the maximum or both that are needed."""


class NotNearEulerian(CdindexError):
    """The semisuspension construction did not produce an Eulerian poset."""


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


class DomainError(CdindexError):
    """An argument, such as an unknown id, is outside the meaningful domain."""


class InvalidSubdivision(CdindexError):
    """A subdivision map is refused as invalid."""


class InvalidChain(CdindexError):
    """The given elements do not form a chain of the poset."""


class NotLowerEulerian(CdindexError):
    """Some closed interval of the input is not Eulerian."""


class SearchCutoff(CdindexError):
    """Backtracking search exceeded its node budget (distinct from an
    exhausted search, which returns None)."""


class Record:
    """Base of the result records: fields named by ``__slots__``, set once
    by position or keyword, compared, hashed and printed by value."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        values = dict(zip(names, args), **kwargs)
        if (len(args) + len(kwargs) != len(names)
                or values.keys() != set(names)):
            raise TypeError("%s takes %r" % (type(self).__name__, names))
        for name in names:
            object.__setattr__(self, name, values[name])

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return (self._values() == other._values()
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % item for item in zip(self.__slots__, self._values())))

    def __setattr__(self, name, value=None):
        raise AttributeError("cannot assign to field %r" % name)
    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values()
