"""Exception hierarchy shared by all nilcert modules, and their value bases.

Every domain failure raises a subclass of :class:`NilcertError` so the CLI can
map it to a structured error report (exit code 1) while genuine usage errors
stay on the argparse path (exit code 2).  :class:`Value` (equality and hash)
and its subclass :class:`Record` (fields bound once, immutable) are the value
bases; they live here because every module already imports this one.
"""

import operator


class Value:
    """Equality between instances of one class, and the hash, over the field tuple ``_fields``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        if cls._fields:
            cls._getter = operator.attrgetter(*cls._fields)

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is self.__class__:
            getter = self._getter
            return getter(self) == getter(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._getter(self))


class Record(Value):
    """Immutable value: fields bound once, and the repr over ``_fields``.

    A subclass lists its two or more fields in ``_fields`` (and, unless it
    needs a ``__dict__``, as its ``__slots__``).  ``Record.__init__`` binds
    them by position or by name, raising ``TypeError`` where a dataclass
    would.  A subclass with defaults or checks writes an ``__init__`` that
    calls it once and then checks; ``_trusted`` skips the checks.  Equality
    and hash (from :class:`Value`), the repr ``Name(field=value, ...)`` and
    ``AttributeError`` on assignment or deletion are those of a frozen
    dataclass, which would load ``dataclasses`` and ``inspect`` into every
    process.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        # A slot's descriptor sets its field; a class without slots keeps them in its instance dict.
        cls._setters = tuple(
            getattr(cls, name).__set__ if hasattr(cls, name)
            else lambda record, value, name=name: vars(record).__setitem__(name, value)
            for name in cls._fields
        )

    def __init__(self, *values, **named):
        setters = self._setters
        if named or len(values) != len(setters):
            values = self._arguments(values, named)
        for set_field, value in zip(setters, values):
            set_field(self, value)

    @classmethod
    def _trusted(cls, *values):
        """An instance with the field values ``values``, the subclass's checks not run."""
        self = object.__new__(cls)
        for set_field, value in zip(cls._setters, values):  # __init__'s loop: a call costs more
            set_field(self, value)
        return self

    @classmethod
    def _arguments(cls, values: tuple, named: dict) -> tuple:
        """The field values of a call with names or a wrong count, bound as a dataclass binds them."""
        call, fields, rest = cls.__qualname__ + ".__init__()", cls._fields, cls._fields[len(values) :]
        for key in named:
            if key not in rest:
                problem = "multiple values for" if key in fields else "an unexpected keyword"
                raise TypeError("%s got %s argument %r" % (call, problem, key))
        if len(values) + len(named) != len(fields):  # each name now binds one field of rest
            counts = (call, len(fields), fields, len(values) + len(named))
            raise TypeError("%s takes %d arguments %r but %d were given" % counts)
        return values + tuple(map(named.__getitem__, rest))

    def _values(self) -> tuple:
        return self._getter(self)

    def __repr__(self):
        fields = ", ".join("%s=%r" % (name, getattr(self, name)) for name in self._fields)
        return "%s(%s)" % (type(self).__qualname__, fields)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __reduce__(self):
        return type(self), self._values()


class NilcertError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionMismatch(NilcertError):
    """Operands have incompatible matrix or ambient dimensions."""


class NotASublattice(NilcertError):
    """Claimed sublattice has a basis vector outside the ambient lattice."""


class NotASubgroup(NilcertError):
    """Claimed subgroup is not contained in the ambient group."""


class NotNormal(NilcertError):
    """Subgroup is not normal: some conjugate of one of its elements leaves it."""


class NotAbelianQuotient(NilcertError):
    """Quotient exists but is not abelian; the caller must refine the series."""


class QuotientTooLarge(NilcertError):
    """Finite quotient exceeds the enumeration guardrail."""


class UnsupportedSubgroupShape(NilcertError):
    """Subgroup falls outside the box shapes this package models."""


class UnsupportedGroupShape(NilcertError):
    """Group description is not one of the supported lattice shapes."""


class NotFiniteIndex(NilcertError):
    """Subgroup does not have finite index in its overgroup."""


class ClosureViolation(NilcertError):
    """Box data is not closed under the group law."""


class NotAnAutomorphism(NilcertError):
    """Matrix pair does not define a form-compatible automorphism."""


class InfiniteOrder(NilcertError):
    """Claimed finite order could not be verified."""


class InvalidParameters(NilcertError):
    """Arguments violate a documented precondition."""


class IllDefinedAction(NilcertError):
    """Module action matrices do not satisfy the relators or torsion."""


class TooLarge(NilcertError):
    """A size guard was exceeded: a brute-force enumeration would pass its
    limit, or an integer has too many digits to print in decimal."""


class EnumerationFailed(NilcertError):
    """Coset enumeration did not close within the guard."""


class ZeroEuler(NilcertError):
    """Euler characteristic zero: the length bound does not apply."""


class UnresolvableReference(NilcertError):
    """Certificate references a group or shape that cannot be rebuilt."""


class SelfCheckFailed(NilcertError):
    """A computed result failed the package's own consistency check."""
