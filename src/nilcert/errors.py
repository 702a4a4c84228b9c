"""Exception hierarchy shared by all nilcert modules, and their value base.

Every domain failure raises a subclass of :class:`NilcertError` so the CLI can
map it to a structured error report (exit code 1) while genuine usage errors
stay on the argparse path (exit code 2).  :class:`Record` gives the small
result and element classes their immutable value semantics; it lives here
because every module already imports this one.
"""

import operator


class Record:
    """Immutable value: equality, hash and repr over the fields ``_fields``.

    A subclass lists its two or more fields in ``_fields`` (and, unless it
    needs a ``__dict__``, as its ``__slots__``) and sets each once in
    ``__init__`` with ``object.__setattr__``.  The semantics are those of a frozen
    dataclass: instances of one class are equal when their fields are, the
    hash is that of the field tuple, the repr is ``Name(field=value, ...)``
    and assignment or deletion raises ``AttributeError``.  Plain classes
    keep ``dataclasses`` (and the ``inspect`` it imports) out of every
    process and generate no methods at import.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._getter = operator.attrgetter(*cls._fields)

    def _values(self) -> tuple:
        return self._getter(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

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
