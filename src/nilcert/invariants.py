"""Scalar invariants and certificate verification.

Minkowski bounds for GL(n, Z), the Euler-characteristic length bound, the
lexicographic upper bound (rank of the center, rank of the center of the
inner automorphism group), and from-scratch re-verification of every
certificate kind produced by this package.
"""

from __future__ import annotations

import functools
import json

from . import nilpotent2, semidirect
from .arith import json_field, parse_int
from .arith import euler_length_bound, minkowski_bound  # noqa: F401  (public names of this module)
from .certificates import KIND_SOL3, KIND_TWO_STEP, KIND_WITNESS, SeriesCertificate
from .errors import (
    NilcertError,
    QuotientTooLarge,
    Record,
    UnresolvableReference,
    UnsupportedGroupShape,
)
from .nilpotent2 import NilSublattice, TwoStepLattice
from .semidirect import SemidirectLattice


@functools.total_ordering
class DiscSym2Bound(Record):
    """Pair (f, b) ordered lexicographically: (a, b) >= (c, d) iff a > c,
    or a = c and b >= d."""

    __slots__ = _fields = ("f_bound", "b_bound")

    def __init__(self, f_bound: int, b_bound: int):
        object.__setattr__(self, "f_bound", f_bound)
        object.__setattr__(self, "b_bound", b_bound)

    def __lt__(self, other: "DiscSym2Bound") -> bool:
        if self.f_bound != other.f_bound:
            return self.f_bound < other.f_bound
        return self.b_bound < other.b_bound

    def as_pair(self) -> tuple[int, int]:
        return (self.f_bound, self.b_bound)

    def to_json(self) -> dict:
        return {"f": self.f_bound, "b": self.b_bound}


def discsym2_upper(G) -> DiscSym2Bound:
    """Upper bound (rank of the center, rank of the center of Inn).

    For a 2-step lattice the inner automorphism group is Z^b modulo the
    kernel directions of the pairing, which is abelian; for a semidirect
    lattice both come from one cyclotomic split of the holonomy.
    """
    if isinstance(G, TwoStepLattice):
        rank, kernel = nilpotent2.center(G)
        return DiscSym2Bound(rank, G.b - kernel.rank)
    if isinstance(G, SemidirectLattice):
        return DiscSym2Bound(*semidirect.center_ranks(G))
    raise UnsupportedGroupShape(
        "disc-sym_2 bound supports two-step and semidirect lattices only"
    )


# ---------------------------------------------------------------------------
# Certificate re-verification
# ---------------------------------------------------------------------------


# Inputs a certificate names that cannot be read at all are unresolvable.
_UNREADABLE = (NilcertError, KeyError, ValueError, TypeError)


def _rebuild_sol3(cert: SeriesCertificate, max_index: int | None) -> SeriesCertificate:
    try:
        gamma = SemidirectLattice.from_json(json.loads(cert.group_ref))
    except _UNREADABLE as exc:
        raise UnresolvableReference("cannot rebuild ambient group: %s" % exc)
    try:
        descs = [json.loads(level.subgroup) for level in cert.chain]
    except _UNREADABLE as exc:
        raise UnresolvableReference("cannot rebuild chain subgroups: %s" % exc)
    # The subgroup descriptions are inputs, not claims: keep their spelling.
    subs = [
        (SemidirectLattice.from_json(desc), level.subgroup) for desc, level in zip(descs, cert.chain)
    ]
    return semidirect.tower_certificate(gamma, subs, cert.group_ref)


def _rebuild_witness(cert: SeriesCertificate, max_index: int | None) -> SeriesCertificate:
    try:
        params = json_field(json.loads(cert.group_ref), "witness")
        k, p, a = [parse_int(json_field(params, key)) for key in ("k", "p", "a")]
    except _UNREADABLE as exc:
        raise UnresolvableReference("cannot rebuild witness parameters: %s" % exc)
    return nilpotent2.heisenberg_witness(k, p, a, max_index)


def _rebuild_two_step(cert: SeriesCertificate, max_index: int | None) -> SeriesCertificate:
    try:
        group = json.loads(cert.group_ref)
        parent = TwoStepLattice.from_json(group)
        sub = NilSublattice.from_json(parent, json_field(group, "gamma"))
    except _UNREADABLE as exc:
        raise UnresolvableReference("cannot rebuild series data: %s" % exc)
    return nilpotent2.subnormal_series(parent, sub, max_index)


_REBUILD = {
    KIND_SOL3: _rebuild_sol3,
    KIND_WITNESS: _rebuild_witness,
    KIND_TWO_STEP: _rebuild_two_step,
}


def verify_certificate(cert, max_index: int | None = None) -> bool:
    """Re-derive every claim in a certificate from scratch.

    The certificate is rebuilt from its own inputs (ambient group, chain
    subgroups or witness parameters) by the routine that built it, and the
    result must equal it field for field: the group and subgroup
    descriptions as canonical JSON text, every other value with its exact
    type, so that true or 4.0 never passes for 1 or 4.  Returns False
    when any claim differs or the rebuild fails; raises UnresolvableReference
    when the certificate or the groups it names cannot be read at all, and
    QuotientTooLarge when a witness or series index exceeds ``max_index``.
    """
    if isinstance(cert, dict):
        try:
            cert = SeriesCertificate.from_json_dict(cert)
        except (NilcertError, ValueError, TypeError) as exc:
            raise UnresolvableReference("malformed certificate: %s" % exc)
    elif not isinstance(cert, SeriesCertificate):
        raise UnresolvableReference("certificate must be a dict or SeriesCertificate")
    if not cert.structural_ok():
        return False
    rebuild = _REBUILD.get(cert.kind)
    if rebuild is None:
        raise UnresolvableReference("unknown certificate kind %r" % cert.kind)
    try:
        fresh = rebuild(cert, max_index)
    except (UnresolvableReference, QuotientTooLarge):
        raise
    except NilcertError:
        return False
    return _exact(fresh, cert)


def _exact(a, b) -> bool:
    """Equal values of one type, through records and tuples: 4.0 or True is not 4."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Record):
        a, b = a._values(), b._values()
    elif not isinstance(a, tuple):
        return a == b
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):  # only records and tuples recurse
        if not (_exact(x, y) if isinstance(x, (Record, tuple)) else type(x) is type(y) and x == y):
            return False
    return True
