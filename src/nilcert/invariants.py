"""Scalar invariants and certificate verification.

Minkowski bounds for GL(n, Z), the Euler-characteristic length bound, the
lexicographic upper bound (rank of the center, rank of the center of the
inner automorphism group), and from-scratch re-verification of every
certificate kind produced by this package.
"""

from __future__ import annotations

import functools
import json
import sys

import nilcert  # the group families through the package: a verb loads only the one it reads

from .arith import canonical_json, json_field, parse_int
from .arith import euler_length_bound, minkowski_bound  # noqa: F401  (public names of this module)
from .certificates import KIND_SOL3, KIND_TWO_STEP, KIND_WITNESS, SeriesCertificate, plain_lists
from .errors import (
    NilcertError,
    QuotientTooLarge,
    Record,
    UnresolvableReference,
    UnsupportedGroupShape,
)


@functools.total_ordering
class DiscSym2Bound(Record):
    """Pair (f, b) ordered lexicographically: (a, b) >= (c, d) iff a > c,
    or a = c and b >= d."""

    __slots__ = _fields = ("f_bound", "b_bound")

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
    # A group of a family exists only once its module is loaded, so a family
    # not yet loaded is not loaded just to be ruled out.
    nilpotent2 = sys.modules.get("nilcert.nilpotent2")
    if nilpotent2 is not None and isinstance(G, nilpotent2.TwoStepLattice):
        rank, kernel = nilpotent2.center(G)
        return DiscSym2Bound(rank, G.b - kernel.rank)
    semidirect = sys.modules.get("nilcert.semidirect")
    if semidirect is not None and isinstance(G, semidirect.SemidirectLattice):
        return DiscSym2Bound(*semidirect.center_ranks(G))
    raise UnsupportedGroupShape(
        "disc-sym_2 bound supports two-step and semidirect lattices only"
    )


# ---------------------------------------------------------------------------
# Certificate re-verification
# ---------------------------------------------------------------------------


# Inputs a certificate names that cannot be read at all are unresolvable.
_UNREADABLE = (NilcertError, KeyError, ValueError, TypeError)


def _parsed(desc, text: str):
    """A description as the caller holds it, or, given None, the one its text spells."""
    return json.loads(text) if desc is None else desc


# Each routine rebuilds one kind from the group text, the group parsed (None
# to parse the text) and, for the tower, its levels' (subgroup, text) pairs.


def _rebuild_sol3(group_ref: str, group, subgroups, max_index: int | None) -> SeriesCertificate:
    read = nilcert.semidirect.SemidirectLattice.from_json
    try:
        gamma = read(_parsed(group, group_ref))
    except _UNREADABLE as exc:
        raise UnresolvableReference("cannot rebuild ambient group: %s" % exc)
    try:
        descs = [_parsed(desc, text) for desc, text in subgroups]
    except _UNREADABLE as exc:
        raise UnresolvableReference("cannot rebuild chain subgroups: %s" % exc)
    # The subgroup descriptions are inputs, not claims: keep their spelling.
    subs = [(read(desc), text) for desc, (_, text) in zip(descs, subgroups)]
    return nilcert.semidirect.tower_certificate(gamma, subs, group_ref)


def _rebuild_witness(group_ref: str, group, subgroups, max_index: int | None) -> SeriesCertificate:
    try:
        params = json_field(_parsed(group, group_ref), "witness")
        k, p, a = [parse_int(json_field(params, key)) for key in ("k", "p", "a")]
    except _UNREADABLE as exc:
        raise UnresolvableReference("cannot rebuild witness parameters: %s" % exc)
    return nilcert.nilpotent2.heisenberg_witness(k, p, a, max_index)


def _rebuild_two_step(group_ref: str, group, subgroups, max_index: int | None) -> SeriesCertificate:
    nilpotent2 = nilcert.nilpotent2
    try:
        group = _parsed(group, group_ref)
        parent = nilpotent2.TwoStepLattice.from_json(group)
        sub = nilpotent2.NilSublattice.from_json(parent, json_field(group, "gamma"))
    except _UNREADABLE as exc:
        raise UnresolvableReference("cannot rebuild series data: %s" % exc)
    return nilpotent2.subnormal_series(parent, sub, max_index)


_REBUILD = {
    KIND_SOL3: _rebuild_sol3,
    KIND_WITNESS: _rebuild_witness,
    KIND_TWO_STEP: _rebuild_two_step,
}


def _rebuild_as_it_stands(claim: dict, max_index: int | None) -> SeriesCertificate | None:
    """The rebuild of a claim from the inputs it names, read from the dict as
    they stand; None for a claim that ``canonical_json`` would spell as the
    reader refuses or keeps (a kind that is not a string, tuples for lists)."""
    kind = claim["kind"]
    if type(kind) is not str or not plain_lists(claim):
        return None
    group = claim["group"]
    if kind == KIND_SOL3:
        subgroups = [(level["subgroup"], canonical_json(level["subgroup"])) for level in claim["levels"]]
        return _rebuild_sol3(canonical_json(group), group, subgroups, max_index)
    return _REBUILD[kind](None, group, (), max_index)


def verify_certificate(cert, max_index: int | None = None) -> bool:
    """Re-derive every claim in a certificate from scratch.

    The certificate is rebuilt from its own inputs (ambient group, chain
    subgroups or witness parameters) by the routine that built it.  A dict
    whose canonical JSON is byte for byte that of its rebuild is accepted
    there: the rebuild is sealed and deterministic, and reading its JSON
    gives it back, so the steps below could only agree.  Otherwise, and for
    a ``SeriesCertificate``, the certificate is read, checked for internal
    consistency, rebuilt, and must equal its rebuild field for field: the
    group and subgroup descriptions as canonical JSON text, every other
    value with its exact type, so that true or 4.0 never passes for 1 or 4.
    A dict's rebuild from its inputs as they stand, when it completed, is
    that rebuild: its inputs read as the canonical texts it is compared
    through, which the text check above relies on too, so a claim is
    rebuilt at most once.
    Returns False when any claim differs or the rebuild fails; raises
    UnresolvableReference when the certificate or the groups it names
    cannot be read at all, and QuotientTooLarge when a witness or series
    index exceeds ``max_index``.
    """
    fresh = None
    if isinstance(cert, dict):
        try:
            attempt = _rebuild_as_it_stands(cert, max_index)
            if attempt is not None and attempt.canonical_text() == canonical_json(cert):
                return True
            fresh = attempt
        except Exception:
            pass  # the steps below decide the verdict and name the error
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
    if fresh is None:
        subgroups = [(None, level.subgroup) for level in cert.chain]
        try:
            fresh = rebuild(cert.group_ref, None, subgroups, max_index)
        except (UnresolvableReference, QuotientTooLarge):
            raise
        except NilcertError:
            return False
    return _exact(fresh, cert)


def _exact(a, b) -> bool:
    """Records or tuples of one type with equal values, through records and
    tuples: 4.0 or True is not 4."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Record):
        a, b = a._values(), b._values()
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):  # only records and tuples recurse
        if not (_exact(x, y) if isinstance(x, (Record, tuple)) else type(x) is type(y) and x == y):
            return False
    return True
