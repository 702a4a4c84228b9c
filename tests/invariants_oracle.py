"""Certificate verification as it was before the text-first accept.

``nilcert.invariants.verify_certificate`` accepts a dict whose canonical JSON
is byte for byte that of its own rebuild without reading it as a
certificate.  This module keeps the route every claim took before, which the
library still takes for any other claim: read the dict
(``SeriesCertificate.from_json_dict``), run the structural check, rebuild
the certificate from its own inputs with the routine that built it, and
compare the two field by field with exact types.  The property tests hold
the library to it: the same verdict, or the same exception type and message.

:func:`writer_mismatch` holds ``SeriesCertificate.canonical_text`` to the
encoder it replaces, ``canonical_json`` of ``to_json_dict``.
"""

import json

from nilcert import nilpotent2, semidirect
from nilcert.arith import canonical_json, json_field, parse_int
from nilcert.certificates import KIND_SOL3, KIND_TWO_STEP, KIND_WITNESS, SeriesCertificate
from nilcert.errors import NilcertError, QuotientTooLarge, Record, UnresolvableReference
from nilcert.nilpotent2 import NilSublattice, TwoStepLattice
from nilcert.semidirect import SemidirectLattice

_UNREADABLE = (NilcertError, KeyError, ValueError, TypeError)


def _rebuild_sol3(cert, max_index):
    try:
        gamma = SemidirectLattice.from_json(json.loads(cert.group_ref))
    except _UNREADABLE as exc:
        raise UnresolvableReference("cannot rebuild ambient group: %s" % exc)
    try:
        descs = [json.loads(level.subgroup) for level in cert.chain]
    except _UNREADABLE as exc:
        raise UnresolvableReference("cannot rebuild chain subgroups: %s" % exc)
    subs = [
        (SemidirectLattice.from_json(desc), level.subgroup) for desc, level in zip(descs, cert.chain)
    ]
    return semidirect.tower_certificate(gamma, subs, cert.group_ref)


def _rebuild_witness(cert, max_index):
    try:
        params = json_field(json.loads(cert.group_ref), "witness")
        k, p, a = [parse_int(json_field(params, key)) for key in ("k", "p", "a")]
    except _UNREADABLE as exc:
        raise UnresolvableReference("cannot rebuild witness parameters: %s" % exc)
    return nilpotent2.heisenberg_witness(k, p, a, max_index)


def _rebuild_two_step(cert, max_index):
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


def verify_certificate(cert, max_index=None):
    """Read, check the structure, rebuild, compare with exact types."""
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
    return exact(fresh, cert)


def exact(a, b):
    """Equal values of one type, through records and tuples: 4.0 or True is not 4."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Record):
        return exact(a._values(), b._values())
    if isinstance(a, tuple):
        return len(a) == len(b) and all(exact(x, y) for x, y in zip(a, b))
    return a == b


def _written(write):
    try:
        return write()
    except Exception as exc:  # the writers must fail alike, too
        return type(exc)


def writer_mismatch(cert):
    """None when both writers give ``cert`` the same text, else the two results."""
    want = _written(lambda: canonical_json(cert.to_json_dict()))
    got = _written(cert.canonical_text)
    return None if got == want else (want, got)
