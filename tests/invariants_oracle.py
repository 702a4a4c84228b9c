"""Certificate verification as it was before the text-first accept.

``nilcert.invariants.verify_certificate`` accepts a dict whose canonical JSON
is byte for byte that of its own rebuild without reading it as a
certificate.  This module keeps the route every claim took before, which the
library still takes for any other claim: read the dict
(``SeriesCertificate.from_json_dict``), run the structural check, rebuild
the certificate from its own inputs with the routine that built it, and
compare the two field by field with exact types.  The property tests hold
the library to it: the same verdict, or the same exception type and message.

:func:`reference_json_dict` is the certificate layout as a dict builder,
the way the library wrote it before ``canonical_text`` became its one
writer.  :func:`writer_mismatch` holds ``SeriesCertificate.canonical_text``
to ``canonical_json`` of that reference, and :func:`dict_mismatch` holds
``to_json_dict`` to it with exact types and sorted keys.
"""

import json

from nilcert import nilpotent2, semidirect
from nilcert.arith import SCHEMA, canonical_json, decimals, json_field, parse_int
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


# kind -> (key of its levels, key of their flag), as the reference writes them
_LAYOUT = {KIND_SOL3: ("levels", "normalizer_verified"), KIND_WITNESS: ("chain", "normality_verified")}


def reference_level_dict(level, flag_key="normality_verified"):
    index, *factors = decimals((level.index, *level.quotient.torsion))
    out = {
        "subgroup": json.loads(level.subgroup),
        "quotient_factors": factors,
        "index": index,
        flag_key: level.normality_verified,
    }
    if level.quotient.free_rank:
        out["quotient_free_rank"] = level.quotient.free_rank
    if level.central is not None:
        out["central"] = level.central
    return out


def reference_json_dict(cert):
    """The certificate as JSON, the descriptions parsed from the texts it holds."""
    levels_key, flag_key = _LAYOUT.get(cert.kind, ("levels", "normality_verified"))
    total_index, max_quotient_order = decimals((cert.total_index, cert.max_quotient_order))
    group = json.loads(cert.group_ref)
    out = {
        "schema": SCHEMA,
        "kind": cert.kind,
        "group": group,
        levels_key: [reference_level_dict(level, flag_key) for level in cert.chain],
        "total_index": total_index,
        "min_length": cert.min_length,
        "max_quotient_order": max_quotient_order,
    }
    if cert.kind == KIND_WITNESS:
        out["profile"] = list(group.get("witness", {}).get("profile", []))
    return out


def writer_mismatch(cert):
    """None when ``canonical_text`` gives ``cert`` the reference's text, else the two results."""
    want = _written(lambda: canonical_json(reference_json_dict(cert)))
    got = _written(cert.canonical_text)
    return None if got == want else (want, got)


def dict_mismatch(cert):
    """None when ``to_json_dict`` gives ``cert`` the reference's value, else the two results.

    The dict is written with its keys in the order it holds them, so a key
    out of sorted order, or ``true`` for ``1``, is a mismatch."""
    want = _written(lambda: canonical_json(reference_json_dict(cert)))
    got = _written(lambda: json.dumps(cert.to_json_dict(), ensure_ascii=False, separators=(",", ":")))
    return None if got == want else (want, got)
