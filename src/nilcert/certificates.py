"""Machine-checkable records of verified subnormal chains.

A :class:`SeriesCertificate` stores everything needed to re-derive its claims
from scratch: the ambient group description, each chain level's subgroup
description plus the verified quotient structure, and the certified length
data.  Certificates are plain JSON (integers as decimal strings) so they can
be archived and diffed.  The group and subgroup descriptions are held as
their canonical JSON text, made once where a certificate is built or parsed:
an immutable ``str`` that no caller's dict aliases and that compares as the
JSON it spells.  Every certificate is made by :func:`sealed`, and
re-verification (:mod:`nilcert.invariants`) rebuilds it from its own inputs
and compares.

Only the Sol3 tower kind carries a genuine lower bound on series length: the
normalizer-chain argument caps every quotient order at ``max_quotient_order``,
so any equivalent series needs at least ``min_length`` layers.  The witness
and two-step-series kinds realize a chain rather than bound all of them; they
report ``min_length`` 1 (or 0 for a trivial chain).
"""

from __future__ import annotations

import json
import re

from .arith import SCHEMA, canonical_json, decimals, json_field, parse_int
from .errors import InvalidParameters, Record, SelfCheckFailed
from .linalg import AbelianStructure

KIND_SOL3 = "sol3-tower"
KIND_WITNESS = "heisenberg-witness"
KIND_TWO_STEP = "two-step-series"

# kind -> (key of its levels, key of their flag); a tower level records a verified normalizer
_LAYOUT = {KIND_SOL3: ("levels", "normalizer_verified"), KIND_WITNESS: ("chain", "normality_verified")}
_CERT_KEYS = ("schema", "kind", "group", "total_index", "min_length", "max_quotient_order")
_LEVEL_KEYS = ("subgroup", "quotient_factors", "quotient_free_rank", "index", "central")
_BOOL = {True: "true", False: "false"}
# The fields that sort after "kind" and the levels; "profile" is a witness's only.
_TAIL = '"max_quotient_order":"%s","min_length":%d,%s"schema":"' + SCHEMA + '","total_index":"%s"}'
# A top-level "witness" object that ends the group text, holding no object or
# list but its "profile", which it ends with.  In canonical text a quote after
# "," or "{" opens a string, so these quotes spell keys.  Compiled on first
# use (re's cache), so a process that writes no witness never compiles it.
_WITNESS_PROFILE = r'"witness":\{(?:[^][{}]*,)?"profile":(\[[^][{}]*\])\}\}'


def _known_fields(obj: dict, *keys: str) -> None:
    """A field the reader would not check is malformed, not ignored."""
    for key in obj:
        if key not in keys:
            raise InvalidParameters("unknown field %r" % (key,))


class ChainLevel(Record):
    """One verified inclusion step: a subgroup, as canonical JSON text, with its quotient data."""

    __slots__ = _fields = ("subgroup", "quotient", "index", "normality_verified", "central")

    def __init__(
        self,
        subgroup: str,
        quotient: AbelianStructure,
        index: int,
        normality_verified: bool,
        central: bool | None = None,
    ):
        object.__setattr__(self, "subgroup", subgroup)
        object.__setattr__(self, "quotient", quotient)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "normality_verified", normality_verified)
        object.__setattr__(self, "central", central)

    def to_json_dict(self, flag_key: str = "normality_verified") -> dict:
        index, *factors = decimals((self.index, *self.quotient.torsion))
        out = {
            "subgroup": json.loads(self.subgroup),
            "quotient_factors": factors,
            "index": index,
            flag_key: self.normality_verified,
        }
        if self.quotient.free_rank:
            out["quotient_free_rank"] = self.quotient.free_rank
        if self.central is not None:
            out["central"] = self.central
        return out

    def canonical_text(self, flag_key: str = "normality_verified") -> str:
        """``canonical_json(self.to_json_dict(flag_key))``, with the subgroup text as held."""
        index, *factors = decimals((self.index, *self.quotient.torsion))
        return '{%s"index":"%s","%s":%s,"quotient_factors":[%s]%s,"subgroup":%s}' % (
            "" if self.central is None else '"central":%s,' % _BOOL[self.central],
            index,
            flag_key,
            _BOOL[self.normality_verified],
            '"%s"' % '","'.join(factors) if factors else "",
            ',"quotient_free_rank":%d' % self.quotient.free_rank if self.quotient.free_rank else "",
            self.subgroup,
        )

    @staticmethod
    def from_json_dict(obj: dict, flag_key: str = "normality_verified") -> "ChainLevel":
        subgroup = canonical_json(json_field(obj, "subgroup"))
        _known_fields(obj, flag_key, *_LEVEL_KEYS)
        quotient = AbelianStructure.from_json_fields(
            obj.get("quotient_free_rank", 0), json_field(obj, "quotient_factors", list)
        )
        index = parse_int(json_field(obj, "index"))
        return ChainLevel(subgroup, quotient, index, bool(_flag(obj, flag_key)), _flag(obj, "central"))


def plain_lists(obj: dict) -> bool:
    """Are a certificate dict's levels, and each level's factors, plain lists?
    ``canonical_json`` writes a tuple as a list; ``from_json_dict`` refuses it."""
    levels = obj[_LAYOUT.get(obj["kind"], ("levels",))[0]]
    return type(levels) is list and all([type(level["quotient_factors"]) is list for level in levels])


def _flag(obj: dict, key: str) -> bool | None:
    """A JSON boolean, or None when the flag is absent or null."""
    value = obj.get(key)
    if value is not None and not isinstance(value, bool):
        raise InvalidParameters("field %r must be a JSON boolean, got %r" % (key, value))
    return value


class SeriesCertificate(Record):
    """A verified subnormal chain with quotient structures and a length verdict."""

    __slots__ = _fields = (
        "kind", "group_ref", "chain", "total_index", "min_length", "max_quotient_order"
    )

    def __init__(
        self,
        kind: str,
        group_ref: str,
        chain: tuple[ChainLevel, ...],
        total_index: int,
        min_length: int,
        max_quotient_order: int,
    ):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "group_ref", group_ref)
        object.__setattr__(self, "chain", chain)
        object.__setattr__(self, "total_index", total_index)
        object.__setattr__(self, "min_length", min_length)
        object.__setattr__(self, "max_quotient_order", max_quotient_order)

    def structural_ok(self) -> bool:
        """Internal consistency: index product, flags, length bound."""
        prod = 1
        for level in self.chain:
            if not level.normality_verified:
                return False
            if level.quotient.order() != level.index:
                return False
            prod *= level.index
        if prod != self.total_index:
            return False
        if self.min_length > len(self.chain):
            return False
        if self.chain and self.max_quotient_order < max(l.index for l in self.chain):
            return False
        return True

    def to_json_dict(self) -> dict:
        """The certificate as JSON, its dicts and lists new: the descriptions
        are parsed from the texts the certificate holds."""
        levels_key, flag_key = _LAYOUT.get(self.kind, ("levels", "normality_verified"))
        total_index, max_quotient_order = decimals((self.total_index, self.max_quotient_order))
        group = json.loads(self.group_ref)
        out = {
            "schema": SCHEMA,
            "kind": self.kind,
            "group": group,
            levels_key: [level.to_json_dict(flag_key) for level in self.chain],
            "total_index": total_index,
            "min_length": self.min_length,
            "max_quotient_order": max_quotient_order,
        }
        if self.kind == KIND_WITNESS:
            out["profile"] = list(group.get("witness", {}).get("profile", []))
        return out

    def canonical_text(self) -> str:
        """``canonical_json(self.to_json_dict())``, written from the texts the
        certificate holds and the decimals of its scalars, with no description
        parsed or encoded again.  The texts must be canonical JSON, as every
        builder and ``from_json_dict`` makes them."""
        levels_key, flag_key = _LAYOUT.get(self.kind, ("levels", "normality_verified"))
        total_index, max_quotient_order = decimals((self.total_index, self.max_quotient_order))
        levels = "[%s]" % ",".join([level.canonical_text(flag_key) for level in self.chain])
        profile = ""
        if self.kind == KIND_WITNESS:
            text = self.group_ref
            at = text.rfind('"witness":{')
            found = at > 0 and text[at - 1] in ",{" and re.compile(_WITNESS_PROFILE).fullmatch(text, at)
            if not found:  # a group a builder never writes: no profile to copy
                return canonical_json(self.to_json_dict())
            profile = '"profile":%s,' % found[1]
        tail = _TAIL % (max_quotient_order, self.min_length, profile, total_index)
        kind = json.encoder.encode_basestring(self.kind)
        if levels_key == "chain":
            return '{"chain":%s,"group":%s,"kind":%s,%s' % (levels, self.group_ref, kind, tail)
        return '{"group":%s,"kind":%s,"%s":%s,%s' % (self.group_ref, kind, levels_key, levels, tail)

    @staticmethod
    def from_json_dict(obj: dict) -> "SeriesCertificate":
        if obj.get("schema", SCHEMA) != SCHEMA:
            raise InvalidParameters("unknown certificate schema %r" % (obj["schema"],))
        kind = json_field(obj, "kind", str)
        levels_key, flag_key = _LAYOUT.get(kind, ("levels", "normality_verified"))
        _known_fields(obj, levels_key, *_CERT_KEYS, *(("profile",) if kind == KIND_WITNESS else ()))
        group = json_field(obj, "group", dict)
        levels = json_field(obj, levels_key, list)
        if kind == KIND_WITNESS and "profile" in obj:
            # The top-level profile repeats the witness's, which the rebuild checks.
            claimed = json_field(json_field(group, "witness"), "profile")
            if canonical_json(obj["profile"]) != canonical_json(claimed):
                raise InvalidParameters("profile differs from the witness profile")
        return SeriesCertificate(
            kind=kind,
            group_ref=canonical_json(group),
            chain=tuple([ChainLevel.from_json_dict(l, flag_key) for l in levels]),
            total_index=parse_int(json_field(obj, "total_index")),
            min_length=parse_int(json_field(obj, "min_length")),
            max_quotient_order=parse_int(json_field(obj, "max_quotient_order")),
        )


def sealed(kind: str, group_ref: str, chain, total_index: int, min_length: int) -> SeriesCertificate:
    """The certificate of a verified chain, checked for internal consistency.

    ``max_quotient_order`` is the largest level index (1 for an empty
    chain).  Every builder ends here, so a re-verification that rebuilds a
    certificate from its inputs recomputes every field the same way.
    """
    chain = tuple(chain)
    cert = SeriesCertificate(
        kind=kind,
        group_ref=group_ref,
        chain=chain,
        total_index=total_index,
        min_length=min_length,
        max_quotient_order=max((level.index for level in chain), default=1),
    )
    if not cert.structural_ok():
        raise SelfCheckFailed("certificate failed its structural check")
    return cert


def length_lower_bound(total_index: int, max_quotient_order: int) -> int:
    """Smallest n with max_quotient_order**n >= total_index."""
    n = 0
    reached = 1
    while reached < total_index:
        reached *= max_quotient_order
        n += 1
    return n
