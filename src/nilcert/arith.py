"""Scalar integer helpers shared by the other modules.

``parse_int`` is the input boundary for every integer read from JSON: it
accepts a plain ``int`` or a decimal string and nothing else, so a float,
a boolean or a stray word becomes a structured error instead of a silent
truncation.  ``json_field`` is the matching boundary for object keys: a
missing field is a structured error naming it, not a ``KeyError``.
``decimals`` is the output boundary: every integer printed in a report
becomes a decimal string through it, and one past the interpreter's digit
limit is a structured ``TooLarge`` instead of a ``ValueError`` traceback.
``canonical_json`` and ``SCHEMA`` give every report and certificate its
bytes.  ``prime_factors`` is the one trial-division routine, behind the
cyclotomic polynomials and the brute-force H^1's p-power counts;
``is_prime``, behind the Minkowski bound, is a deterministic Miller-Rabin
test.  ``minkowski_bound`` and ``euler_length_bound`` are the scalar bounds,
here so that the CLI verbs that print them load no other module.
"""

from __future__ import annotations

import json
import sys

from .errors import InvalidParameters, TooLarge, ZeroEuler

SCHEMA = "nilcert/1"

# Sorted keys, separators "," and ":", no ASCII escaping, no cycle check.  One
# C encoder for every call: JSONEncoder.encode makes a new one each time, half
# the cost of encoding a group description.
_ENCODE = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, json.encoder.encode_basestring, None, ":", ",", True, False, True
)


def parse_int(x) -> int:
    """A plain ``int`` (not ``bool``) or a decimal string with optional ``-``."""
    if isinstance(x, str):  # JSON matrix entries; ASCII, as int() takes other digits too
        digits = x[1:] if x[:1] == "-" else x
        if digits.isascii() and digits.isdigit():
            try:
                return int(x)
            except ValueError as exc:  # beyond the interpreter's digit limit
                raise InvalidParameters("integer %.20s... is too long: %s" % (x, exc))
    elif isinstance(x, int) and not isinstance(x, bool):
        return int(x)
    raise InvalidParameters("expected an integer or a decimal string, got %r" % (x,))


def decimals(values) -> list[str]:
    """Decimal strings of the ints in ``values``, one row or vector at a time.

    Raises TooLarge when one of them has more digits than
    ``sys.get_int_max_str_digits()`` allows in a conversion.
    """
    try:
        return list(map(str, values))
    except ValueError:
        raise TooLarge(
            "integer exceeds the interpreter's %d-digit limit for decimal output"
            % sys.get_int_max_str_digits()
        ) from None


def canonical_json(obj) -> str:
    """Sorted keys, no whitespace: equal texts mean equal JSON values, and
    ``true`` or ``1.0`` never pass for ``1``."""
    return "".join(_ENCODE(obj, 0))


def json_field(obj, key: str, kind: type = object):
    """``obj[key]`` for a JSON object whose field holds a ``kind``, else InvalidParameters.

    Pass ``kind=list`` for a field that is read by iterating over it, so a
    string such as ``"22"`` is not taken for the list ``["2", "2"]``.
    """
    if not (isinstance(obj, dict) and key in obj):
        raise InvalidParameters("missing field %r in %.60r" % (key, obj))
    if not isinstance(obj[key], kind):
        raise InvalidParameters("field %r must be a JSON %s" % (key, kind.__name__))
    return obj[key]


def prime_factors(n: int) -> list[int]:
    """The primes dividing ``n >= 1``, ascending, by trial division."""
    primes, d = [], 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return primes + [n] if n > 1 else primes


# Miller-Rabin to the prime bases up to 41 decides every p below the bound
# (Sorenson and Webster, Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Is ``p`` prime?  TooLarge at or past the bound of the deterministic test."""
    if p >= _MR_BOUND:
        raise TooLarge("a %d-bit p is past the deterministic primality bound" % p.bit_length())
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    s = ((p - 1) & -(p - 1)).bit_length() - 1  # p - 1 = d * 2^s with d odd
    d = (p - 1) >> s
    # p is a strong probable prime to base a: a^d = 1 or a^(d 2^i) = -1, i < s.
    return all(
        pow(a, d, p) == 1 or any(pow(a, d << i, p) == p - 1 for i in range(s))
        for a in _MR_BASES
    )


def minkowski_bound(n: int) -> int:
    """The classical Minkowski constant M(n) for GL(n, Z).

    M(n) = prod_p p^(e_p) with e_p = sum_{i >= 0} floor(n / (p^i (p - 1))).
    Every finite subgroup of GL(n, Z) has order dividing M(n); the bound need
    not be attained (the largest finite subgroup of GL(2, Z) has order 12,
    while M(2) = 24).
    """
    if n < 1:
        raise InvalidParameters("n must be >= 1")
    result = 1
    p = 2
    while p - 1 <= n:
        if is_prime(p):
            e = 0
            q = p - 1
            while q <= n:
                e += n // q
                q *= p
            result *= p**e
        p += 1
    return result


def euler_length_bound(chi: int) -> int:
    """floor(log2 |chi|): the maximal number of nontrivial free layers.

    Each free layer of a finite group action divides the Euler characteristic
    by at least 2.  The prime-factor count Omega(|chi|) would bound it too;
    this returns the stated log2 constant.
    """
    if chi == 0:
        raise ZeroEuler("Euler characteristic zero: no multiplicative bound")
    return abs(chi).bit_length() - 1
