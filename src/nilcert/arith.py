"""Scalar integer helpers shared by the other modules.

``parse_int`` is the input boundary for every integer read from JSON: it
accepts a plain ``int`` or a decimal string and nothing else, so a float,
a boolean or a stray word becomes a structured error instead of a silent
truncation.  ``factorize`` is the one trial-division routine behind the
primality tests and the p-power counts.
"""

from __future__ import annotations

import re

from .errors import InvalidParameters

_DECIMAL = re.compile(r"-?[0-9]+")


def parse_int(x) -> int:
    """A plain ``int`` (not ``bool``) or a decimal string with optional ``-``."""
    if isinstance(x, int) and not isinstance(x, bool):
        return int(x)
    if isinstance(x, str) and _DECIMAL.fullmatch(x):
        try:
            return int(x)
        except ValueError as exc:  # beyond the interpreter's digit limit
            raise InvalidParameters("integer %.20s... is too long: %s" % (x, exc))
    raise InvalidParameters("expected an integer or a decimal string, got %r" % (x,))


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of ``n >= 1`` by trial division: {prime: exponent}."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(p: int) -> bool:
    return p >= 2 and factorize(p) == {p: 1}
